package chain

import (
	"crypto/ed25519"
	"errors"
	"math"
	"strings"
	"testing"
)

func signer(name string, b byte) *Signer {
	var seed [32]byte
	seed[0] = b
	return NewSigner(name, seed)
}

func newTestLedger(t *testing.T, signers ...*Signer) *Ledger {
	t.Helper()
	l := NewLedger()
	for _, s := range signers {
		if err := l.RegisterExecutor(s.Name, s.Public()); err != nil {
			t.Fatal(err)
		}
	}
	return l
}

func TestAppendAndVerify(t *testing.T) {
	s := signer("srv-0", 1)
	l := newTestLedger(t, s)
	for i := 0; i < 10; i++ {
		if _, err := l.Append(s, Record{Kind: KindDetection, Iteration: i, WorkerID: i % 3, Value: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if l.Len() != 10 {
		t.Fatalf("Len = %d", l.Len())
	}
	if err := l.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestAppendUnregisteredFails(t *testing.T) {
	l := newTestLedger(t)
	if _, err := l.Append(signer("ghost", 9), Record{Kind: KindReward}); err == nil {
		t.Fatal("unregistered executor must not append")
	}
}

func TestExecutorNameForced(t *testing.T) {
	s := signer("srv-0", 1)
	l := newTestLedger(t, s)
	b, err := l.Append(s, Record{Kind: KindReward, Executor: "someone-else"})
	if err != nil {
		t.Fatal(err)
	}
	if b.Record.Executor != "srv-0" {
		t.Fatalf("executor = %q, want the signer's name", b.Record.Executor)
	}
}

func TestRegisterConflictingKeyFails(t *testing.T) {
	l := NewLedger()
	a, b := signer("same", 1), signer("same", 2)
	if err := l.RegisterExecutor("same", a.Public()); err != nil {
		t.Fatal(err)
	}
	if err := l.RegisterExecutor("same", b.Public()); err == nil {
		t.Fatal("conflicting key registration must fail")
	}
	// Re-registering the same key is idempotent.
	if err := l.RegisterExecutor("same", a.Public()); err != nil {
		t.Fatalf("idempotent registration failed: %v", err)
	}
}

// TestRegisterRejectsMalformedKey: a key that is not an ed25519 public key
// is refused. Accepted, it made the next Verify panic inside a verifying
// goroutine (ed25519.Verify panics on a bad key length), which took the
// process down; refused, the executor's blocks fail as unknown.
func TestRegisterRejectsMalformedKey(t *testing.T) {
	s := signer("srv-0", 1)
	for _, n := range []int{0, 1, ed25519.PublicKeySize - 1, ed25519.PublicKeySize + 1, ed25519.PrivateKeySize} {
		l := newTestLedger(t)
		regErr := l.RegisterExecutor(s.Name, make([]byte, n))
		l.push(Block{Record: Record{Kind: KindReward, Executor: s.Name}, Signature: make([]byte, ed25519.SignatureSize)})
		if err := l.Verify(); !errors.Is(err, ErrTampered) || !strings.Contains(err.Error(), "unknown executor") {
			t.Fatalf("%d-byte key: Verify = %v, want an unknown executor", n, err)
		}
		if regErr == nil {
			t.Fatalf("a %d-byte key was registered", n)
		}
		if err := l.RegisterExecutor(s.Name, s.Public()); err != nil {
			t.Fatalf("the well-formed key after a %d-byte one: %v", n, err)
		}
	}
}

func TestTamperedValueDetected(t *testing.T) {
	s := signer("srv-0", 1)
	l := newTestLedger(t, s)
	for i := 0; i < 5; i++ {
		mustAppend(t, l, s, Record{Kind: KindReputation, Iteration: i, WorkerID: 0, Value: 0.5})
	}
	// Tamper with a block's record directly.
	l.blocks.at(2).Record.Value = 0.99
	err := l.Verify()
	if err == nil {
		t.Fatal("tampering must be detected")
	}
	if !errors.Is(err, ErrTampered) {
		t.Fatalf("error should wrap ErrTampered, got %v", err)
	}
}

func TestTamperedHashLinkDetected(t *testing.T) {
	s := signer("srv-0", 1)
	l := newTestLedger(t, s)
	for i := 0; i < 5; i++ {
		mustAppend(t, l, s, Record{Kind: KindDetection, Iteration: i, Value: 1})
	}
	l.blocks.at(3).PrevHash[0] ^= 0xff
	if err := l.Verify(); !errors.Is(err, ErrTampered) {
		t.Fatalf("broken hash link must be detected, got %v", err)
	}
}

func TestForgedSignatureDetected(t *testing.T) {
	s := signer("srv-0", 1)
	l := newTestLedger(t, s)
	mustAppend(t, l, s, Record{Kind: KindDetection, Value: 1})
	l.blocks.at(0).Signature[0] ^= 0xff
	if err := l.Verify(); !errors.Is(err, ErrTampered) {
		t.Fatalf("forged signature must be detected, got %v", err)
	}
}

func TestQueryFilters(t *testing.T) {
	s := signer("srv-0", 1)
	l := newTestLedger(t, s)
	mustAppend(t, l, s, Record{Kind: KindDetection, Iteration: 0, WorkerID: 0, Value: 1})
	mustAppend(t, l, s, Record{Kind: KindDetection, Iteration: 0, WorkerID: 1, Value: 0})
	mustAppend(t, l, s, Record{Kind: KindReputation, Iteration: 0, WorkerID: 0, Value: 0.1})
	mustAppend(t, l, s, Record{Kind: KindDetection, Iteration: 1, WorkerID: 0, Value: 1})

	if got := len(l.Query(KindDetection, -1, -1)); got != 3 {
		t.Fatalf("kind filter: %d", got)
	}
	if got := len(l.Query(KindDetection, 0, -1)); got != 2 {
		t.Fatalf("iteration filter: %d", got)
	}
	if got := len(l.Query("", -1, 0)); got != 3 {
		t.Fatalf("worker filter: %d", got)
	}
	if got := len(l.Query(KindReputation, 0, 0)); got != 1 {
		t.Fatalf("combined filter: %d", got)
	}
}

func TestAuditMatch(t *testing.T) {
	s := signer("srv-0", 1)
	l := newTestLedger(t, s)
	mustAppend(t, l, s, Record{Kind: KindReputation, Iteration: 3, WorkerID: 2, Value: 0.75})
	culprit, err := l.Audit(KindReputation, 3, 2, 0.75, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if culprit != "" {
		t.Fatalf("matching record flagged culprit %q", culprit)
	}
}

func TestAuditMismatchNamesCulprit(t *testing.T) {
	s := signer("srv-7", 7)
	l := newTestLedger(t, s)
	mustAppend(t, l, s, Record{Kind: KindReputation, Iteration: 3, WorkerID: 2, Value: 0.75})
	culprit, err := l.Audit(KindReputation, 3, 2, 0.25, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if culprit != "srv-7" {
		t.Fatalf("culprit = %q, want srv-7", culprit)
	}
}

func TestAuditMissingRecordErrors(t *testing.T) {
	l := newTestLedger(t, signer("srv-0", 1))
	if _, err := l.Audit(KindReputation, 0, 0, 0, 1e-9); err == nil {
		t.Fatal("missing record should be an error")
	}
}

func TestBlockOutOfRange(t *testing.T) {
	l := newTestLedger(t, signer("srv-0", 1))
	if _, err := l.Block(0); err == nil {
		t.Fatal("expected error for empty ledger")
	}
}

func TestConcurrentAppends(t *testing.T) {
	s := signer("srv-0", 1)
	l := newTestLedger(t, s)
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 25; i++ {
				if _, err := l.Append(s, Record{Kind: KindReward, Iteration: g, WorkerID: i}); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	if l.Len() != 100 {
		t.Fatalf("Len = %d, want 100", l.Len())
	}
	if err := l.Verify(); err != nil {
		t.Fatalf("chain broken after concurrent appends: %v", err)
	}
}

func TestMarshalJSON(t *testing.T) {
	s := signer("srv-0", 1)
	l := newTestLedger(t, s)
	mustAppend(t, l, s, Record{Kind: KindElection, Value: 3})
	data, err := l.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatal("empty JSON export")
	}
}

func mustAppend(t *testing.T, l *Ledger, s *Signer, r Record) {
	t.Helper()
	if _, err := l.Append(s, r); err != nil {
		t.Fatal(err)
	}
}

func TestAuditNonFiniteIsMismatch(t *testing.T) {
	cases := map[string]struct {
		recorded, recomputed, tol float64
	}{
		"NaN record":     {math.NaN(), 0.5, 1e-9},
		"+Inf record":    {math.Inf(1), 0.5, 1e-9},
		"-Inf record":    {math.Inf(-1), 0.5, 1e-9},
		"NaN recomputed": {0.5, math.NaN(), 1e-9},
		"Inf recomputed": {0.5, math.Inf(1), 1e-9},
		"NaN tolerance":  {0.5, 0.5, math.NaN()},
		"both NaN":       {math.NaN(), math.NaN(), 1e-9},
	}
	for name, c := range cases {
		s := signer("srv-nf", 7)
		l := newTestLedger(t, s)
		mustAppend(t, l, s, Record{Kind: KindReputation, Iteration: 0, WorkerID: 0, Value: c.recorded})
		culprit, err := l.Audit(KindReputation, 0, 0, c.recomputed, c.tol)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if culprit != "srv-nf" {
			t.Fatalf("%s: non-finite audit comparison passed (culprit %q)", name, culprit)
		}
	}
	// Finite agreement still passes.
	s := signer("srv-ok", 8)
	l := newTestLedger(t, s)
	mustAppend(t, l, s, Record{Kind: KindReputation, Iteration: 0, WorkerID: 0, Value: 0.5})
	if culprit, err := l.Audit(KindReputation, 0, 0, 0.5, 1e-9); err != nil || culprit != "" {
		t.Fatalf("finite match flagged: culprit %q, err %v", culprit, err)
	}
}
