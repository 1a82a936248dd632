package chain

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"fifl/internal/rng"
)

// sealedLedger writes batches of random length in which up to three
// executors take turns in runs of one to five records, as the Record stage
// interleaves its servers, with batch k recording iteration k.
func sealedLedger(t *testing.T, src *rng.Source, batches int) *Ledger {
	t.Helper()
	srv := []*Signer{signer("srv-0", 1), signer("srv-1", 2), signer("srv-2", 3)}
	l := newTestLedger(t, srv...)
	for k := 0; k < batches; k++ {
		n, m, run := src.UniformInt(1, 14), src.UniformInt(1, 3), src.UniformInt(1, 5)
		signers := make([]*Signer, n)
		recs := make([]Record, n)
		for i := range recs {
			signers[i] = srv[i/run%m]
			recs[i] = Record{Kind: KindReputation, Iteration: k, WorkerID: src.Intn(5), Value: src.Float64()}
		}
		if err := l.AppendBatch(signers, recs); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Verify(); err != nil {
		t.Fatalf("pre-tamper verify failed: %v", err)
	}
	return l
}

// seals lists the blocks that carry a signature.
func seals(l *Ledger) []int {
	var out []int
	for i, b := range l.blocks.list() {
		if len(b.Signature) > 0 {
			out = append(out, i)
		}
	}
	return out
}

// checkVerdict runs Verify and the serial reference and fails unless they
// agree, to the letter, on an error.
func checkVerdict(t *testing.T, l *Ledger, what string) error {
	t.Helper()
	err := l.Verify()
	if err == nil {
		t.Fatalf("%s went undetected", what)
	}
	if !errors.Is(err, ErrTampered) {
		t.Fatalf("%s: error %v does not wrap ErrTampered", what, err)
	}
	if want := errText(refVerify(l)); err.Error() != want {
		t.Fatalf("%s: Verify = %q, the serial reference = %q", what, err, want)
	}
	return err
}

// TestRandomTamperAlwaysDetected is a randomized property test: ANY
// mutation of any committed block — record fields, hash links, signatures
// — must break verification. This is the guarantee the §4.5 audit relies
// on: a malicious server cannot rewrite history, only append, and appends
// are attributable. Each trial writes batches in which several executors
// take turns and applies one of six mutations, the same one for ten
// trials each, at the first block of the chain, a middle block and a
// seal. Left with its stored hash, a mutated block is reported itself.
// With the hashes recomputed from it to the tip, as a forger would do, a
// rewritten hash link still fails at the block, and anything else fails at
// the first seal from the block on — a seal whose tree or tip changed —
// naming that seal's executor. Verify's verdict is the serial reference's
// every time.
func TestRandomTamperAlwaysDetected(t *testing.T) {
	src := rng.New(99)
	mutations := []string{"value", "worker", "iteration", "kind", "prev hash", "signature"}
	for trial := 0; trial < 60; trial++ {
		l := sealedLedger(t, src, src.UniformInt(1, 4))
		sealed := seals(l)
		mutation := mutations[trial%len(mutations)]
		targets := map[string]int{
			"first block":  0,
			"middle block": src.Intn(l.blocks.len()),
			"seal":         sealed[src.Intn(len(sealed))],
		}
		for where, i := range targets {
			for _, rehashed := range []bool{false, true} {
				saved := l.blocks.list()
				saved[i].Signature = append([]byte(nil), saved[i].Signature...)
				b := l.blocks.at(i)
				switch mutation {
				case "value":
					b.Record.Value += 0.5
				case "worker":
					b.Record.WorkerID++
				case "iteration":
					b.Record.Iteration += 3
				case "kind":
					b.Record.Kind = KindReward
				case "prev hash":
					b.PrevHash[src.Intn(32)] ^= 1 << src.Intn(8)
				case "signature":
					forgeSignature(b, src.Intn(8*64))
				}
				if rehashed {
					rehash(l, i)
				}
				what := fmt.Sprintf("trial %d: %s of the %s (block %d, rehashed %v)", trial, mutation, where, i, rehashed)
				err := checkVerdict(t, l, what)
				switch {
				case !rehashed || mutation == "prev hash":
					if !strings.Contains(err.Error(), fmt.Sprintf(": block %d ", i)) {
						t.Fatalf("%s: reported as %q", what, err)
					}
				default:
					j := seals(l)[0]
					for _, s := range seals(l) {
						if s >= i {
							j = s
							break
						}
					}
					want := fmt.Sprintf("%v: block %d has an invalid seal by %q", ErrTampered, j, l.blocks.at(j).Record.Executor)
					if err.Error() != want {
						t.Fatalf("%s: reported as %q, want %q", what, err, want)
					}
				}
				for k, b := range saved {
					*l.blocks.at(k) = b
				}
			}
		}
	}
}

// TestSealMovedIsCaught: a valid seal carried to another round or to
// another executor, with every hash recomputed around it, fails.
func TestSealMovedIsCaught(t *testing.T) {
	a, b := signer("srv-a", 1), signer("srv-b", 2)
	build := func() *Ledger {
		l := newTestLedger(t, a, b)
		for round := 0; round < 2; round++ {
			var signers []*Signer
			var recs []Record
			for w := 0; w < 4; w++ {
				for _, k := range []RecordKind{KindUpload, KindDetection, KindReputation} {
					signers = append(signers, []*Signer{a, b}[w%2])
					recs = append(recs, Record{Kind: k, Iteration: round, WorkerID: w, Value: float64(round*10 + w)})
				}
			}
			if err := l.AppendBatch(signers, recs); err != nil {
				t.Fatal(err)
			}
		}
		if got := seals(l); len(got) != 4 {
			t.Fatalf("2 rounds by 2 executors carry seals %v", got)
		}
		return l
	}
	// Seals in chain order: srv-a's and srv-b's of round 0, then round 1's.
	l := build()
	s := seals(l)
	l.blocks.at(s[2]).Signature = l.blocks.at(s[0]).Signature // srv-a's round-0 seal on its round-1 tree
	rehash(l, s[2])
	if err := checkVerdict(t, l, "a seal moved to another round"); !strings.Contains(err.Error(), "invalid seal by \"srv-a\"") {
		t.Fatalf("a seal moved to another round: %v", err)
	}

	l = build()
	s = seals(l)
	l.blocks.at(s[0]).Signature, l.blocks.at(s[1]).Signature = l.blocks.at(s[1]).Signature, l.blocks.at(s[0]).Signature
	rehash(l, s[0])
	if err := checkVerdict(t, l, "two executors' seals swapped"); !strings.Contains(err.Error(), fmt.Sprintf("block %d has an invalid seal", s[0])) {
		t.Fatalf("two executors' seals swapped: %v", err)
	}

	l = build()
	s = seals(l)
	l.blocks.at(s[0]).Record.Executor = b.Name // srv-a's seal claimed by srv-b
	rehash(l, s[0])
	checkVerdict(t, l, "a seal moved to another executor")
}

// TestUnsealedTailFails: a chain cut off inside a batch, before one of its
// executors has sealed, fails as an unsealed tail — the hash links and
// hashes of every remaining block being intact.
func TestUnsealedTailFails(t *testing.T) {
	src := rng.New(7)
	cuts := 0
	for trial := 0; trial < 20; trial++ {
		l := sealedLedger(t, src, 3)
		s := seals(l)
		l.blocks.truncate(s[len(s)-1]) // drops the chain's last seal
		if refVerify(l) == nil {
			continue // the seal was a batch of its own
		}
		cuts++
		if err := checkVerdict(t, l, fmt.Sprintf("trial %d: cut before block %d", trial, l.blocks.len())); !strings.Contains(err.Error(), "unsealed tail") {
			t.Fatalf("trial %d: a chain cut before its seal fails as %v", trial, err)
		}
	}
	if cuts < 10 {
		t.Fatalf("only %d of 20 chains were cut inside a batch", cuts)
	}
}

// TestExecutorSwapDetected: rewriting a block's executor to frame another
// registered server must break verification.
func TestExecutorSwapDetected(t *testing.T) {
	a, b := signer("srv-a", 1), signer("srv-b", 2)
	l := newTestLedger(t, a, b)
	mustAppend(t, l, a, Record{Kind: KindDetection, Value: 1})
	l.blocks.at(0).Record.Executor = "srv-b"
	if err := l.Verify(); err == nil {
		t.Fatal("executor swap went undetected")
	}
}
