package chain

import (
	"bytes"
	"crypto/ed25519"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"fifl/internal/rng"
)

// errText makes two verdicts comparable, nil included.
func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// signedLedger appends n records written alternately by two registered
// executors, in batches of ten, so each batch of two or more records ends
// with two seals.
func signedLedger(t testing.TB, n int) *Ledger {
	t.Helper()
	signers, recs := batchFixture(n)
	l := NewLedger()
	for _, s := range signers[:min(n, 2)] {
		if err := l.RegisterExecutor(s.Name, s.Public()); err != nil {
			t.Fatal(err)
		}
	}
	for lo := 0; lo < n; lo += 10 {
		hi := min(lo+10, n)
		if err := l.AppendBatch(signers[lo:hi], recs[lo:hi]); err != nil {
			t.Fatal(err)
		}
	}
	return l
}

// rehash recomputes the stored hashes from block i to the tip, and the hash
// links from block i+1 on, as a forger rewriting history would: only the
// seals can then tell.
func rehash(l *Ledger, i int) {
	for j := i; j < l.blocks.len(); j++ {
		b := l.blocks.at(j)
		if j > i {
			b.PrevHash = l.blocks.at(j - 1).Hash
		}
		b.Hash = sha256.Sum256(append(append(b.PrevHash[:], b.Record.payload()...), b.Signature...))
	}
}

// forgeSignature flips a bit of a seal's signature, and gives a block
// without one a signature of 64 zero bytes but one.
func forgeSignature(b *Block, bit int) {
	if len(b.Signature) == 0 {
		b.Signature = make([]byte, ed25519.SignatureSize)
	}
	b.Signature[bit/8%len(b.Signature)] ^= 1 << (bit % 8)
}

// tamperings are the six mutations of TestRandomTamperAlwaysDetected plus
// an executor swap, an unknown executor, a wrong stored hash, and a seal
// stripped of its signature or a block given a malformed one.
var tamperings = []struct {
	name  string
	apply func(b *Block)
}{
	{"value", func(b *Block) { b.Record.Value += 0.5 }},
	{"worker", func(b *Block) { b.Record.WorkerID++ }},
	{"iteration", func(b *Block) { b.Record.Iteration += 3 }},
	{"kind", func(b *Block) { b.Record.Kind = KindElection }},
	{"prev hash", func(b *Block) { b.PrevHash[7] ^= 1 << 3 }},
	{"signature", func(b *Block) { forgeSignature(b, 93) }},
	{"executor swap", func(b *Block) {
		if b.Record.Executor == "srv-0" {
			b.Record.Executor = "srv-1"
		} else {
			b.Record.Executor = "srv-0"
		}
	}},
	{"unknown executor", func(b *Block) { b.Record.Executor = "srv-ghost" }},
	{"stored hash", func(b *Block) { b.Hash[31] ^= 1 }},
	{"seal dropped or malformed", func(b *Block) {
		if len(b.Signature) > 0 {
			b.Signature = nil
		} else {
			b.Signature = []byte{1}
		}
	}},
}

// chunkEdges returns the first and last index of every chunk of verifyGrain
// blocks that Verify's goroutines claim: where one goroutine's blocks end
// and another's begin.
func chunkEdges(n int) []int {
	var edges []int
	for lo := 0; lo < n; lo += verifyGrain {
		edges = append(edges, lo)
		if last := min(lo+verifyGrain, n) - 1; last > lo {
			edges = append(edges, last)
		}
	}
	return edges
}

// TestVerifyMatchesSerialReference: whatever is tampered with, wherever —
// at the edges of the chunks the blocks are handed out in and at every
// seal, in one block or in two at once, with the stored hashes left alone
// or recomputed from the tampered block on — Verify returns the serial
// walk's error, to the letter, and so does the fan-out across the cores
// that longer chains get. tier1.sh runs it under -race at -cpu 1,2,4: the
// inline path, and two and four goroutines claiming the chunks in
// whatever order they get to them.
func TestVerifyMatchesSerialReference(t *testing.T) {
	// Chains that end a block before, at and a block after a chunk
	// boundary, with one chunk and with several, and one whose last chunk
	// is half full; batches of ten put seals all along them. (Short chains
	// keep the test affordable under the race detector, which slows
	// ed25519 tenfold.)
	const g = verifyGrain
	for _, n := range []int{0, 1, g - 1, g, g + 1, 63, 64, 65, 3*g + 7} {
		l := signedLedger(t, n)
		compare := func(what string) {
			t.Helper()
			want, got := errText(refVerify(l)), errText(l.Verify())
			if got != want {
				t.Fatalf("%d blocks, %s: Verify = %q, the serial walk = %q", n, what, got, want)
			}
			// These chains are too short for Verify to fan out, so it
			// checks them inline; check them across the cores too.
			l.mu.RLock()
			fanned := errText(l.verify(l.planBatches(), runtime.GOMAXPROCS(0)))
			l.mu.RUnlock()
			if fanned != want {
				t.Fatalf("%d blocks, %s: Verify across the cores = %q, the serial walk = %q", n, what, fanned, want)
			}
			if (what == "intact") != (want == "<nil>") {
				t.Fatalf("%d blocks, %s: the serial walk = %q", n, what, want)
			}
		}
		tamper := func(i, how int, rehashed bool) (undo func()) {
			saved := l.blocks.list()[i:]
			for k := range saved {
				saved[k].Signature = bytes.Clone(saved[k].Signature)
			}
			tamperings[how].apply(l.blocks.at(i))
			if rehashed {
				rehash(l, i)
			}
			return func() {
				for k, b := range saved {
					*l.blocks.at(i + k) = b
				}
			}
		}
		compare("intact")
		edges := chunkEdges(n)
		for i, b := range l.blocks.list() {
			if len(b.Signature) > 0 && !slices.Contains(edges, i) {
				edges = append(edges, i)
			}
		}
		slices.Sort(edges)
		for _, i := range edges {
			for how, m := range tamperings {
				for _, rehashed := range []bool{false, true} {
					if rehashed && m.name == "stored hash" {
						continue // recomputing the hash undoes it
					}
					undo := tamper(i, how, rehashed)
					compare(fmt.Sprintf("%s of block %d (rehashed %v)", m.name, i, rehashed))
					undo()
				}
			}
		}
		how := 0
		for a, i := range edges {
			for _, j := range edges[a+1:] {
				first, second := how%len(tamperings), (how/len(tamperings)+how)%len(tamperings)
				how++
				undoI, undoJ := tamper(i, first, false), tamper(j, second, false)
				compare(fmt.Sprintf("%s of block %d with %s of block %d", tamperings[first].name, i, tamperings[second].name, j))
				undoJ()
				undoI()
			}
		}
		compare("intact")
	}
}

// TestLowestFailureChecksEachIndexOnce is the "every block checked once
// per Verify" count: Verify hands lowestFailure checkBlock, which hashes
// its block once and checks a seal's signature once, so it is enough that
// lowestFailure calls its check once for every index of an intact range —
// no gaps, no overlaps, no sampling — never twice for any index, and on
// every index up to the lowest failure, whose error it returns.
func TestLowestFailureChecksEachIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, verifyGrain - 1, verifyGrain, verifyGrain + 1, 63, 64, 65, 1000, 4099} {
		for _, failing := range [][]int{nil, {0}, {n - 1}, {n / 2, n/2 + 1}, {n / 3, n - 1}, {n - 1, 0}} {
			fails := map[int]bool{}
			lowest := n
			for _, f := range failing {
				if f >= 0 && f < n {
					fails[f] = true
					lowest = min(lowest, f)
				}
			}
			visits := make([]atomic.Int32, n)
			err := lowestFailure(n, runtime.GOMAXPROCS(0), func(i int, _ *[]byte) error {
				visits[i].Add(1)
				if fails[i] {
					return fmt.Errorf("index %d", i)
				}
				return nil
			})
			want := "<nil>"
			if lowest < n {
				want = fmt.Sprintf("index %d", lowest)
			}
			if errText(err) != want {
				t.Fatalf("n=%d failing=%v: got %q, want %q", n, failing, errText(err), want)
			}
			for i := range visits {
				v := visits[i].Load()
				if v > 1 || (v == 0 && i <= lowest) {
					t.Fatalf("n=%d failing=%v: index %d checked %d times", n, failing, i, v)
				}
			}
		}
	}
}

// randomRecords draws records whose iterations come in runs of random
// length that repeat and go backwards, over sparse worker IDs.
func randomRecords(src *rng.Source, n int) []Record {
	kinds := []RecordKind{KindDetection, KindReputation, KindReward}
	workers := []int{0, 3, 17, 1000}
	recs := make([]Record, 0, n)
	for len(recs) < n {
		iter := src.Intn(6)
		for run := src.UniformInt(1, 8); run > 0 && len(recs) < n; run-- {
			recs = append(recs, Record{
				Kind:      kinds[src.Intn(len(kinds))],
				Iteration: iter,
				WorkerID:  workers[src.Intn(len(workers))],
				Value:     src.Float64(),
			})
		}
	}
	return recs
}

// TestQueryAuditMatchScanReference: the indexed look-ups return what a
// filter over the whole chain returns, in content and order, however the
// blocks entered the ledger.
func TestQueryAuditMatchScanReference(t *testing.T) {
	srv := []*Signer{signer("srv-0", 1), signer("srv-1", 2)}
	for _, how := range []string{"Append", "AppendBatch", "mixed", "ReadBinary"} {
		for seed := uint64(1); seed <= 4; seed++ {
			src := rng.New(seed)
			recs := randomRecords(src, src.UniformInt(0, 120))
			l := newTestLedger(t, srv...)
			for rest := recs; len(rest) > 0; {
				k := min(src.UniformInt(1, 20), len(rest))
				signers := make([]*Signer, k)
				for i := range signers {
					signers[i] = srv[src.Intn(len(srv))]
				}
				if how == "Append" || (how != "AppendBatch" && src.Intn(2) == 0) {
					k = 1
					mustAppend(t, l, signers[0], rest[0])
				} else if err := l.AppendBatch(signers, rest[:k]); err != nil {
					t.Fatal(err)
				}
				rest = rest[k:]
			}
			if how == "ReadBinary" {
				export, err := l.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				if l, err = ReadBinary(bytes.NewReader(export)); err != nil {
					t.Fatal(err)
				}
			}
			if l.Len() != len(recs) {
				t.Fatalf("%s seed %d: %d blocks for %d records", how, seed, l.Len(), len(recs))
			}
			for _, kind := range []RecordKind{"", KindDetection, KindReputation, KindReward, KindUpload} {
				for iter := -1; iter <= 6; iter++ {
					for _, w := range []int{-1, 0, 3, 5, 17, 1000} {
						label := fmt.Sprintf("%s seed %d (%q, %d, %d)", how, seed, kind, iter, w)
						want, got := refQuery(l, kind, iter, w), l.Query(kind, iter, w)
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s: Query returned %v, the scan %v", label, got, want)
						}
						recomputed := []float64{0.5, math.NaN()}
						if len(want) > 0 {
							recomputed = append(recomputed, want[len(want)-1].Value)
						}
						for _, v := range recomputed {
							wantWho, wantErr := refAudit(l, kind, iter, w, v, 1e-9)
							gotWho, gotErr := l.Audit(kind, iter, w, v, 1e-9)
							if gotWho != wantWho || errText(gotErr) != errText(wantErr) {
								t.Fatalf("%s: Audit(%v) = %q, %v; the scan = %q, %v", label, v, gotWho, gotErr, wantWho, wantErr)
							}
						}
					}
				}
			}
		}
	}
}

// unsignedLedger pushes n blocks with random records and made-up hashes
// and signatures: the export codec does not care, and it is cheap enough
// to cross WriteBinaryFrom's flush threshold many times.
func unsignedLedger(t testing.TB, src *rng.Source, n int) *Ledger {
	t.Helper()
	l := NewLedger()
	for _, name := range []string{"srv-1", "srv-0", "edge/α"} {
		pub := make([]byte, 32)
		pub[0] = byte(len(name))
		if err := l.RegisterExecutor(name, pub); err != nil {
			t.Fatal(err)
		}
	}
	for i, r := range randomRecords(src, n) {
		r.Executor = []string{"srv-0", "srv-1", "edge/α", ""}[src.Intn(4)]
		b := Block{Index: i, Record: r, Signature: make([]byte, src.Intn(3)*32)}
		for k := range b.Signature {
			b.Signature[k] = byte(src.Intn(256))
		}
		b.PrevHash[0], b.Hash[0] = byte(i), byte(i+1)
		l.push(b)
	}
	return l
}

// TestWriterMatchesBinaryWriteReference: WriteBinaryFrom and MarshalBinary
// produce the bytes the reflection-based writer produced, and fail where
// and as it failed.
func TestWriterMatchesBinaryWriteReference(t *testing.T) {
	check := func(label string, l *Ledger, from int) {
		t.Helper()
		var want, got bytes.Buffer
		wantErr, gotErr := refWriteBinaryFrom(binaryMagic, l, &want, from), l.WriteBinaryFrom(&got, from)
		if errText(gotErr) != errText(wantErr) {
			t.Fatalf("%s from %d: error %v, the reference's %v", label, from, gotErr, wantErr)
		}
		if wantErr == nil && !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%s from %d: %d export bytes differ from the reference's %d", label, from, got.Len(), want.Len())
		}
		if from != 0 {
			return
		}
		whole, err := l.MarshalBinary()
		if errText(err) != errText(wantErr) {
			t.Fatalf("%s: MarshalBinary error %v, the reference's %v", label, err, wantErr)
		}
		if wantErr == nil && (!bytes.Equal(whole, want.Bytes()) || cap(whole) != len(whole)) {
			t.Fatalf("%s: MarshalBinary gave %d bytes in a buffer of %d, the reference %d", label, len(whole), cap(whole), want.Len())
		}
	}
	for seed := uint64(1); seed <= 6; seed++ {
		src := rng.New(seed)
		n := []int{0, 1, 7, 300, 1000, 2500}[seed-1]
		l := unsignedLedger(t, src, n)
		for _, from := range []int{0, n / 3, n, n + 1, -1} {
			check(fmt.Sprintf("%d random blocks", n), l, from)
		}
	}
	signed, _ := buildLedger(t)
	check("signed ledger", signed, 0)

	// Fields past the u16 range fail with the reference's message.
	l := unsignedLedger(t, rng.New(9), 5)
	l.blocks.at(3).Record.Kind = RecordKind(strings.Repeat("k", math.MaxUint16+1))
	check("oversized kind", l, 0)
	l.blocks.at(3).Record.Kind = KindReward
	l.blocks.at(4).Signature = make([]byte, math.MaxUint16+1)
	check("oversized signature", l, 2)
	l = NewLedger()
	if err := l.RegisterExecutor(strings.Repeat("n", math.MaxUint16+1), make([]byte, 32)); err != nil {
		t.Fatal(err)
	}
	check("oversized executor name", l, 0)
}

// TestGoldenExportRoundTrips: the committed export of the scoring fixture
// verifies and is rewritten byte for byte.
func TestGoldenExportRoundTrips(t *testing.T) {
	golden, err := os.ReadFile("../score/testdata/golden_ledger.bin")
	if err != nil {
		t.Fatal(err)
	}
	l, err := ReadBinary(bytes.NewReader(golden))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Verify(); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := l.WriteBinary(&out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), golden) {
		t.Fatalf("golden export of %d bytes re-exports as %d different bytes", len(golden), out.Len())
	}
}

// records lists a ledger's (kind, iteration, worker, value, executor)
// tuples in chain order.
func records(l *Ledger) []Record {
	var out []Record
	_ = l.Scan("", func(r Record) error {
		out = append(out, r)
		return nil
	})
	return out
}

// TestSealedGoldenHoldsV1Records: the version 1 golden export, committed
// before sealed rounds and read by the version 1 reader, and the
// regenerated version 2 golden hold the same record tuples in the same
// order; each verifies under its own version's rule, and the shipped
// reader refuses the version 1 bytes, naming the version.
func TestSealedGoldenHoldsV1Records(t *testing.T) {
	v1, err := os.ReadFile("testdata/golden_ledger_v1.bin")
	if err != nil {
		t.Fatal(err)
	}
	old := NewLedger()
	err = refStreamExport(v1Magic, bytes.NewReader(v1), old.RegisterExecutor, func(b Block) error {
		old.push(b)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := refVerifyV1(old); err != nil {
		t.Fatalf("version 1 golden: %v", err)
	}
	v2, err := os.ReadFile("../score/testdata/golden_ledger.bin")
	if err != nil {
		t.Fatal(err)
	}
	sealed, err := ReadBinary(bytes.NewReader(v2))
	if err != nil {
		t.Fatal(err)
	}
	if err := sealed.Verify(); err != nil {
		t.Fatalf("version 2 golden: %v", err)
	}
	if got, want := records(sealed), records(old); len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("the version 2 golden holds %d records that differ from the version 1 golden's %d", len(got), len(want))
	}
	if _, err := ReadBinary(bytes.NewReader(v1)); err == nil || !strings.Contains(err.Error(), `"FIFLCHN1"`) {
		t.Fatalf("reading a version 1 export: %v, want an error naming the version", err)
	}
}

// TestSealedLedgerHoldsV1Records: the same (signer, record) pairs written
// by the version 1 per-record signer and by AppendBatch give ledgers that
// hold the same tuples and each verify under their own rule, with one
// signature per executor per batch instead of one per record; neither
// verifies under the other's rule.
func TestSealedLedgerHoldsV1Records(t *testing.T) {
	signers, recs := batchFixture(60)
	old := newTestLedger(t, signers[0], signers[1])
	sealed := newTestLedger(t, signers[0], signers[1])
	for lo := 0; lo < len(recs); lo += 20 {
		for i := lo; i < lo+20; i++ {
			refAppendV1(old, signers[i], recs[i])
		}
		if err := sealed.AppendBatch(signers[lo:lo+20], recs[lo:lo+20]); err != nil {
			t.Fatal(err)
		}
	}
	if err := refVerifyV1(old); err != nil {
		t.Fatal(err)
	}
	if err := sealed.Verify(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(records(sealed), records(old)) {
		t.Fatal("the sealed ledger's records differ from the version 1 ledger's")
	}
	seals := 0
	for _, b := range sealed.blocks.list() {
		if len(b.Signature) > 0 {
			seals++
		}
	}
	if seals != 2*3 {
		t.Fatalf("3 batches by 2 executors carry %d seals, want 6", seals)
	}
	if refVerifyV1(sealed) == nil || !errors.Is(old.Verify(), ErrTampered) {
		t.Fatal("a ledger verified under the other version's rule")
	}
}

// TestReaderMatchesBinaryReadReference: on intact, truncated and corrupted
// exports the parser streams the reference's blocks and keys and returns
// its error.
func TestReaderMatchesBinaryReadReference(t *testing.T) {
	export, err := unsignedLedger(t, rng.New(3), 40).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	inputs := [][]byte{export}
	for cut := 0; cut < len(export); cut += 3 {
		inputs = append(inputs, export[:cut])
	}
	src := rng.New(4)
	for i := 0; i < 200; i++ {
		bad := bytes.Clone(export)
		bad[src.Intn(len(bad))] ^= 1 << src.Intn(8)
		inputs = append(inputs, bad)
	}
	for _, in := range inputs {
		if msg := diffReaders(in); msg != "" {
			t.Fatal(msg)
		}
	}
}

// diffReaders runs the export parser and its reference over in and
// describes the first difference in what they stream, or returns "".
func diffReaders(in []byte) string {
	type parsed struct {
		keys   []string
		blocks []Block
		err    string
	}
	parse := func(stream func(io.Reader, func(string, ed25519.PublicKey) error, func(Block) error) error) parsed {
		var p parsed
		p.err = errText(stream(bytes.NewReader(in),
			func(name string, pub ed25519.PublicKey) error {
				p.keys = append(p.keys, name+"="+string(pub))
				return nil
			},
			func(b Block) error {
				p.blocks = append(p.blocks, b)
				return nil
			}))
		return p
	}
	want := parse(func(r io.Reader, keyFn func(string, ed25519.PublicKey) error, fn func(Block) error) error {
		return refStreamExport(binaryMagic, r, keyFn, fn)
	})
	got := parse(streamExport)
	if head := len(binaryMagic); len(in) >= head && string(in[:head-1]) == binaryMagic[:head-1] && string(in[:head]) != binaryMagic {
		// Another version of the format: the reference knows one version
		// and calls the header bad, the parser names the version.
		want.err = fmt.Sprintf("chain: export version %q is not %q, the only one this build reads", in[:head], binaryMagic)
	}
	switch {
	case got.err != want.err:
		return fmt.Sprintf("parser error %q, the reference's %q", got.err, want.err)
	case !reflect.DeepEqual(got.keys, want.keys):
		return fmt.Sprintf("parser streamed keys %q, the reference %q", got.keys, want.keys)
	case !reflect.DeepEqual(got.blocks, want.blocks):
		return fmt.Sprintf("parser streamed %d blocks that differ from the reference's %d", len(got.blocks), len(want.blocks))
	}
	return ""
}

// TestConcurrentReadersAndAppender runs the four lock-sharing paths at
// once for the race detector: batches entering the store and its index
// while Verify fans out over it and look-ups and exports read it.
func TestConcurrentReadersAndAppender(t *testing.T) {
	const (
		workers = 8
		rounds  = 24
	)
	srv := []*Signer{signer("srv-0", 1), signer("srv-1", 2)}
	l := newTestLedger(t, srv...)
	kinds := []RecordKind{KindUpload, KindDetection, KindReputation, KindContribution, KindReward}
	var (
		wg       sync.WaitGroup
		appended atomic.Int32 // rounds fully in the ledger
	)
	reader := func(read func(round int) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				done := int(appended.Load())
				if err := read(done); err != nil {
					t.Error(err)
					return
				}
				if done == rounds {
					return
				}
				runtime.Gosched()
			}
		}()
	}
	reader(func(int) error { return l.Verify() })
	reader(func(done int) error {
		if done == 0 {
			return nil
		}
		it, w := (done*7/3)%done, (done*5)%workers
		if recs := l.Query(KindReward, it, w); len(recs) != 1 || recs[0].Iteration != it || recs[0].WorkerID != w {
			return fmt.Errorf("Query(reward, %d, %d) with %d rounds in = %v", it, w, done, recs)
		}
		if _, err := l.Audit(KindReputation, it, w, 0, math.MaxFloat64); err != nil {
			return err
		}
		return nil
	})
	reader(func(done int) error {
		from := done * len(kinds) * workers / 2
		var buf bytes.Buffer
		if err := l.WriteBinaryFrom(&buf, from); err != nil {
			return err
		}
		n := 0
		if err := StreamBinary(&buf, func(Block) error { n++; return nil }); err != nil {
			return err
		}
		if n < done*len(kinds)*workers-from {
			return fmt.Errorf("suffix export from %d carries %d blocks with %d rounds in", from, n, done)
		}
		return nil
	})
	for r := 0; r < rounds; r++ {
		var signers []*Signer
		var recs []Record
		for _, k := range kinds {
			for w := 0; w < workers; w++ {
				signers = append(signers, srv[w%2])
				recs = append(recs, Record{Kind: k, Iteration: r, WorkerID: w, Value: float64(r)})
			}
		}
		if err := l.AppendBatch(signers, recs); err != nil {
			t.Error(err)
			appended.Store(rounds) // lets the readers finish
			break
		}
		appended.Add(1)
	}
	wg.Wait()
	if err := l.Verify(); err != nil {
		t.Fatal(err)
	}
}
