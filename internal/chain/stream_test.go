package chain

import (
	"bytes"
	"crypto/ed25519"
	"fmt"
	"math"
	"runtime"
	"testing"
)

// TestStreamBinaryMatchesReadBinary: streaming an export must visit
// exactly the blocks ReadBinary materializes, in order, bit for bit.
func TestStreamBinaryMatchesReadBinary(t *testing.T) {
	l, signers := buildLedger(t)
	var batch []*Signer
	var recs []Record
	for i := 0; i < 40; i++ {
		batch = append(batch, signers[i%2])
		recs = append(recs, Record{Kind: KindReward, Iteration: i / 4, WorkerID: i % 4, Value: float64(i) / 7})
	}
	if err := l.AppendBatch(batch, recs); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := l.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	read, err := ReadBinary(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]ed25519.PublicKey{}
	var streamed []Block
	err = StreamBinaryKeys(bytes.NewReader(buf.Bytes()),
		func(name string, pub ed25519.PublicKey) error {
			keys[name] = pub
			return nil
		},
		func(b Block) error {
			streamed = append(streamed, b)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 2 {
		t.Fatalf("streamed %d executor keys, want 2", len(keys))
	}
	if len(streamed) != read.Len() {
		t.Fatalf("streamed %d blocks, ReadBinary sees %d", len(streamed), read.Len())
	}
	for i, sb := range streamed {
		rb, err := read.Block(i)
		if err != nil {
			t.Fatal(err)
		}
		if sb.Index != rb.Index || sb.Hash != rb.Hash || sb.PrevHash != rb.PrevHash ||
			sb.Record != rb.Record || !bytes.Equal(sb.Signature, rb.Signature) {
			t.Fatalf("block %d differs between StreamBinary and ReadBinary", i)
		}
	}
	// The streamed key table and blocks are all it takes to verify the
	// chain, seals included.
	rebuilt := NewLedger()
	for name, pub := range keys {
		if err := rebuilt.RegisterExecutor(name, pub); err != nil {
			t.Fatal(err)
		}
	}
	for _, b := range streamed {
		rebuilt.push(b)
	}
	if err := rebuilt.Verify(); err != nil {
		t.Fatalf("the streamed keys and blocks do not verify: %v", err)
	}
}

// TestStreamBinaryEarlyStop: ErrStop from the callback ends the stream
// without error.
func TestStreamBinaryEarlyStop(t *testing.T) {
	l, signers := buildLedger(t)
	for i := 0; i < 10; i++ {
		if _, err := l.Append(signers[0], Record{Kind: KindDetection, Iteration: i, WorkerID: 0, Value: 1}); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := l.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	seen := 0
	err := StreamBinary(&buf, func(b Block) error {
		seen++
		if seen == 3 {
			return ErrStop
		}
		return nil
	})
	if err != nil {
		t.Fatalf("early stop must not be an error, got %v", err)
	}
	if seen != 3 {
		t.Fatalf("callback ran %d times after ErrStop at 3", seen)
	}
}

// TestStreamBinaryCorruptFrames: truncations and corruptions at every
// structural boundary must surface as errors, never panics or silent
// short reads.
func TestStreamBinaryCorruptFrames(t *testing.T) {
	l, signers := buildLedger(t)
	for i := 0; i < 5; i++ {
		if _, err := l.Append(signers[i%2], Record{Kind: KindReputation, Iteration: i, WorkerID: i, Value: 0.5}); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := l.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	count := func(b []byte) (int, error) {
		n := 0
		err := StreamBinary(bytes.NewReader(b), func(Block) error { n++; return nil })
		return n, err
	}

	// Truncation at every prefix length must error (except the degenerate
	// full length).
	for cut := 0; cut < len(good); cut += 7 {
		if _, err := count(good[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes streamed without error", cut)
		}
	}
	// Bad magic.
	bad := append([]byte(nil), good...)
	bad[0] ^= 0xff
	if _, err := count(bad); err == nil {
		t.Fatal("corrupt magic streamed without error")
	}
	// Oversized trailing field: the last block's signature length prefix
	// (2 bytes before the 64-byte signature) inflated past the remaining
	// payload must fail the read, not wrap or truncate.
	bad = append([]byte(nil), good...)
	bad[len(bad)-ed25519.SignatureSize-2] = 0xff
	if _, err := count(bad); err == nil {
		t.Fatal("oversized trailing field streamed without error")
	}
	// A suffix export streams its own blocks contiguously...
	var part2 bytes.Buffer
	if err := l.WriteBinaryFrom(&part2, 3); err != nil {
		t.Fatal(err)
	}
	if n, err := count(part2.Bytes()); err != nil || n != l.Len()-3 {
		t.Fatalf("suffix export: got %d blocks, err %v; want %d, nil", n, err, l.Len()-3)
	}
	// ...but an index gap inside a stream (a forged splice) must be
	// rejected: forge a chain whose stored indices skip one.
	forged := NewLedger()
	var pub [ed25519.PublicKeySize]byte
	if err := forged.RegisterExecutor("x", pub[:]); err != nil {
		t.Fatal(err)
	}
	for _, idx := range []int{0, 1, 3} {
		forged.blocks.add(Block{
			Index:     idx,
			Record:    Record{Kind: KindUpload, Executor: "x"},
			Signature: make([]byte, ed25519.SignatureSize),
		})
	}
	var gapBuf bytes.Buffer
	// Bypass WriteBinaryFrom's by-position slicing: write the raw frames.
	if err := forged.WriteBinary(&gapBuf); err != nil {
		t.Fatal(err)
	}
	if _, err := count(gapBuf.Bytes()); err == nil {
		t.Fatal("index gap streamed without error")
	}
}

// TestReadBinaryRejectsPartialExport: a suffix export reconstructs a
// chain with a hole, so the materializing reader must refuse it.
func TestReadBinaryRejectsPartialExport(t *testing.T) {
	l, signers := buildLedger(t)
	for i := 0; i < 4; i++ {
		if _, err := l.Append(signers[0], Record{Kind: KindUpload, Iteration: i, WorkerID: 0, Value: 0}); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := l.WriteBinaryFrom(&buf, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBinary(&buf); err == nil {
		t.Fatal("ReadBinary accepted a partial export")
	}
	if err := l.WriteBinaryFrom(&buf, 99); err == nil {
		t.Fatal("WriteBinaryFrom accepted an out-of-range offset")
	}
}

// syntheticExport builds an export of n blocks without paying for real
// signatures — StreamBinary does not verify, and the memory test below
// needs six-figure chains cheaply.
func syntheticExport(t testing.TB, n int) []byte {
	t.Helper()
	l := NewLedger()
	var pub [ed25519.PublicKeySize]byte
	if err := l.RegisterExecutor("device-000", pub[:]); err != nil {
		t.Fatal(err)
	}
	sig := make([]byte, ed25519.SignatureSize)
	var prev [32]byte
	for i := 0; i < n; i++ {
		b := Block{
			Index:    i,
			PrevHash: prev,
			Record: Record{
				Kind:      KindReward,
				Iteration: i / 5,
				WorkerID:  i % 5,
				Value:     float64(i) * 1e-3,
				Executor:  "device-000",
			},
			Signature: sig,
		}
		b.Hash[0] = byte(i)
		prev = b.Hash
		l.blocks.add(b)
	}
	var buf bytes.Buffer
	if err := l.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// liveHeap forces a collection and reports the live heap.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestStreamBinaryConstantMemory is the O(1)-space guarantee behind
// fifl-score: folding a 100k-record export must not materialize the
// chain. The callback samples the live heap mid-stream (everything
// already streamed is garbage by then); the delta over the pre-stream
// baseline must stay far below both the export size and what ReadBinary
// would hold live, and must not grow when the ledger doubles.
func TestStreamBinaryConstantMemory(t *testing.T) {
	peak := func(blocks int) uint64 {
		export := syntheticExport(t, blocks)
		base := liveHeap()
		var maxDelta uint64
		seen := 0
		err := StreamBinary(bytes.NewReader(export), func(Block) error {
			seen++
			if seen%(blocks/4) == 0 {
				if h := liveHeap(); h > base && h-base > maxDelta {
					maxDelta = h - base
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if seen != blocks {
			t.Fatalf("streamed %d blocks, want %d", seen, blocks)
		}
		return maxDelta
	}

	const blocks = 100_000
	export := syntheticExport(t, blocks)
	delta := peak(blocks)
	if max := uint64(len(export)) / 4; delta > max {
		t.Fatalf("streaming %d blocks held %d live bytes, want < %d (export is %d bytes)",
			blocks, delta, max, len(export))
	}
	// Doubling the ledger must not move the streaming footprint: the small
	// fixed slack absorbs GC jitter, not growth.
	delta2 := peak(2 * blocks)
	if delta2 > delta+1<<20 {
		t.Fatalf("streaming footprint grew with ledger length: %d bytes at %d blocks vs %d at %d",
			delta2, 2*blocks, delta, blocks)
	}
}

// TestScanZeroAllocs: the iterator must not allocate per call or per
// record, whatever the chain length.
func TestScanZeroAllocs(t *testing.T) {
	l, signers := buildLedger(t)
	for i := 0; i < 200; i++ {
		if _, err := l.Append(signers[i%2], Record{Kind: KindReward, Iteration: i, WorkerID: i % 8, Value: 1}); err != nil {
			t.Fatal(err)
		}
	}
	var sum float64
	allocs := testing.AllocsPerRun(20, func() {
		_ = l.Scan(KindReward, func(r Record) error {
			sum += r.Value
			return nil
		})
	})
	if allocs != 0 {
		t.Fatalf("Scan allocated %v times per run, want 0", allocs)
	}
	if sum == 0 {
		t.Fatal("scan callback never ran")
	}
}

// TestScanFiltersAndStops: kind filtering, full-chain order and ErrStop.
func TestScanFiltersAndStops(t *testing.T) {
	l, signers := buildLedger(t)
	for i := 0; i < 6; i++ {
		kind := KindDetection
		if i%2 == 1 {
			kind = KindReward
		}
		if _, err := l.Append(signers[0], Record{Kind: kind, Iteration: i, WorkerID: 0, Value: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	var got []float64
	if err := l.Scan(KindReward, func(r Record) error {
		got = append(got, r.Value)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[1 3 5]" {
		t.Fatalf("kind-filtered scan saw %v", got)
	}
	n := 0
	if err := l.Scan("", func(Record) error {
		n++
		if n == 2 {
			return ErrStop
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("scan ran %d callbacks after ErrStop at 2", n)
	}
	wantErr := fmt.Errorf("boom")
	if err := l.Scan("", func(Record) error { return wantErr }); err != wantErr {
		t.Fatalf("scan returned %v, want the callback's error", err)
	}
	// Query must agree with a hand-rolled Scan on every filter combination.
	q := l.Query(KindDetection, -1, 0)
	if len(q) != 3 {
		t.Fatalf("Query returned %d detection records, want 3", len(q))
	}
	if math.IsNaN(q[0].Value) {
		t.Fatal("unexpected NaN")
	}
}
