package chain

import (
	"bytes"
	"runtime"
	"testing"
)

// batchFixture builds n (signer, record) pairs in the 5-records-per-worker
// shape the coordinator's Record stage writes each round.
func batchFixture(n int) ([]*Signer, []Record) {
	srv := []*Signer{signer("srv-0", 1), signer("srv-1", 2)}
	signers := make([]*Signer, 0, n)
	recs := make([]Record, 0, n)
	kinds := []RecordKind{KindUpload, KindDetection, KindReputation, KindContribution, KindReward}
	for i := 0; i < n; i++ {
		signers = append(signers, srv[i%len(srv)])
		recs = append(recs, Record{
			Kind:      kinds[i%len(kinds)],
			Iteration: i / 5,
			WorkerID:  i % 7,
			Value:     float64(i) * 0.25,
		})
	}
	return signers, recs
}

func TestAppendBatchMatchesSequential(t *testing.T) {
	signers, recs := batchFixture(40)
	batched := newTestLedger(t, signers[0], signers[1])
	serial := newTestLedger(t, signers[0], signers[1])

	if err := batched.AppendBatch(signers, recs); err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		if _, err := serial.Append(signers[i], recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := batched.Verify(); err != nil {
		t.Fatalf("batched ledger Verify: %v", err)
	}
	var a, b bytes.Buffer
	if err := batched.WriteBinary(&a); err != nil {
		t.Fatal(err)
	}
	if err := serial.WriteBinary(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("AppendBatch chain bytes differ from one-at-a-time Append")
	}
}

func TestAppendBatchFailureLeavesLedgerUntouched(t *testing.T) {
	signers, recs := batchFixture(10)
	l := newTestLedger(t, signers[0], signers[1])
	bad := append(append([]*Signer(nil), signers...), signer("ghost", 9))
	badRecs := append(append([]Record(nil), recs...), Record{Kind: KindReward})
	if err := l.AppendBatch(bad, badRecs); err == nil {
		t.Fatal("batch with an unregistered signer must fail")
	}
	if l.Len() != 0 {
		t.Fatalf("failed batch wrote %d blocks, want 0", l.Len())
	}
	if err := l.AppendBatch(signers[:5], recs[:4]); err == nil {
		t.Fatal("mismatched signers/records lengths must fail")
	}
	if err := l.AppendBatch([]*Signer{nil}, recs[:1]); err == nil {
		t.Fatal("nil signer must fail")
	}
	if l.Len() != 0 {
		t.Fatalf("failed batches wrote %d blocks, want 0", l.Len())
	}
}

// TestAppendBatchSteadyStateAllocs pins the batched signing pass's
// allocation budget, in objects and in bytes: with the signing scratch
// warm, each appended block costs only what it must retain — the
// signature ed25519.Sign returns plus its slot in the geometrically grown
// store — independent of lock round-trips and of the chain's height. The
// budgets are per record; regressions that reintroduce per-record growth,
// per-record buffer churn or a store recopied per batch trip them
// immediately.
func TestAppendBatchSteadyStateAllocs(t *testing.T) {
	const n = 200
	signers, recs := batchFixture(n)
	l := newTestLedger(t, signers[0], signers[1])
	// Warm-up: grows the scratch buffer once.
	if err := l.AppendBatch(signers, recs); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(5, func() {
		if err := l.AppendBatch(signers, recs); err != nil {
			t.Fatal(err)
		}
	})
	// At most one store growth per batch (amortised, far fewer) plus
	// per-record signature material. ed25519.Sign allocates the 64-byte
	// signature (1 alloc); everything else is reused. Allow 4/record of
	// headroom for the runtime.
	budget := float64(1 + 4*n)
	if avg > budget {
		t.Fatalf("AppendBatch of %d records allocates %.0f objects, budget %.0f", n, avg, budget)
	}

	// Bytes, on tall ledgers. A store that grows by a quarter at a time
	// allocates five blocks' worth for every block appended (about 800 B),
	// beside the 64 B signature; a store recopied per batch allocates the
	// whole height each time (7.6 KB a record at 50,000 blocks, twice that
	// at 100,000). The 20,000 records appended at each height see at most
	// one growth step, which they are enough to amortise.
	const (
		batch          = 1000
		batches        = 20
		bytesPerRecord = 2048
	)
	signers, recs = batchFixture(batch)
	for _, height := range []int{50_000, 100_000} {
		l := newTestLedger(t, signers[0], signers[1])
		for i := 0; i < height; i++ { // unsigned filler: only the height matters
			l.push(Block{Index: i})
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < batches; i++ {
			if err := l.AppendBatch(signers, recs); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		got := (after.TotalAlloc - before.TotalAlloc) / (batch * batches)
		t.Logf("height %d: %d B a record", height, got)
		if got > bytesPerRecord {
			t.Fatalf("at height %d AppendBatch allocates %d B a record, budget %d", height, got, bytesPerRecord)
		}
	}
}

// BenchmarkAppend measures the per-record cost of the two append paths at
// the coordinator's 5n-records-per-round shape; the batch path's delta is
// what unblocked the large-n shard sweeps.
func BenchmarkAppend(b *testing.B) {
	const n = 5 * 64
	signers, recs := batchFixture(n)

	b.Run("sequential", func(b *testing.B) {
		l := NewLedger()
		_ = l.RegisterExecutor(signers[0].Name, signers[0].Public())
		_ = l.RegisterExecutor(signers[1].Name, signers[1].Public())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := range recs {
				if _, err := l.Append(signers[j], recs[j]); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("batched", func(b *testing.B) {
		l := NewLedger()
		_ = l.RegisterExecutor(signers[0].Name, signers[0].Public())
		_ = l.RegisterExecutor(signers[1].Name, signers[1].Public())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := l.AppendBatch(signers, recs); err != nil {
				b.Fatal(err)
			}
		}
	})
}
