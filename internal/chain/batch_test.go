package chain

import (
	"reflect"
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

// TestAppendBatchMatchesSequential: a batch and the same (signer, record)
// pairs appended one Append at a time hold the same record tuples in the
// same order, and both verify. Their bytes differ: the batch carries one
// seal per executor, the one-at-a-time ledger one per record.
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
	if err := serial.Verify(); err != nil {
		t.Fatalf("one-at-a-time ledger Verify: %v", err)
	}
	if got, want := records(batched), records(serial); len(got) != len(recs) || !reflect.DeepEqual(got, want) {
		t.Fatal("AppendBatch records differ from one-at-a-time Append")
	}
	if got := len(seals(batched)); got != 2 {
		t.Fatalf("a batch by two executors carries %d seals, want 2", got)
	}
	if got := len(seals(serial)); got != len(recs) {
		t.Fatalf("%d lone appends carry %d seals", len(recs), got)
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

// TestAppendBatchSteadyStateAllocs pins the batched sealing pass's
// allocation budget, in objects and in bytes: with the hashing scratch and
// the executors' Merkle leaves warm, each appended block costs only what
// it must retain — its slot in the geometrically grown store and the
// iteration index — and each seal the signature ed25519.Sign returns,
// independent of lock round-trips and of the chain's height. Regressions
// that reintroduce per-record signatures, per-record growth, per-record
// buffer churn or a store recopied per batch trip them immediately.
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
	// A batch by two executors is two seals, and ed25519.Sign allocates
	// each one's 64-byte signature; the rest is the store's chunks and the
	// iteration index's amortised growth, 19 objects a batch in all. The
	// budget keeps the headroom ratio of the per-record signing it
	// replaced (801 objects against 217 measured, 3.7x).
	const budget = 70.0
	if avg > budget {
		t.Fatalf("AppendBatch of %d records allocates %.0f objects, budget %.0f", n, avg, budget)
	}

	// Bytes, on tall ledgers. The store allocates each block once, in its
	// chunk, whatever the height: 183 B a record at 50,000 and at 100,000
	// blocks, the 152-byte block and the seals. A store that grew by a
	// quarter at a time allocated five blocks' worth for every block
	// appended (1,175 B a record at 50,000 blocks), a store recopied per
	// batch the whole height each time (7.6 KB a record at 50,000 blocks,
	// twice that at 100,000). The budget keeps the 1.66x headroom ratio of
	// the earlier budgets (2,048 B against 1,233 measured).
	const (
		batch          = 1000
		batches        = 20
		bytesPerRecord = 304
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
