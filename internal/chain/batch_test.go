package chain

import (
	"bytes"
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
// allocation budget: with the block store pre-grown and the signing
// scratch warm, each appended block costs only what it must retain — the
// signature ed25519.Sign returns plus the record's payload copy in the
// grown store — independent of lock round-trips. The budget is per
// record; regressions that reintroduce per-record growth or per-record
// buffer churn trip it immediately.
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
	// One store-growth copy per batch plus per-record signature material.
	// ed25519.Sign allocates the 64-byte signature (1 alloc); everything
	// else is reused. Allow 4/record of headroom for the runtime.
	budget := float64(1 + 4*n)
	if avg > budget {
		t.Fatalf("AppendBatch of %d records allocates %.0f objects, budget %.0f", n, avg, budget)
	}
}

// BenchmarkAppend measures the per-record cost of the two append paths at
// the coordinator's 5n-records-per-round shape; the batch path's delta is
// what unblocked the large-n shard sweeps (BenchmarkShardRound).
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
