package chain

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"
)

// truncate drops the blocks from n on, as a forger cutting the chain short
// would; the iteration index is left as it was.
func (s *blockStore) truncate(n int) {
	blocks := s.list()[:n]
	*s = blockStore{}
	for _, b := range blocks {
		s.add(b)
	}
}

// TestStoreAcrossChunks: a ledger several chunks long, written in batches
// whose edges fall on neither side of a chunk edge, hands back every block
// by index, in one list, in any span and through Query; it verifies inline
// and across the cores, and an export of it reads back block for block.
func TestStoreAcrossChunks(t *testing.T) {
	n := 3*chunkLen + 7
	signers, recs := batchFixture(n)
	l := newTestLedger(t, signers[0], signers[1])
	for lo := 0; lo < n; lo += 300 {
		hi := min(lo+300, n)
		if err := l.AppendBatch(signers[lo:hi], recs[lo:hi]); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(l.blocks.chunks); got != 4 {
		t.Fatalf("%d blocks in %d chunks, want 4", n, got)
	}
	list := l.blocks.list()
	if len(list) != n || l.Len() != n {
		t.Fatalf("list holds %d blocks and Len is %d, want %d", len(list), l.Len(), n)
	}
	for i := range n {
		b, err := l.Block(i)
		if err != nil {
			t.Fatal(err)
		}
		want := recs[i]
		want.Executor = signers[i].Name
		if b.Index != i || b.Record != want || !reflect.DeepEqual(b, list[i]) {
			t.Fatalf("block %d = %+v, want index %d and record %+v, as listed", i, b, i, want)
		}
	}
	for _, r := range [][2]int{{0, n}, {chunkLen - 1, chunkLen + 1}, {chunkLen, 2 * chunkLen}, {5, n - 1}} {
		var got []Block
		for lo := r[0]; lo < r[1]; {
			bs := l.blocks.span(lo, r[1])
			got = append(got, bs...)
			lo += len(bs)
		}
		if !reflect.DeepEqual(got, list[r[0]:r[1]]) {
			t.Fatalf("the spans of [%d,%d) hold %d blocks that differ from the list's", r[0], r[1], len(got))
		}
	}
	// batchFixture gives each iteration five consecutive records, so some
	// iterations straddle a chunk edge.
	for it := 0; 5*it < n; it++ {
		got := l.Query("", it, -1)
		for k, r := range got {
			if r != list[5*it+k].Record {
				t.Fatalf("Query(iteration %d) record %d = %+v, want %+v", it, k, r, list[5*it+k].Record)
			}
		}
		if want := min(5, n-5*it); len(got) != want {
			t.Fatalf("Query(iteration %d) returned %d records, want %d", it, len(got), want)
		}
	}
	if err := l.Verify(); err != nil {
		t.Fatal(err)
	}
	l.mu.RLock()
	err := l.verify(l.planBatches(), runtime.GOMAXPROCS(0))
	l.mu.RUnlock()
	if err != nil {
		t.Fatalf("Verify across the cores: %v", err)
	}
	export, err := l.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ReadBinary(bytes.NewReader(export))
	if err != nil {
		t.Fatal(err)
	}
	got := back.blocks.list()
	if len(got) != n {
		t.Fatalf("the export read back holds %d blocks, want %d", len(got), n)
	}
	for i, b := range got {
		// The reader gives an unsealed block an empty signature, not nil.
		w := list[i]
		if b.Index != w.Index || b.PrevHash != w.PrevHash || b.Record != w.Record || b.Hash != w.Hash || !bytes.Equal(b.Signature, w.Signature) {
			t.Fatalf("block %d read back as %+v, want %+v", i, b, w)
		}
	}
}

// TestWorkerTagsNarrowNotFilter: every block's tag is its worker's, across
// chunk edges, and a look-up still filters on the record itself, so two
// workers that share a tag never see each other's records.
func TestWorkerTagsNarrowNotFilter(t *testing.T) {
	a, b := 0, 1
	for tagOf(b) != tagOf(a) {
		b++
	}
	workers := []int{a, b, a + 1, -1}
	n := 2*chunkLen + 13
	signers, recs := batchFixture(n)
	for i := range recs {
		recs[i].WorkerID = workers[i%len(workers)]
	}
	l := newTestLedger(t, signers[0], signers[1])
	for lo := 0; lo < n; lo += 700 {
		hi := min(lo+700, n)
		if err := l.AppendBatch(signers[lo:hi], recs[lo:hi]); err != nil {
			t.Fatal(err)
		}
	}
	for lo := 0; lo < n; {
		tags := l.blocks.tagSpan(lo, n)
		for k, tag := range tags {
			if want := tagOf(l.blocks.at(lo + k).Record.WorkerID); tag != want {
				t.Fatalf("block %d tagged %d, want %d", lo+k, tag, want)
			}
		}
		lo += len(tags)
	}
	list := l.blocks.list()
	for it := 0; 5*it < n; it++ {
		for _, w := range workers {
			var want []Record
			for _, r := range list[5*it : min(5*it+5, n)] {
				if w < 0 || r.Record.WorkerID == w {
					want = append(want, r.Record)
				}
			}
			if got := l.Query("", it, w); !reflect.DeepEqual(got, want) {
				t.Fatalf("Query(iteration %d, worker %d) = %+v, want %+v", it, w, got, want)
			}
		}
	}
	last := recs[len(recs)-1]
	for _, w := range []int{a, b} {
		r := l.Query(last.Kind, -1, w)
		if len(r) == 0 {
			t.Fatalf("no %s record for worker %d", last.Kind, w)
		}
		if culprit, err := l.Audit(last.Kind, r[len(r)-1].Iteration, w, r[len(r)-1].Value, 0); err != nil || culprit != "" {
			t.Fatalf("Audit of worker %d's own record: culprit %q, %v", w, culprit, err)
		}
	}
}
