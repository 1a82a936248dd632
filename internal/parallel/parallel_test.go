package parallel

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestForCoversAllIndices(t *testing.T) {
	for _, n := range []int{0, 1, 7, 63, 64, 65, 1000} {
		hits := make([]int32, n)
		For(n, func(i int) { atomic.AddInt32(&hits[i], 1) })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, h)
			}
		}
	}
}

func TestForChunkedPartition(t *testing.T) {
	for _, n := range []int{1, 63, 64, 100, 1025} {
		var mu sync.Mutex
		var ranges [][2]int
		ForChunked(n, func(lo, hi int) {
			mu.Lock()
			ranges = append(ranges, [2]int{lo, hi})
			mu.Unlock()
		})
		covered := make([]bool, n)
		for _, r := range ranges {
			if r[0] < 0 || r[1] > n || r[0] >= r[1] {
				t.Fatalf("n=%d: bad chunk %v", n, r)
			}
			for i := r[0]; i < r[1]; i++ {
				if covered[i] {
					t.Fatalf("n=%d: index %d covered twice", n, i)
				}
				covered[i] = true
			}
		}
		for i, c := range covered {
			if !c {
				t.Fatalf("n=%d: index %d never covered", n, i)
			}
		}
	}
}

func TestForChunkedZeroAndNegative(t *testing.T) {
	called := false
	ForChunked(0, func(lo, hi int) { called = true })
	ForChunked(-5, func(lo, hi int) { called = true })
	if called {
		t.Fatal("body must not run for n <= 0")
	}
}

func TestDo(t *testing.T) {
	var a, b int32
	Do(
		func() { atomic.StoreInt32(&a, 1) },
		func() { atomic.StoreInt32(&b, 2) },
	)
	if a != 1 || b != 2 {
		t.Fatal("Do did not run all functions")
	}
}

func TestDoEmpty(t *testing.T) {
	Do() // must not hang or panic
}

// TestForChunksMatchesForChunked: ForChunks hands chunk c the c-th range
// of ForChunked's partition, for c in [0, NumChunks(n)).
func TestForChunksMatchesForChunked(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 100, 1025} {
		var mu sync.Mutex
		want := map[[2]int]bool{}
		ForChunked(n, func(lo, hi int) {
			mu.Lock()
			want[[2]int{lo, hi}] = true
			mu.Unlock()
		})
		got := make([][2]int, NumChunks(n))
		ForChunks(n, func(c, lo, hi int) { got[c] = [2]int{lo, hi} })
		if len(got) != len(want) {
			t.Fatalf("n=%d: %d chunks, ForChunked ran %d", n, len(got), len(want))
		}
		for c, r := range got {
			if !want[r] || (c > 0 && r[0] != got[c-1][1]) {
				t.Fatalf("n=%d: chunk %d is %v, not the next range of %v", n, c, r, want)
			}
		}
	}
}
