// Package parallel provides small helpers for data-parallel loops.
//
// The tensor kernels and the federated-learning round loop both fan work
// out across CPU cores. Rather than sprinkling ad-hoc goroutine/WaitGroup
// code through every kernel, this package centralizes a bounded parallel-for
// with deterministic work partitioning: the index space is split into
// contiguous chunks, one per goroutine, so results never depend on
// scheduling order.
package parallel

import (
	"runtime"
	"sync"
)

// maxProcs reports the degree of parallelism to use; it honours
// GOMAXPROCS so tests can pin it.
func maxProcs() int { return runtime.GOMAXPROCS(0) }

// For runs body(i) for every i in [0,n), fanning out across at most
// GOMAXPROCS goroutines. The index space is split into contiguous chunks so
// each goroutine touches a disjoint range; body must not assume any
// ordering between chunks. For small n the loop runs inline to avoid
// goroutine overhead.
func For(n int, body func(i int)) {
	ForChunked(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			body(i)
		}
	})
}

// ForChunked runs body(lo,hi) over a partition of [0,n) into contiguous
// half-open chunks, one chunk per goroutine. It is the building block for
// kernels that want per-chunk setup (e.g. scratch buffers).
func ForChunked(n int, body func(lo, hi int)) {
	forRanges(n, chunkLen(n), body)
}

// ForChunks is ForChunked passing each chunk's index c in [0,
// NumChunks(n)) as well, for kernels that keep one partial result per
// chunk and merge the partials in chunk order afterwards — a merge that,
// unlike one in goroutine finishing order, gives the same bits on every
// run.
func ForChunks(n int, body func(c, lo, hi int)) {
	chunk := chunkLen(n)
	forRanges(n, chunk, func(lo, hi int) { body(lo/chunk, lo, hi) })
}

// NumChunks reports how many chunks ForChunks splits [0,n) into at the
// current GOMAXPROCS.
func NumChunks(n int) int {
	if n <= 0 {
		return 0
	}
	c := chunkLen(n)
	return (n + c - 1) / c
}

// chunkLen is the chunk length ForChunked and ForChunks split [0,n) into:
// n itself — one chunk, run inline — for small n or a single core.
func chunkLen(n int) int {
	p := min(maxProcs(), n)
	if p <= 1 || n < 64 {
		return n
	}
	return (n + p - 1) / p
}

// forRanges runs body over [0,n) in chunks of the given length, inline
// when one chunk covers it, else one goroutine a chunk.
func forRanges(n, chunk int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if chunk >= n {
		body(0, n)
		return
	}
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			body(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// Each runs body(i) for every i in [0,n), each on its own goroutine, and
// waits for all of them. Unlike ForChunked, no index waits behind another,
// so a slow body delays only itself — the right shape for heterogeneous
// tasks like federated workers, including workers that coordinate with
// each other within a round (colluding attackers).
func Each(n int, body func(i int)) {
	if n <= 0 {
		return
	}
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			body(i)
		}(i)
	}
	wg.Wait()
}

// Do runs the given functions concurrently and waits for all of them.
func Do(fns ...func()) {
	var wg sync.WaitGroup
	wg.Add(len(fns))
	for _, fn := range fns {
		go func(fn func()) {
			defer wg.Done()
			fn()
		}(fn)
	}
	wg.Wait()
}
