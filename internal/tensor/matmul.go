package tensor

import (
	"fmt"

	"fifl/internal/parallel"
)

// The three kernels below write each output element as one running sum
// that starts at +0 and adds its terms in p order, the order of the
// one-accumulator loops kept in reference_test.go as their oracle, so
// every result has those loops' bits. Each pass serves several outputs:
// a pass with one dot product is bound by the latency of its add chain,
// so the forward pass (MatMulT2Into) runs four independent sums over one
// A row; a pass with one term per output element is bound by loading and
// storing the output row, so the backward passes (MatMulInto,
// MatMulT1Into) add four terms to each element per pass over the row.

// MatMulInto computes dst = A·B for A (m×k) and B (k×n), reusing dst's
// storage. Rows of the output are computed in parallel across cores. It
// panics on shape mismatch. dst must not alias a or b.
func MatMulInto(dst, a, b *Tensor) {
	checkMatMul("MatMul", dst, a, b, false, false)
	// The chunk bodies capture only the three tensors, so the closure each
	// call allocates stays small.
	parallel.ForChunked(a.Dim(0), func(lo, hi int) {
		accumRows(dst.data, a.data, b.data, a.Dim(1), 1, a.Dim(1), b.Dim(1), lo, hi)
	})
}

// MatMulT1Into computes dst = Aᵀ·B for A (k×m) and B (k×n), producing
// m×n, reusing dst's storage: the Linear layer's dW = dYᵀ·X. It panics on
// shape mismatch. dst must not alias a or b.
func MatMulT1Into(dst, a, b *Tensor) {
	checkMatMul("MatMulT1", dst, a, b, true, false)
	parallel.ForChunked(a.Dim(1), func(lo, hi int) {
		accumRows(dst.data, a.data, b.data, 1, a.Dim(1), a.Dim(0), b.Dim(1), lo, hi)
	})
}

// accumRows computes rows [lo,hi) of C = A'·B for B (k×n), where A'(i,p)
// is ad[i*is+p*ps]: is = k, ps = 1 reads A as stored (MatMulInto), is =
// 1, ps = m reads it transposed (MatMulT1Into). Output row i starts at +0
// and adds A'(i,p)·B[p] for every nonzero A'(i,p) in p order — a zero is
// skipped, so a ReLU-sparse gradient costs only its nonzero terms — and
// the terms are gathered four at a time, so each pass over the row adds
// four.
func accumRows(cd, ad, bd []float64, is, ps, k, n, lo, hi int) {
	for i := lo; i < hi; i++ {
		ci := cd[i*n : (i+1)*n]
		clear(ci)
		var av [4]float64
		var bp [4][]float64
		q := 0
		for p := 0; p < k; p++ {
			v := ad[i*is+p*ps]
			if v == 0 {
				continue
			}
			av[q], bp[q] = v, bd[p*n:(p+1)*n]
			if q++; q == 4 {
				addTerms4(ci, &av, &bp)
				q = 0
			}
		}
		for r := range q {
			x, br := av[r], bp[r][:len(ci)]
			for j := range ci {
				ci[j] += x * br[j]
			}
		}
	}
}

// addTerms4 adds av[r]·bp[r][j] to ci[j] for r = 0..3, in that order.
func addTerms4(ci []float64, av *[4]float64, bp *[4][]float64) {
	x0, x1, x2, x3 := av[0], av[1], av[2], av[3]
	b0, b1, b2, b3 := bp[0][:len(ci)], bp[1][:len(ci)], bp[2][:len(ci)], bp[3][:len(ci)]
	for j, c := range ci {
		c += x0 * b0[j]
		c += x1 * b1[j]
		c += x2 * b2[j]
		c += x3 * b3[j]
		ci[j] = c
	}
}

// MatMulT2Into computes dst = A·Bᵀ for A (m×k) and B (n×k), producing
// m×n, reusing dst's storage: the Linear layer's forward Y = X·Wᵀ. It
// panics on shape mismatch. dst must not alias a or b.
func MatMulT2Into(dst, a, b *Tensor) {
	checkMatMul("MatMulT2", dst, a, b, false, true)
	parallel.ForChunked(a.Dim(0), func(lo, hi int) { mulT2Rows(dst, a, b, lo, hi) })
}

// mulT2Rows computes rows [lo,hi) of dst = A·Bᵀ, each entry the dot
// product of an A row and a B row: four of them per pass over the A row,
// and one at a time for the columns past the last multiple of four.
func mulT2Rows(dst, a, b *Tensor, lo, hi int) {
	k, n := a.Dim(1), b.Dim(0)
	ad, bd, cd := a.data, b.data, dst.data
	for i := lo; i < hi; i++ {
		ai, ci := ad[i*k:(i+1)*k], cd[i*n:(i+1)*n]
		j := 0
		for ; j+4 <= n; j += 4 {
			b0, b1 := bd[j*k:][:len(ai)], bd[(j+1)*k:][:len(ai)]
			b2, b3 := bd[(j+2)*k:][:len(ai)], bd[(j+3)*k:][:len(ai)]
			var s0, s1, s2, s3 float64
			for p, x := range ai {
				s0 += x * b0[p]
				s1 += x * b1[p]
				s2 += x * b2[p]
				s3 += x * b3[p]
			}
			ci[j], ci[j+1], ci[j+2], ci[j+3] = s0, s1, s2, s3
		}
		for ; j < n; j++ {
			ci[j] = dot(ai, bd[j*k:(j+1)*k])
		}
	}
}

// dot returns Σ a[p]·b[p], summed from +0 in p order.
func dot(a, b []float64) float64 {
	b = b[:len(a)]
	s := 0.0
	for p, av := range a {
		s += av * b[p]
	}
	return s
}

// checkMatMul panics unless a and b (read transposed where the operation
// says so) are rank-2 with matching inner dimensions and dst has the
// product's shape.
func checkMatMul(op string, dst, a, b *Tensor, transA, transB bool) {
	if a.Rank() != 2 || b.Rank() != 2 || dst.Rank() != 2 {
		panic("tensor: " + op + " requires rank-2 tensors")
	}
	m, k := a.Dim(0), a.Dim(1)
	if transA {
		m, k = k, m
	}
	k2, n := b.Dim(0), b.Dim(1)
	if transB {
		k2, n = n, k2
	}
	if k != k2 {
		panic(fmt.Sprintf("tensor: %s inner dimension mismatch %v x %v", op, a.shape, b.shape))
	}
	if dst.Dim(0) != m || dst.Dim(1) != n {
		panic(fmt.Sprintf("tensor: %s output shape %v, want [%d %d]", op, dst.shape, m, n))
	}
}
