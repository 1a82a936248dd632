package tensor

import (
	"fmt"

	"fifl/internal/parallel"
)

// MatMul computes C = A·B for 2-D tensors A (m×k) and B (k×n), writing the
// result into a freshly allocated tensor. Rows of the output are computed in
// parallel across cores; the inner loops are ordered i-k-j so B is streamed
// row-wise for cache locality.
func MatMul(a, b *Tensor) *Tensor {
	c := New(a.Dim(0), b.Dim(1))
	MatMulInto(c, a, b)
	return c
}

// MatMulInto computes dst = A·B, reusing dst's storage. It panics on shape
// mismatch. dst must not alias a or b.
func MatMulInto(dst, a, b *Tensor) {
	checkMatMul("MatMul", dst, a, b, false, false)
	// The chunk bodies capture only the three tensors, so the closure each
	// call allocates stays small.
	parallel.ForChunked(a.Dim(0), func(lo, hi int) { mulRows(dst, a, b, lo, hi) })
}

// mulRows computes rows [lo,hi) of dst = A·B.
func mulRows(dst, a, b *Tensor, lo, hi int) {
	k, n := a.Dim(1), b.Dim(1)
	ad, bd, cd := a.data, b.data, dst.data
	for i := lo; i < hi; i++ {
		ci := cd[i*n : (i+1)*n]
		for j := range ci {
			ci[j] = 0
		}
		ai := ad[i*k : (i+1)*k]
		for p, av := range ai {
			if av == 0 {
				continue
			}
			bp := bd[p*n : (p+1)*n]
			for j, bv := range bp {
				ci[j] += av * bv
			}
		}
	}
}

// MatMulT1 computes C = Aᵀ·B for A (k×m) and B (k×n), producing m×n.
// Used by the Linear layer backward pass (dW = dYᵀ·X).
func MatMulT1(a, b *Tensor) *Tensor {
	c := New(a.Dim(1), b.Dim(1))
	MatMulT1Into(c, a, b)
	return c
}

// MatMulT1Into computes dst = Aᵀ·B, reusing dst's storage. It panics on
// shape mismatch. dst must not alias a or b.
func MatMulT1Into(dst, a, b *Tensor) {
	checkMatMul("MatMulT1", dst, a, b, true, false)
	parallel.ForChunked(a.Dim(1), func(lo, hi int) { mulT1Rows(dst, a, b, lo, hi) })
}

// mulT1Rows computes rows [lo,hi) of dst = Aᵀ·B; output row i gathers
// column i of A.
func mulT1Rows(dst, a, b *Tensor, lo, hi int) {
	k, m, n := a.Dim(0), a.Dim(1), b.Dim(1)
	ad, bd, cd := a.data, b.data, dst.data
	for i := lo; i < hi; i++ {
		ci := cd[i*n : (i+1)*n]
		for j := range ci {
			ci[j] = 0
		}
		for p := 0; p < k; p++ {
			av := ad[p*m+i]
			if av == 0 {
				continue
			}
			bp := bd[p*n : (p+1)*n]
			for j, bv := range bp {
				ci[j] += av * bv
			}
		}
	}
}

// MatMulT2 computes C = A·Bᵀ for A (m×k) and B (n×k), producing m×n.
// Used by the Linear layer forward pass (Y = X·Wᵀ).
func MatMulT2(a, b *Tensor) *Tensor {
	c := New(a.Dim(0), b.Dim(0))
	MatMulT2Into(c, a, b)
	return c
}

// MatMulT2Into computes dst = A·Bᵀ, reusing dst's storage. It panics on
// shape mismatch. dst must not alias a or b.
func MatMulT2Into(dst, a, b *Tensor) {
	checkMatMul("MatMulT2", dst, a, b, false, true)
	parallel.ForChunked(a.Dim(0), func(lo, hi int) { mulT2Rows(dst, a, b, lo, hi) })
}

// mulT2Rows computes rows [lo,hi) of dst = A·Bᵀ.
func mulT2Rows(dst, a, b *Tensor, lo, hi int) {
	k, n := a.Dim(1), b.Dim(0)
	ad, bd, cd := a.data, b.data, dst.data
	for i := lo; i < hi; i++ {
		ai := ad[i*k : (i+1)*k]
		ci := cd[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			bj := bd[j*k : (j+1)*k]
			s := 0.0
			for p, av := range ai {
				s += av * bj[p]
			}
			ci[j] = s
		}
	}
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

// Transpose2D returns the transpose of a rank-2 tensor as a new tensor.
func Transpose2D(a *Tensor) *Tensor {
	if a.Rank() != 2 {
		panic("tensor: Transpose2D requires a rank-2 tensor")
	}
	m, n := a.Dim(0), a.Dim(1)
	t := New(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			t.data[j*m+i] = a.data[i*n+j]
		}
	}
	return t
}
