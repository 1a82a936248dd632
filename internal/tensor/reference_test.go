package tensor

// The one-accumulator row loops the matmul kernels replaced, kept verbatim
// as the oracle TestMatMulMatchesReference holds the kernels to, bit for
// bit, and as the baseline the MatMul benchmarks compare against.

// refMulRows computes rows [lo,hi) of dst = A·B.
func refMulRows(dst, a, b *Tensor, lo, hi int) {
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

// refMulT1Rows computes rows [lo,hi) of dst = Aᵀ·B; output row i gathers
// column i of A.
func refMulT1Rows(dst, a, b *Tensor, lo, hi int) {
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

// refMulT2Rows computes rows [lo,hi) of dst = A·Bᵀ.
func refMulT2Rows(dst, a, b *Tensor, lo, hi int) {
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
