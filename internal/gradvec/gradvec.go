// Package gradvec implements flat gradient vectors and the slice/recombine
// algebra of the paper's polycentric architecture (§3.2): a worker's local
// gradient G_i is split into M contiguous slices g_i^1..g_i^M, one per
// server; each server aggregates its slice across workers; workers
// recombine the global slices into the full global gradient.
//
// All of FIFL's indicators are defined on these vectors: the detection
// score is an inner product of slices (Eq. 6), and the contribution is a
// squared Euclidean distance summed over slices (Eq. 13).
package gradvec

import (
	"fmt"
	"math"

	"fifl/internal/parallel"
)

// Vector is a flat gradient (or parameter-delta) vector.
type Vector []float64

// Zeros returns a zero vector of length n.
func Zeros(n int) Vector { return make(Vector, n) }

// Clone returns a deep copy.
func (v Vector) Clone() Vector { return append(Vector(nil), v...) }

// Add adds o into v element-wise. It panics on length mismatch.
func (v Vector) Add(o Vector) {
	if len(v) != len(o) {
		panic(fmt.Sprintf("gradvec: Add length mismatch %d vs %d", len(v), len(o)))
	}
	for i, x := range o {
		v[i] += x
	}
}

// AddScaled adds s*o into v element-wise.
func (v Vector) AddScaled(s float64, o Vector) {
	if len(v) != len(o) {
		panic(fmt.Sprintf("gradvec: AddScaled length mismatch %d vs %d", len(v), len(o)))
	}
	for i, x := range o {
		v[i] += s * x
	}
}

// Scale multiplies every element by s.
func (v Vector) Scale(s float64) {
	for i := range v {
		v[i] *= s
	}
}

// Dot returns the inner product ⟨v, o⟩.
func (v Vector) Dot(o Vector) float64 {
	if len(v) != len(o) {
		panic(fmt.Sprintf("gradvec: Dot length mismatch %d vs %d", len(v), len(o)))
	}
	s := 0.0
	for i, x := range v {
		s += x * o[i]
	}
	return s
}

// Norm2 returns the Euclidean norm ‖v‖₂. It never returns NaN: any
// non-finite element (NaN or ±Inf) yields +Inf — an unambiguous "this
// vector is broken" signal that downstream guards (CosSim, the detection
// screens) turn into a rejection instead of silently propagating NaN
// through scores and reputations.
func (v Vector) Norm2() float64 {
	s := 0.0
	for _, x := range v {
		s += x * x
	}
	return normFromSumSq(s)
}

// normFromSumSq turns Σx² into the Norm2 contract without having looked at
// a single element: x·x is never negative, so the sum cannot cancel to NaN
// — it is NaN iff some element was NaN, and +Inf iff some element was ±Inf
// or the finite sum overflowed. NaN maps to +Inf; Sqrt carries +Inf through.
func normFromSumSq(s float64) float64 {
	if math.IsNaN(s) {
		return math.Inf(1)
	}
	return math.Sqrt(s)
}

// SqDist returns the squared Euclidean distance ‖v − o‖² — the Dis()
// function of the paper's contribution module (Eq. 13).
func (v Vector) SqDist(o Vector) float64 {
	if len(v) != len(o) {
		panic(fmt.Sprintf("gradvec: SqDist length mismatch %d vs %d", len(v), len(o)))
	}
	s := 0.0
	for i, x := range v {
		d := x - o[i]
		s += d * d
	}
	return s
}

// SqDist4 is SqDist for four rows against one shared vector v: it returns
// ‖v − gₖ‖² for k = 0..3 from one pass that loads each v[i] once. Each sum
// is a single accumulator adding in element order, so dₖ is bit-for-bit
// v.SqDist(gₖ).
func (v Vector) SqDist4(g0, g1, g2, g3 Vector) (d0, d1, d2, d3 float64) {
	n := len(v)
	if len(g0) != n || len(g1) != n || len(g2) != n || len(g3) != n {
		panic(fmt.Sprintf("gradvec: SqDist4 length mismatch %d vs %d, %d, %d, %d", n, len(g0), len(g1), len(g2), len(g3)))
	}
	g0, g1, g2, g3 = g0[:n], g1[:n], g2[:n], g3[:n]
	for i, x := range v {
		e0, e1, e2, e3 := x-g0[i], x-g1[i], x-g2[i], x-g3[i]
		d0 += e0 * e0
		d1 += e1 * e1
		d2 += e2 * e2
		d3 += e3 * e3
	}
	return d0, d1, d2, d3
}

// DotSumSq returns ⟨v,o⟩, Σv² and Σo² from ONE pass over the pair — the
// evidence a cosine needs. Each sum is a single accumulator adding in
// element order, so it is bit-for-bit the float Dot (resp. Norm2, before
// the root) produces; the three dependency chains are independent and
// overlap in the pipeline, which makes the fused pass cost what Dot alone
// does. Do not unroll into partial sums: that changes the bits.
func (v Vector) DotSumSq(o Vector) (dot, vv, oo float64) {
	if len(v) != len(o) {
		panic(fmt.Sprintf("gradvec: DotSumSq length mismatch %d vs %d", len(v), len(o)))
	}
	for i, x := range v {
		y := o[i]
		dot += x * y
		vv += x * x
		oo += y * y
	}
	return dot, vv, oo
}

// DotSumSq4 is DotSumSq for four rows against one shared vector v: it
// returns ⟨v,gₖ⟩ and Σgₖ² for k = 0..3 from one pass that loads each v[i]
// once. Each of the eight sums is a single accumulator adding in element
// order, so dₖ and sₖ are bit-for-bit DotSumSq(gₖ)'s dot and Σo². Σv² is
// not among them: it is the same for all four rows, and a ninth chain in
// the loop measured slower, so callers hoist it (v.Dot(v) is the same
// sum). The eight chains are independent and overlap, so one four-row pass
// costs about half what four one-row passes do.
func (v Vector) DotSumSq4(g0, g1, g2, g3 Vector) (d0, d1, d2, d3, s0, s1, s2, s3 float64) {
	n := len(v)
	if len(g0) != n || len(g1) != n || len(g2) != n || len(g3) != n {
		panic(fmt.Sprintf("gradvec: DotSumSq4 length mismatch %d vs %d, %d, %d, %d", n, len(g0), len(g1), len(g2), len(g3)))
	}
	g0, g1, g2, g3 = g0[:n], g1[:n], g2[:n], g3[:n]
	for i, x := range v {
		y0, y1, y2, y3 := g0[i], g1[i], g2[i], g3[i]
		d0 += x * y0
		s0 += y0 * y0
		d1 += x * y1
		s1 += y1 * y1
		d2 += x * y2
		s2 += y2 * y2
		d3 += x * y3
		s3 += y3 * y3
	}
	return d0, d1, d2, d3, s0, s1, s2, s3
}

// CosFromSums is the guarded cosine of CosSim evaluated on the sums
// DotSumSq returned for a pair (v, o).
func CosFromSums(dot, vv, oo float64) float64 {
	nv, no := normFromSumSq(vv), normFromSumSq(oo)
	if nv == 0 || no == 0 || math.IsInf(nv, 0) || math.IsInf(no, 0) {
		return 0
	}
	// Divide by the norms one at a time: nv*no can overflow to +Inf even
	// when both norms are finite, which would corrupt the quotient.
	c := dot / nv / no
	switch {
	case math.IsNaN(c):
		// Only reachable through intermediate overflow in the dot product
		// (huge finite elements summing +Inf and -Inf): no usable signal.
		return 0
	case c > 1:
		return 1
	case c < -1:
		return -1
	default:
		return c
	}
}

// CosSim returns the cosine similarity between v and o, clamped to
// [-1, 1]. Degenerate inputs score 0 instead of propagating NaN into the
// detection pipeline: a zero vector has no direction to compare, and a
// vector with non-finite elements (Norm2 = +Inf) carries no usable signal
// — the detection modules treat a 0 score as "no evidence", which a
// threshold S_y > 0 rejects. It reads each vector once.
func (v Vector) CosSim(o Vector) float64 {
	return CosFromSums(v.DotSumSq(o))
}

// HasNaN reports whether any element is NaN or infinite. It does not
// branch per element: x·0 is ±0 for a finite x and NaN for NaN or ±Inf, and
// one NaN poisons the running sum for good, so the sum is tested once.
func (v Vector) HasNaN() bool {
	s := 0.0
	for _, x := range v {
		s += x * 0
	}
	return s != 0
}

// SliceBounds returns the half-open range [lo,hi) of slice j when a vector
// of length n is split into m near-equal contiguous slices. The first
// n mod m slices receive one extra element.
func SliceBounds(n, m, j int) (lo, hi int) {
	if m <= 0 || j < 0 || j >= m {
		panic(fmt.Sprintf("gradvec: SliceBounds(%d, %d, %d) out of range", n, m, j))
	}
	base, rem := n/m, n%m
	if j < rem {
		lo = j * (base + 1)
		return lo, lo + base + 1
	}
	lo = rem*(base+1) + (j-rem)*base
	return lo, lo + base
}

// Split divides v into m contiguous slices (views, not copies). This is the
// Split(G_i) operation of the polycentric architecture; slice j is shipped
// to server j.
func Split(v Vector, m int) []Vector {
	out := make([]Vector, m)
	for j := 0; j < m; j++ {
		lo, hi := SliceBounds(len(v), m, j)
		out[j] = v[lo:hi]
	}
	return out
}

// Recombine concatenates global gradient slices back into one vector — the
// Recombine(g̃¹..g̃ᴹ) step workers run after downloading the global slices.
func Recombine(slices []Vector) Vector {
	n := 0
	for _, s := range slices {
		n += len(s)
	}
	out := make(Vector, 0, n)
	for _, s := range slices {
		out = append(out, s...)
	}
	return out
}

// minParallelFold is the multiply-add count below which AddWeighted folds
// on the calling goroutine: waking a second core costs some ten
// microseconds, which a toy-model fold (236 parameters × 256 workers, 40 µs
// in all) does not earn back; a 78,378-parameter cohort does many times over.
const minParallelFold = 1 << 18

// AddWeighted adds Σ_i weights[i]·vs[i] into v. A zero weight skips its
// vector, which may then be nil or of any length. A large fold fans the
// parameter dimension out across cores in contiguous column blocks. Each
// block folds four vectors per pass over v (addScaled4), but every element
// still adds the terms one at a time in slice order, so the result is
// bit-identical to one AddScaled call per vector.
func (v Vector) AddWeighted(vs []Vector, weights []float64) {
	if len(vs) != len(weights) {
		panic(fmt.Sprintf("gradvec: AddWeighted got %d vectors, %d weights", len(vs), len(weights)))
	}
	terms := 0
	for i, o := range vs {
		if weights[i] == 0 {
			continue
		}
		if len(o) != len(v) {
			panic(fmt.Sprintf("gradvec: AddWeighted length mismatch %d vs %d", len(v), len(o)))
		}
		terms++
	}
	fold := func(lo, hi int) {
		// Gather the non-zero terms four at a time; the 1–3 left over fold
		// one by one, still in slice order.
		var rows [4]int
		k := 0
		for i := range vs {
			if weights[i] == 0 {
				continue
			}
			rows[k] = i
			if k++; k == 4 {
				a, b, c, d := rows[0], rows[1], rows[2], rows[3]
				v[lo:hi].addScaled4(weights[a], vs[a][lo:hi], weights[b], vs[b][lo:hi],
					weights[c], vs[c][lo:hi], weights[d], vs[d][lo:hi])
				k = 0
			}
		}
		for _, i := range rows[:k] {
			v[lo:hi].AddScaled(weights[i], vs[i][lo:hi])
		}
	}
	if terms*len(v) < minParallelFold {
		fold(0, len(v))
		return
	}
	parallel.ForChunked(len(v), fold)
}

// addScaled4 adds w0·o0 + … + w3·o3 into v, one term at a time per
// element in argument order, so it is bit-for-bit four AddScaled calls
// while loading and storing each v[i] once. The arguments stay scalar: the
// fold measured slower taking them as arrays. The caller checks lengths.
func (v Vector) addScaled4(w0 float64, o0 Vector, w1 float64, o1 Vector, w2 float64, o2 Vector, w3 float64, o3 Vector) {
	n := len(v)
	o0, o1, o2, o3 = o0[:n], o1[:n], o2[:n], o3[:n]
	for i, x := range v {
		x += w0 * o0[i]
		x += w1 * o1[i]
		x += w2 * o2[i]
		x += w3 * o3[i]
		v[i] = x
	}
}

// WeightedSum returns Σ_i weights[i]·vs[i]. All vectors must share one
// length. This is the aggregation of Eq. 2 with weights n_i/Σn_j.
func WeightedSum(vs []Vector, weights []float64) Vector {
	if len(vs) != len(weights) {
		panic(fmt.Sprintf("gradvec: WeightedSum got %d vectors, %d weights", len(vs), len(weights)))
	}
	if len(vs) == 0 {
		return nil
	}
	out := Zeros(len(vs[0]))
	out.AddWeighted(vs, weights)
	return out
}
