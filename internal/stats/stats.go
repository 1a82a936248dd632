// Package stats provides the small statistical toolkit the FIFL evaluation
// needs: sums, means, extremes and quantiles, the Pearson correlation used
// as the paper's fairness coefficient (Eq. 16), and running means for
// repeated experiments.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by reducers that need at least one sample.
var ErrEmpty = errors.New("stats: empty input")

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// Mean returns the arithmetic mean of xs, or 0 for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return Sum(xs) / float64(len(xs))
}

// Min returns the smallest element of xs. It returns ErrEmpty for empty xs.
func Min(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m, nil
}

// Max returns the largest element of xs. It returns ErrEmpty for empty xs.
func Max(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m, nil
}

// Pearson edge-case sentinels. Each names a case where the correlation is
// mathematically undefined; Pearson still returns the defined value 0 for
// them (not NaN), so a caller that ignores the error cannot silently
// poison a downstream aggregate — the Eq. 16 fairness report folds many
// Pearson calls and one NaN would erase them all.
var (
	// ErrShortSeries: fewer than two samples cannot carry a correlation.
	ErrShortSeries = errors.New("stats: Pearson needs at least two samples")
	// ErrConstantSeries: a zero-variance series makes the denominator 0.
	ErrConstantSeries = errors.New("stats: Pearson undefined for constant series")
	// ErrNonFinite: a NaN or Inf input would propagate through the sums.
	ErrNonFinite = errors.New("stats: Pearson input contains a non-finite value")
)

// Pearson returns the Pearson correlation coefficient between xs and ys.
// This is the fairness coefficient C_s of FIFL's Eq. 16: the correlation
// between workers' contributions and their rewards. The result is always
// finite and clamped into [-1, 1] (the exact formula can exceed 1 by an
// ulp). Undefined cases — mismatched lengths, empty input (ErrEmpty),
// fewer than two samples (ErrShortSeries), non-finite inputs
// (ErrNonFinite), constant series (ErrConstantSeries) — return the value
// 0 together with the sentinel error, never NaN.
func Pearson(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, errors.New("stats: Pearson length mismatch")
	}
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if len(xs) < 2 {
		return 0, ErrShortSeries
	}
	for i := range xs {
		if isNonFinite(xs[i]) || isNonFinite(ys[i]) {
			return 0, ErrNonFinite
		}
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, ErrConstantSeries
	}
	r := sxy / math.Sqrt(sxx*syy)
	// Huge inputs can overflow the intermediate sums to +Inf; the ratio is
	// then NaN even though every input was finite. Still defined output.
	if math.IsNaN(r) {
		return 0, ErrNonFinite
	}
	return Clamp(r, -1, 1), nil
}

// isNonFinite reports whether v is NaN or infinite.
func isNonFinite(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) }

// Quantile returns the q-th quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics. It returns ErrEmpty for empty xs.
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0], nil
	}
	if q >= 1 {
		return s[len(s)-1], nil
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[len(s)-1], nil
	}
	return s[lo]*(1-frac) + s[lo+1]*frac, nil
}

// Running accumulates a stream of samples and reports their mean without
// storing them. Used to aggregate the paper's 100-repeat experiments
// without holding every run in memory.
type Running struct {
	n    int
	mean float64
}

// Add folds one sample into the accumulator.
func (r *Running) Add(x float64) {
	r.n++
	r.mean += (x - r.mean) / float64(r.n)
}

// N reports the number of samples seen.
func (r *Running) N() int { return r.n }

// Mean reports the running mean (0 before any sample).
func (r *Running) Mean() float64 { return r.mean }

// Clamp limits x into [lo,hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
