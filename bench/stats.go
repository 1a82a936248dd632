package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (mean of the two middle values for
// an even count) and 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// tailBeyond is how many samples must lie above a reported tail
// percentile for it to be more than one slow run.
const tailBeyond = 10

// tailPercentile returns the highest percentile of xs, capped at maxPct,
// that still has at least tailBeyond samples above it, together with the
// percentile it settled on. With fewer than 2·tailBeyond samples no tail
// is trustworthy and it falls back to the median (pct 50).
func tailPercentile(xs []float64, maxPct int) (value float64, pct int) {
	n := len(xs)
	if n < 2*tailBeyond {
		return median(xs), 50
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	// Index of the reported sample counted from 0: everything after it is
	// "beyond". The nearest-rank index of pct is ceil(pct/100·n)-1.
	idx := n - tailBeyond - 1
	if want := int(math.Ceil(float64(maxPct)/100*float64(n))) - 1; want < idx {
		idx = want
	}
	pct = (idx + 1) * 100 / n
	if pct > maxPct {
		pct = maxPct
	}
	return s[idx], pct
}

// relGap is |a-b| as a share of their mean; 0 when both are 0.
func relGap(a, b float64) float64 {
	m := (math.Abs(a) + math.Abs(b)) / 2
	if m == 0 {
		return 0
	}
	return math.Abs(a-b) / m
}
