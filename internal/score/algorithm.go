package score

import (
	"fmt"
	"math"

	"fifl/internal/stats"
)

// DistributionKind shapes how a bounded raw value maps into [0,1] before
// weighting — the criticality-score idiom: linear for rates, zipf for
// heavy-tailed counts, log for values whose low end should stay
// discriminative.
type DistributionKind string

const (
	// DistLinear maps proportionally across the bounds.
	DistLinear DistributionKind = "linear"
	// DistZipf compresses a heavy tail: log1p over the offset value, so
	// doubling a large count moves the score far less than doubling a
	// small one.
	DistZipf DistributionKind = "zipf"
	// DistLog expands the low end of an already-normalized value:
	// log10(1+9x), keeping small differences near zero visible.
	DistLog DistributionKind = "log"
)

// Input is one weighted term of the scoring algorithm.
type Input struct {
	// Field names a registry entry (see Fields).
	Field string
	// Weight scales this term in the weighted mean; must be positive.
	Weight float64
	// Lower and Upper clamp the raw value before normalization; Upper
	// must exceed Lower.
	Lower, Upper float64
	// Dist selects the normalization shape ("" = linear).
	Dist DistributionKind
	// SmallerIsBetter inverts the normalized value: a low raw reading
	// scores high (e.g. reject streaks).
	SmallerIsBetter bool

	get func(w *WorkerSignals, s *SignalSet) float64
}

// Algorithm is a validated, config-defined scoring function: the weighted
// arithmetic mean of its normalized inputs, in [0,1].
type Algorithm struct {
	inputs      []Input
	totalWeight float64
}

// NewAlgorithm validates the inputs and binds them to the field registry.
func NewAlgorithm(inputs []Input) (*Algorithm, error) {
	if len(inputs) == 0 {
		return nil, fmt.Errorf("score: an algorithm needs at least one input")
	}
	a := &Algorithm{inputs: make([]Input, 0, len(inputs))}
	seen := make(map[string]bool, len(inputs))
	for _, in := range inputs {
		f, ok := FieldByName(in.Field)
		if !ok {
			return nil, fmt.Errorf("score: unknown field %q", in.Field)
		}
		if seen[in.Field] {
			return nil, fmt.Errorf("score: field %q listed twice", in.Field)
		}
		seen[in.Field] = true
		if !(in.Weight > 0) || math.IsInf(in.Weight, 0) {
			return nil, fmt.Errorf("score: field %q needs a positive finite weight, got %v", in.Field, in.Weight)
		}
		if !(in.Upper > in.Lower) || math.IsInf(in.Lower, 0) || math.IsInf(in.Upper, 0) {
			return nil, fmt.Errorf("score: field %q needs finite bounds with upper > lower, got [%v, %v]", in.Field, in.Lower, in.Upper)
		}
		switch in.Dist {
		case "", DistLinear:
			in.Dist = DistLinear
		case DistZipf, DistLog:
		default:
			return nil, fmt.Errorf("score: field %q has unknown distribution %q", in.Field, in.Dist)
		}
		in.get = f.Get
		a.inputs = append(a.inputs, in)
		a.totalWeight += in.Weight
	}
	return a, nil
}

// normalize maps a raw value through the input's bounds and distribution
// into [0,1].
func (in *Input) normalize(v float64) float64 {
	v = stats.Clamp(v, in.Lower, in.Upper)
	span := in.Upper - in.Lower
	var x float64
	switch in.Dist {
	case DistZipf:
		x = math.Log1p(v-in.Lower) / math.Log1p(span)
	case DistLog:
		x = math.Log10(1 + 9*(v-in.Lower)/span) // log10(10) = 1 at the upper bound
	default:
		x = (v - in.Lower) / span
	}
	if in.SmallerIsBetter {
		x = 1 - x
	}
	return stats.Clamp(x, 0, 1)
}

// Score evaluates the algorithm for one worker: the weighted arithmetic
// mean of its normalized inputs.
func (a *Algorithm) Score(w *WorkerSignals, s *SignalSet) float64 {
	num := 0.0
	for i := range a.inputs {
		in := &a.inputs[i]
		num += in.Weight * in.normalize(in.get(w, s))
	}
	return num / a.totalWeight
}
