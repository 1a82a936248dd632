package core

import (
	"math"

	"fifl/internal/gradvec"
	"fifl/internal/nn"
	"fifl/internal/tensor"
)

// LossDeltaScorer computes the exact detection score of Eq. 5,
// S(θ, G_i) = L_t(θ) − L_t(θ − η·G_i), by actually evaluating the test
// loss before and after applying a worker's gradient. It is the expensive
// reference the paper's inner-product score approximates (first-order
// Taylor); the Detector's cosine score is the lightweight production path.
//
// The exact score keeps the second-order term the Taylor expansion drops,
// which matters for the Figure 9 phenomenology: a sign-flipping attacker
// with intensity p_s worsens the loss quadratically in p_s, so stronger
// attacks are easier to detect — exactly the trend the paper reports.
//
// Scores are normalized by the pre-step loss, S_i / L_t(θ), so the
// threshold S_y is a task-independent relative-improvement fraction.
type LossDeltaScorer struct {
	// Model is a scratch replica used for evaluation; its parameters are
	// overwritten on every call.
	Model *nn.Sequential
	// ValX and ValLabels form the held-out validation set defining L_t.
	ValX      *tensor.Tensor
	ValLabels []int
	// Eta scales the probe step θ − Eta·G_i. Use the federation's global
	// learning rate so the probe matches the update the gradient would
	// actually cause.
	Eta float64
	// BatchSize bounds evaluation batches; 0 evaluates in one batch.
	BatchSize int
}

// Scores returns the normalized loss-delta score per worker; NaN for
// workers with no usable gradient (see scorable).
func (s *LossDeltaScorer) Scores(params []float64, grads []gradvec.Vector) []float64 {
	out := make([]float64, len(grads))
	for i := range out {
		out[i] = math.NaN()
	}
	s.Model.SetParamsVector(params)
	_, base := nn.Evaluate(s.Model, s.ValX, s.ValLabels, s.BatchSize)
	denom := math.Abs(base)
	if denom < 1e-12 {
		denom = 1e-12
	}
	probe := make([]float64, len(params))
	for i, g := range grads {
		if !scorable(g, params) {
			continue
		}
		copy(probe, params)
		for j := range probe {
			probe[j] -= s.Eta * g[j]
		}
		s.Model.SetParamsVector(probe)
		_, after := nn.Evaluate(s.Model, s.ValX, s.ValLabels, s.BatchSize)
		if math.IsNaN(after) || math.IsInf(after, 0) {
			// The probe step destroyed the model: maximally suspicious.
			out[i] = math.Inf(-1)
			continue
		}
		out[i] = (base - after) / denom
	}
	s.Model.SetParamsVector(params)
	return out
}

// scorable reports whether g can be stepped against params: it arrived, has
// the model's dimension and holds no NaN or ±Inf.
func scorable(g gradvec.Vector, params []float64) bool {
	return g != nil && len(g) == len(params) && !g.HasNaN()
}

// Threshold applies an accept threshold S_y to loss-delta scores, returning
// r_i flags (Eq. 7). NaN scores are rejected.
func Threshold(scores []float64, sy float64) []bool {
	out := make([]bool, len(scores))
	for i, v := range scores {
		out[i] = !math.IsNaN(v) && v >= sy
	}
	return out
}
