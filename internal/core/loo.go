package core

import (
	"math"

	"fifl/internal/gradvec"
	"fifl/internal/nn"
	"fifl/internal/tensor"
)

// LOOContribution computes the expensive reference utility FIFL's
// contribution module approximates: the leave-one-out loss contribution in
// the style of Xie et al. (the paper's [28], cited in §2 as "estimate the
// contribution of workers by calculating the value loss caused by
// workers"). For worker i it measures how much worse the round's update
// becomes when worker i is excluded from aggregation:
//
//	LOO_i = L(θ − η·G̃_{−i}) − L(θ − η·G̃)
//
// A positive LOO_i means the federation is better off with worker i in the
// aggregate. Every worker costs one extra loss evaluation, which is exactly
// the inference cost the paper's gradient-distance contribution avoids
// (§4.3 argues the two are positively related via β-smoothness); the
// abl-contribution experiment checks that claim empirically.
type LOOContribution struct {
	// Model is a scratch replica; its parameters are overwritten.
	Model *nn.Sequential
	// ValX and ValLabels define the evaluation loss L.
	ValX      *tensor.Tensor
	ValLabels []int
	// Eta is the global learning rate applied to the probe updates.
	Eta float64
	// BatchSize bounds evaluation batches; 0 evaluates in one batch.
	BatchSize int
}

// Scores returns LOO_i per worker. Workers with no usable gradient (see
// scorable) get NaN and stay out of every aggregate. weights are the
// aggregation weights (e.g. sample counts); nil means uniform.
func (l *LOOContribution) Scores(params []float64, grads []gradvec.Vector, weights []float64) []float64 {
	n := len(grads)
	out := make([]float64, n)
	for i := range out {
		out[i] = math.NaN()
	}
	if weights == nil {
		weights = make([]float64, n)
		for i := range weights {
			weights[i] = 1
		}
	}
	aggregate := func(skip int) gradvec.Vector {
		total := 0.0
		for i, g := range grads {
			if i == skip || !scorable(g, params) {
				continue
			}
			total += weights[i]
		}
		if total == 0 {
			return nil
		}
		acc := gradvec.Zeros(len(params))
		for i, g := range grads {
			if i == skip || !scorable(g, params) {
				continue
			}
			acc.AddScaled(weights[i]/total, g)
		}
		return acc
	}
	lossAfter := func(update gradvec.Vector) float64 {
		probe := make([]float64, len(params))
		copy(probe, params)
		if update != nil {
			for j := range probe {
				probe[j] -= l.Eta * update[j]
			}
		}
		l.Model.SetParamsVector(probe)
		_, loss := nn.Evaluate(l.Model, l.ValX, l.ValLabels, l.BatchSize)
		return loss
	}
	full := lossAfter(aggregate(-1))
	for i, g := range grads {
		if !scorable(g, params) {
			continue
		}
		out[i] = lossAfter(aggregate(i)) - full
	}
	l.Model.SetParamsVector(params)
	return out
}
