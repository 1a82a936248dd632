package core

import (
	"math"
	"testing"

	"fifl/internal/dataset"
	"fifl/internal/gradvec"
	"fifl/internal/nn"
	"fifl/internal/rng"
)

func looSetup(t *testing.T) (*LOOContribution, []float64, gradvec.Vector) {
	t.Helper()
	src := rng.New(41)
	build := nn.NewMLP(41, 28*28, []int{16}, 10)
	model := build()
	val := dataset.SynthDigits(src.Split("val"), 300)
	loo := &LOOContribution{
		Model:     build(),
		ValX:      val.X,
		ValLabels: val.Labels,
		Eta:       0.5,
	}
	params := model.ParamsVector()
	model.ZeroGrads()
	logits := model.Forward(val.X, true)
	_, d := nn.SoftmaxCrossEntropy(logits, val.Labels)
	model.Backward(d)
	g := make(gradvec.Vector, model.NumParams())
	model.AddGradsTo(g)
	return loo, params, g
}

func TestLOOUsefulWorkerPositive(t *testing.T) {
	loo, params, grad := looSetup(t)
	// Two copies of the true gradient and one strong sign-flip: removing
	// the attacker improves the update (negative LOO), removing an honest
	// worker hurts it (positive LOO).
	flipped := grad.Clone()
	flipped.Scale(-3)
	scores := loo.Scores(params, []gradvec.Vector{grad.Clone(), grad.Clone(), flipped}, nil)
	if scores[0] <= 0 || scores[1] <= 0 {
		t.Fatalf("honest LOO should be positive, got %v", scores)
	}
	if scores[2] >= 0 {
		t.Fatalf("attacker LOO should be negative, got %v", scores[2])
	}
}

func TestLOOHandlesNilAndNaN(t *testing.T) {
	loo, params, grad := looSetup(t)
	bad := grad.Clone()
	bad[0] = math.NaN()
	scores := loo.Scores(params, []gradvec.Vector{grad, nil, bad}, nil)
	if !math.IsNaN(scores[1]) || !math.IsNaN(scores[2]) {
		t.Fatalf("unusable gradients must score NaN, got %v", scores)
	}
	if math.IsNaN(scores[0]) {
		t.Fatal("usable gradient must score")
	}
}

func TestLOORespectsWeights(t *testing.T) {
	loo, params, grad := looSetup(t)
	flipped := grad.Clone()
	flipped.Scale(-3)
	// With the attacker down-weighted to (almost) nothing, removing it
	// changes (almost) nothing.
	scores := loo.Scores(params, []gradvec.Vector{grad, flipped}, []float64{1, 1e-9})
	if math.Abs(scores[1]) > math.Abs(scores[0])/10 {
		t.Fatalf("near-zero-weight worker should have near-zero LOO: %v", scores)
	}
}

func TestLOORestoresParams(t *testing.T) {
	loo, params, grad := looSetup(t)
	loo.Scores(params, []gradvec.Vector{grad}, nil)
	after := loo.Model.ParamsVector()
	for i := range params {
		if after[i] != params[i] {
			t.Fatal("LOO scorer must restore model parameters")
		}
	}
}
