package core

import (
	"math"
	"testing"

	"fifl/internal/dataset"
	"fifl/internal/gradvec"
	"fifl/internal/nn"
	"fifl/internal/rng"
)

func lossDeltaSetup(t *testing.T) (*LossDeltaScorer, []float64, gradvec.Vector) {
	t.Helper()
	src := rng.New(31)
	build := nn.NewMLP(31, 28*28, []int{16}, 10)
	model := build()
	val := dataset.SynthDigits(src.Split("val"), 200)
	scorer := &LossDeltaScorer{
		Model:     build(),
		ValX:      val.X,
		ValLabels: val.Labels,
		Eta:       0.5,
	}
	params := model.ParamsVector()
	// A "useful" gradient: the true gradient of the validation loss.
	model.ZeroGrads()
	logits := model.Forward(val.X, true)
	_, d := nn.SoftmaxCrossEntropy(logits, val.Labels)
	model.Backward(d)
	g := make(gradvec.Vector, model.NumParams())
	model.AddGradsTo(g)
	return scorer, params, g
}

func TestLossDeltaUsefulGradientPositive(t *testing.T) {
	scorer, params, grad := lossDeltaSetup(t)
	scores := scorer.Scores(params, []gradvec.Vector{grad})
	if scores[0] <= 0 {
		t.Fatalf("a true descent gradient must score positive, got %v", scores[0])
	}
}

func TestLossDeltaFlippedGradientNegative(t *testing.T) {
	scorer, params, grad := lossDeltaSetup(t)
	flipped := grad.Clone()
	flipped.Scale(-2)
	scores := scorer.Scores(params, []gradvec.Vector{flipped})
	if scores[0] >= 0 {
		t.Fatalf("a sign-flipped gradient must score negative, got %v", scores[0])
	}
}

func TestLossDeltaQuadraticInIntensity(t *testing.T) {
	// The exact loss delta penalizes attack intensity superlinearly — the
	// property behind Figure 9(a)'s rising detection accuracy.
	scorer, params, grad := lossDeltaSetup(t)
	mk := func(ps float64) gradvec.Vector {
		g := grad.Clone()
		g.Scale(-ps)
		return g
	}
	scores := scorer.Scores(params, []gradvec.Vector{mk(1), mk(4)})
	if !(scores[1] < scores[0] && scores[0] < 0) {
		t.Fatalf("stronger attack must score lower: %v", scores)
	}
	if scores[1] > 4*scores[0] {
		t.Fatalf("penalty should grow superlinearly: ps=1 %v, ps=4 %v", scores[0], scores[1])
	}
}

func TestLossDeltaNilAndNaN(t *testing.T) {
	scorer, params, grad := lossDeltaSetup(t)
	bad := grad.Clone()
	bad[0] = math.NaN()
	scores := scorer.Scores(params, []gradvec.Vector{nil, bad})
	if !math.IsNaN(scores[0]) {
		t.Fatal("nil gradient must have NaN score")
	}
	if !math.IsNaN(scores[1]) {
		t.Fatal("NaN gradient must have NaN score")
	}
}

func TestLossDeltaRestoresParams(t *testing.T) {
	scorer, params, grad := lossDeltaSetup(t)
	scorer.Scores(params, []gradvec.Vector{grad})
	after := scorer.Model.ParamsVector()
	for i := range params {
		if after[i] != params[i] {
			t.Fatal("scorer must restore the model parameters")
		}
	}
}

func TestThresholdHelper(t *testing.T) {
	accept := Threshold([]float64{0.2, 0.05, math.NaN(), -1}, 0.1)
	want := []bool{true, false, false, false}
	for i := range want {
		if accept[i] != want[i] {
			t.Fatalf("Threshold = %v", accept)
		}
	}
}

// TestTaylorVsExactAgreementOnRealModel ties Eq. 5 and Eq. 6 together on a
// real model: for honest (descent) directions and flipped directions, the
// cheap cosine score and the exact loss delta agree in sign.
func TestTaylorVsExactAgreementOnRealModel(t *testing.T) {
	scorer, params, grad := lossDeltaSetup(t)
	benchmark := grad.Clone()
	flipped := grad.Clone()
	flipped.Scale(-1.5)
	exact := scorer.Scores(params, []gradvec.Vector{grad, flipped})
	cosHonest := benchmark.CosSim(grad)
	cosFlipped := benchmark.CosSim(flipped)
	if !(exact[0] > 0 && cosHonest > 0) {
		t.Fatalf("honest: exact %v cos %v", exact[0], cosHonest)
	}
	if !(exact[1] < 0 && cosFlipped < 0) {
		t.Fatalf("flipped: exact %v cos %v", exact[1], cosFlipped)
	}
}
