package nn

import (
	"math"
	"testing"

	"fifl/internal/rng"
	"fifl/internal/tensor"
)

func TestSoftmaxCrossEntropyUniform(t *testing.T) {
	// Zero logits over C classes give loss ln(C).
	logits := tensor.New(4, 10)
	loss, grad := SoftmaxCrossEntropy(logits, []int{0, 1, 2, 3})
	if math.Abs(loss-math.Log(10)) > 1e-12 {
		t.Fatalf("loss = %v, want ln(10)", loss)
	}
	// Gradient rows sum to zero.
	for b := 0; b < 4; b++ {
		s := 0.0
		for c := 0; c < 10; c++ {
			s += grad.At(b, c)
		}
		if math.Abs(s) > 1e-12 {
			t.Fatalf("gradient row %d sums to %v", b, s)
		}
	}
}

func TestSoftmaxCrossEntropyConfident(t *testing.T) {
	logits := tensor.New(1, 3)
	logits.Set(50, 0, 0)
	loss, _ := SoftmaxCrossEntropy(logits, []int{0})
	if loss > 1e-12 {
		t.Fatalf("confident correct prediction should have ~0 loss, got %v", loss)
	}
	lossWrong, _ := SoftmaxCrossEntropy(logits, []int{1})
	if lossWrong < 10 {
		t.Fatalf("confident wrong prediction should have large loss, got %v", lossWrong)
	}
}

func TestSoftmaxCrossEntropyStability(t *testing.T) {
	// Huge logits must not overflow thanks to max subtraction.
	logits := tensor.FromSlice([]float64{1e300, -1e300, 0}, 1, 3)
	loss, grad := SoftmaxCrossEntropy(logits, []int{0})
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		t.Fatalf("loss overflow: %v", loss)
	}
	if grad.HasNaN() {
		t.Fatal("gradient overflow")
	}
}

func TestSoftmaxCrossEntropyLabelMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SoftmaxCrossEntropy(tensor.New(2, 3), []int{0})
}

func TestArgmaxAccuracy(t *testing.T) {
	logits := tensor.FromSlice([]float64{
		1, 5, 0,
		9, 2, 3,
	}, 2, 3)
	preds := Argmax(logits)
	if preds[0] != 1 || preds[1] != 0 {
		t.Fatalf("Argmax = %v", preds)
	}
	if acc := Accuracy(logits, []int{1, 1}); acc != 0.5 {
		t.Fatalf("Accuracy = %v", acc)
	}
}

func TestParamsVectorRoundTrip(t *testing.T) {
	build := NewMLP(42, 10, []int{8}, 3)
	m1, m2 := build(), build()
	v1 := m1.ParamsVector()
	v2 := m2.ParamsVector()
	if len(v1) != len(v2) {
		t.Fatal("same builder must give same parameter count")
	}
	for i := range v1 {
		if v1[i] != v2[i] {
			t.Fatal("same seed must give identical replicas")
		}
	}
	// Perturb and round-trip.
	v1[3] = 99
	m1.SetParamsVector(v1)
	if m1.ParamsVector()[3] != 99 {
		t.Fatal("SetParamsVector did not stick")
	}
}

func TestApplyDelta(t *testing.T) {
	build := NewMLP(1, 4, nil, 2)
	m := build()
	before := m.ParamsVector()
	delta := make([]float64, len(before))
	for i := range delta {
		delta[i] = 1
	}
	m.ApplyDelta(0.5, delta)
	after := m.ParamsVector()
	for i := range after {
		if math.Abs(after[i]-(before[i]-0.5)) > 1e-12 {
			t.Fatalf("ApplyDelta wrong at %d", i)
		}
	}
}

func TestApplyDeltaLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMLP(1, 4, nil, 2)().ApplyDelta(1, []float64{1})
}

// TestAddGradsToAndStepMatchFlatForms: AddGradsTo and Step give the bits
// of acc.Add(GradsVector()) and ApplyDelta(lr, GradsVector()).
func TestAddGradsToAndStepMatchFlatForms(t *testing.T) {
	src := rng.New(6)
	x := tensor.RandN(src, 1, 8, 1, 28, 28)
	labels := []int{0, 1, 2, 3, 4, 5, 6, 7}
	build := NewLeNet(6)
	a, b := build(), build()
	b.SetParamsVector(a.ParamsVector())
	acc := make([]float64, a.NumParams())
	for i := range acc {
		acc[i] = float64(i%7) - 3
	}
	want := append([]float64(nil), acc...)
	for _, m := range []*Sequential{a, b} {
		_, d := SoftmaxCrossEntropy(m.Forward(x, true), labels)
		m.Backward(d)
	}
	a.AddGradsTo(acc)
	a.Step(0.05)
	for i, v := range b.GradsVector() {
		want[i] += v
	}
	b.ApplyDelta(0.05, b.GradsVector())
	for i := range acc {
		if math.Float64bits(acc[i]) != math.Float64bits(want[i]) {
			t.Fatalf("AddGradsTo entry %d is %v, want %v", i, acc[i], want[i])
		}
	}
	pa, pb := a.ParamsVector(), b.ParamsVector()
	for i := range pa {
		if math.Float64bits(pa[i]) != math.Float64bits(pb[i]) {
			t.Fatalf("Step entry %d is %v, want %v", i, pa[i], pb[i])
		}
	}
}

func TestSGDStepReducesLoss(t *testing.T) {
	src := rng.New(5)
	build := NewMLP(5, 8, []int{16}, 3)
	model := build()
	x := tensor.RandN(src, 1, 32, 8)
	labels := make([]int, 32)
	for i := range labels {
		labels[i] = src.Intn(3)
	}
	opt := NewSGD(0.1)
	first := lossOf(model, x, labels)
	for it := 0; it < 50; it++ {
		model.ZeroGrads()
		logits := model.Forward(x, true)
		_, d := SoftmaxCrossEntropy(logits, labels)
		model.Backward(d)
		opt.Step(model.Params(), model.Grads())
	}
	last := lossOf(model, x, labels)
	if last >= first {
		t.Fatalf("SGD failed to reduce loss: %v -> %v", first, last)
	}
}

func TestSGDMomentumConvergesFaster(t *testing.T) {
	run := func(momentum float64) float64 {
		src := rng.New(6)
		model := NewMLP(6, 8, []int{16}, 3)()
		x := tensor.RandN(src, 1, 32, 8)
		labels := make([]int, 32)
		for i := range labels {
			labels[i] = src.Intn(3)
		}
		opt := &SGD{LR: 0.05, Momentum: momentum}
		for it := 0; it < 60; it++ {
			model.ZeroGrads()
			logits := model.Forward(x, true)
			_, d := SoftmaxCrossEntropy(logits, labels)
			model.Backward(d)
			opt.Step(model.Params(), model.Grads())
		}
		return lossOf(model, x, labels)
	}
	plain := run(0)
	mom := run(0.9)
	if mom >= plain {
		t.Fatalf("momentum should accelerate on this quadratic-ish problem: %v vs %v", mom, plain)
	}
}

func TestSGDWeightDecayShrinksNorm(t *testing.T) {
	model := NewMLP(7, 10, nil, 4)()
	opt := &SGD{LR: 0.1, WeightDecay: 0.5}
	// With zero gradients, weight decay alone must shrink parameters.
	model.ZeroGrads()
	before := 0.0
	for _, v := range model.ParamsVector() {
		before += v * v
	}
	opt.Step(model.Params(), model.Grads())
	after := 0.0
	for _, v := range model.ParamsVector() {
		after += v * v
	}
	if after >= before {
		t.Fatalf("weight decay failed to shrink norm: %v -> %v", before, after)
	}
}

func TestLeNetShapes(t *testing.T) {
	model := NewLeNet(1)()
	src := rng.New(2)
	x := tensor.RandN(src, 1, 2, 1, 28, 28)
	logits := model.Forward(x, true)
	if logits.Dim(0) != 2 || logits.Dim(1) != 10 {
		t.Fatalf("LeNet output shape %v", logits.Shape())
	}
	// Backward must run without shape panics.
	_, d := SoftmaxCrossEntropy(logits, []int{1, 2})
	model.Backward(d)
}

func TestMiniResNetShapes(t *testing.T) {
	model := NewMiniResNet(1)()
	src := rng.New(2)
	x := tensor.RandN(src, 1, 2, 3, 32, 32)
	logits := model.Forward(x, true)
	if logits.Dim(0) != 2 || logits.Dim(1) != 10 {
		t.Fatalf("MiniResNet output shape %v", logits.Shape())
	}
	_, d := SoftmaxCrossEntropy(logits, []int{4, 7})
	model.Backward(d)
}

func TestBatchNormEvalUsesRunningStats(t *testing.T) {
	src := rng.New(3)
	bn := NewBatchNorm2D(2, 4, 4)
	x := tensor.RandN(src, 3, 8, 2, 4, 4)
	// Train a few times to populate running stats.
	for i := 0; i < 10; i++ {
		bn.Forward(x, true)
	}
	// In eval mode the output must be deterministic w.r.t. the input and
	// must not update running stats.
	rm := append([]float64(nil), bn.RunMean.Data()...)
	// The layer reuses its output tensor, so keep a copy of the first.
	y1 := bn.Forward(x, false).Clone()
	y2 := bn.Forward(x, false)
	for i := range y1.Data() {
		if y1.Data()[i] != y2.Data()[i] {
			t.Fatal("eval forward must be deterministic")
		}
	}
	for i, v := range bn.RunMean.Data() {
		if rm[i] != v {
			t.Fatal("eval forward must not update running stats")
		}
	}
}

func TestBatchNormNormalizesTrainBatch(t *testing.T) {
	src := rng.New(4)
	bn := NewBatchNorm2D(1, 8, 8)
	x := tensor.RandN(src, 5, 16, 1, 8, 8)
	y := bn.Forward(x, true)
	// With gamma=1 beta=0 the output per channel has ~0 mean, ~1 var.
	var sum, sum2 float64
	for _, v := range y.Data() {
		sum += v
		sum2 += v * v
	}
	n := float64(y.Size())
	mean := sum / n
	variance := sum2/n - mean*mean
	if math.Abs(mean) > 1e-9 || math.Abs(variance-1) > 1e-2 {
		t.Fatalf("normalized batch: mean=%v var=%v", mean, variance)
	}
}

func TestEvaluateBatching(t *testing.T) {
	src := rng.New(5)
	build := NewMLP(5, 6, nil, 3)
	model := build()
	x := tensor.RandN(src, 1, 10, 6)
	labels := make([]int, 10)
	// Evaluating in one batch or many must agree.
	a1, l1 := Evaluate(model, x, labels, 0)
	a2, l2 := Evaluate(model, x, labels, 3)
	if math.Abs(a1-a2) > 1e-12 || math.Abs(l1-l2) > 1e-9 {
		t.Fatalf("batched evaluation mismatch: acc %v/%v loss %v/%v", a1, a2, l1, l2)
	}
}

func TestNumParamsMatchesVector(t *testing.T) {
	model := NewLeNet(9)()
	if model.NumParams() != len(model.ParamsVector()) {
		t.Fatal("NumParams disagrees with ParamsVector length")
	}
	if model.NumParams() != len(model.GradsVector()) {
		t.Fatal("NumParams disagrees with GradsVector length")
	}
}

func TestZeroGrads(t *testing.T) {
	src := rng.New(6)
	model := NewMLP(6, 4, nil, 2)()
	x := tensor.RandN(src, 1, 3, 4)
	backwardGrads(model, x, []int{0, 1, 0})
	model.ZeroGrads()
	for _, g := range model.GradsVector() {
		if g != 0 {
			t.Fatal("ZeroGrads left nonzero gradient")
		}
	}
}

// TestGradAccumulation verifies Backward accumulates rather than
// overwrites: two backward passes double the gradient.
func TestGradAccumulation(t *testing.T) {
	src := rng.New(7)
	model := NewMLP(7, 4, nil, 2)()
	x := tensor.RandN(src, 1, 3, 4)
	labels := []int{0, 1, 0}
	g1 := append([]float64(nil), backwardGrads(model, x, labels)...)
	// Second pass without ZeroGrads.
	logits := model.Forward(x, true)
	_, d := SoftmaxCrossEntropy(logits, labels)
	model.Backward(d)
	g2 := model.GradsVector()
	for i := range g1 {
		if math.Abs(g2[i]-2*g1[i]) > 1e-9 {
			t.Fatalf("gradient not accumulated at %d: %v vs 2*%v", i, g2[i], g1[i])
		}
	}
}
