package nn

import (
	"math"
	"testing"

	"fifl/internal/rng"
	"fifl/internal/tensor"
)

// randN returns a tensor of the given shape filled with normal deviates
// of standard deviation std.
func randN(src *rng.Source, std float64, shape ...int) *tensor.Tensor {
	t := tensor.New(shape...)
	src.FillNormal(t.Data(), 0, std)
	return t
}

// gradsVector copies all accumulated gradients into one flat vector in
// layer order, parallel to ParamsVector.
func gradsVector(s *Sequential) []float64 {
	out := make([]float64, 0, s.NumParams())
	for _, g := range s.Grads() {
		out = append(out, g.Data()...)
	}
	return out
}

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
			s += grad.Data()[b*10+c]
		}
		if math.Abs(s) > 1e-12 {
			t.Fatalf("gradient row %d sums to %v", b, s)
		}
	}
}

func TestSoftmaxCrossEntropyConfident(t *testing.T) {
	logits := tensor.New(1, 3)
	logits.Data()[0] = 50
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

// applyDelta subtracts scale*delta from s's parameters, θ ← θ − scale·delta
// for a flat delta laid out as ParamsVector: the flat form Step must match.
func applyDelta(s *Sequential, scale float64, delta []float64) {
	off := 0
	for _, p := range s.Params() {
		d := p.Data()
		for i := range d {
			d[i] -= scale * delta[off+i]
		}
		off += len(d)
	}
	if off != len(delta) {
		panic("nn: applyDelta length mismatch")
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
	applyDelta(m, 0.5, delta)
	after := m.ParamsVector()
	for i := range after {
		if math.Abs(after[i]-(before[i]-0.5)) > 1e-12 {
			t.Fatalf("applyDelta wrong at %d", i)
		}
	}
}

func TestApplyDeltaLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	applyDelta(NewMLP(1, 4, nil, 2)(), 1, []float64{1})
}

// TestAddGradsToAndStepMatchFlatForms: AddGradsTo and Step give the bits
// of acc.Add(gradsVector()) and applyDelta(lr, gradsVector()).
func TestAddGradsToAndStepMatchFlatForms(t *testing.T) {
	src := rng.New(6)
	x := randN(src, 1, 8, 1, 28, 28)
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
	for i, v := range gradsVector(b) {
		want[i] += v
	}
	applyDelta(b, 0.05, gradsVector(b))
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
	x := randN(src, 1, 32, 8)
	labels := make([]int, 32)
	for i := range labels {
		labels[i] = src.Intn(3)
	}
	first := lossOf(model, x, labels)
	for it := 0; it < 50; it++ {
		model.ZeroGrads()
		logits := model.Forward(x, true)
		_, d := SoftmaxCrossEntropy(logits, labels)
		model.Backward(d)
		model.Step(0.1)
	}
	last := lossOf(model, x, labels)
	if last >= first {
		t.Fatalf("SGD failed to reduce loss: %v -> %v", first, last)
	}
}

// sgdStep is the loop of the optimizer the experiments' warm-up ran before
// it took Sequential.Step, kept verbatim: the step without momentum, with
// its weight decay.
func sgdStep(lr, weightDecay float64, params, grads []*tensor.Tensor) {
	for i, p := range params {
		pd, gd := p.Data(), grads[i].Data()
		for j := range pd {
			g := gd[j] + weightDecay*pd[j]
			pd[j] -= lr * g
		}
	}
}

// TestStepMatchesOldSGDBits: Step gives the bits of the old optimizer at
// weight decay 0 for every finite parameter. The old loop computes
// g = gd + 0·p. For finite p, 0·p is a zero, so g differs from gd only
// when gd is −0 and 0·p is +0, giving g = +0; p − lr·(±0) is then p for
// p ≠ 0 and +0 for p = +0, the same either way. (An infinite p would make
// 0·p NaN, which is why the condition is needed.) Every (parameter,
// gradient) pair over ±0, subnormals, normals and values near the largest
// float is checked at several learning rates.
func TestStepMatchesOldSGDBits(t *testing.T) {
	vals := []float64{
		0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		0x1p-1030, -0x1p-1030, 0x1p-1022,
		1, -1, 0.1, -3.75,
		1e300, -1e300, math.MaxFloat64, -math.MaxFloat64,
	}
	n := len(vals)
	build := NewMLP(1, n, nil, n) // n·n + n parameters, ≥ n·n pairs
	for _, lr := range []float64{0.1, 0.02, 1, 3e-5} {
		a, b := build(), build()
		ps := make([]float64, a.NumParams())
		for i := range ps {
			ps[i] = vals[(i/n)%n]
		}
		a.SetParamsVector(ps)
		b.SetParamsVector(ps)
		for _, m := range []*Sequential{a, b} {
			off := 0
			for _, g := range m.Grads() {
				gd := g.Data()
				for i := range gd {
					gd[i] = vals[(off+i)%n]
				}
				off += len(gd)
			}
		}
		sgdStep(lr, 0, a.Params(), a.Grads())
		b.Step(lr)
		pa, pb := a.ParamsVector(), b.ParamsVector()
		for i := range pa {
			if math.Float64bits(pa[i]) != math.Float64bits(pb[i]) {
				t.Fatalf("lr %v, p %v, g %v: old SGD gives %v, Step %v", lr, ps[i], vals[i%n], pa[i], pb[i])
			}
		}
	}
}

func TestLeNetShapes(t *testing.T) {
	model := NewLeNet(1)()
	src := rng.New(2)
	x := randN(src, 1, 2, 1, 28, 28)
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
	x := randN(src, 1, 2, 3, 32, 32)
	logits := model.Forward(x, true)
	if logits.Dim(0) != 2 || logits.Dim(1) != 10 {
		t.Fatalf("MiniResNet output shape %v", logits.Shape())
	}
	_, d := SoftmaxCrossEntropy(logits, []int{4, 7})
	model.Backward(d)
}

func TestEvaluateBatching(t *testing.T) {
	src := rng.New(5)
	build := NewMLP(5, 6, nil, 3)
	model := build()
	x := randN(src, 1, 10, 6)
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
	if model.NumParams() != len(gradsVector(model)) {
		t.Fatal("NumParams disagrees with GradsVector length")
	}
}

func TestZeroGrads(t *testing.T) {
	src := rng.New(6)
	model := NewMLP(6, 4, nil, 2)()
	x := randN(src, 1, 3, 4)
	backwardGrads(model, x, []int{0, 1, 0})
	model.ZeroGrads()
	for _, g := range gradsVector(model) {
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
	x := randN(src, 1, 3, 4)
	labels := []int{0, 1, 0}
	g1 := append([]float64(nil), backwardGrads(model, x, labels)...)
	// Second pass without ZeroGrads.
	logits := model.Forward(x, true)
	_, d := SoftmaxCrossEntropy(logits, labels)
	model.Backward(d)
	g2 := gradsVector(model)
	for i := range g1 {
		if math.Abs(g2[i]-2*g1[i]) > 1e-9 {
			t.Fatalf("gradient not accumulated at %d: %v vs 2*%v", i, g2[i], g1[i])
		}
	}
}
