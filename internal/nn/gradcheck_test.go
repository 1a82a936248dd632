package nn

import (
	"math"
	"testing"

	"fifl/internal/rng"
	"fifl/internal/tensor"
)

// lossOf runs a forward pass and returns the cross-entropy loss — the
// scalar function all gradient checks differentiate.
func lossOf(model *Sequential, x *tensor.Tensor, labels []int) float64 {
	logits := model.Forward(x, true)
	loss, _ := SoftmaxCrossEntropy(logits, labels)
	return loss
}

// backwardGrads runs forward+backward and returns the flat parameter
// gradient.
func backwardGrads(model *Sequential, x *tensor.Tensor, labels []int) []float64 {
	model.ZeroGrads()
	logits := model.Forward(x, true)
	_, d := SoftmaxCrossEntropy(logits, labels)
	model.Backward(d)
	return gradsVector(model)
}

// checkModelGradients compares analytic parameter gradients with central
// finite differences at a sample of coordinates.
func checkModelGradients(t *testing.T, model *Sequential, x *tensor.Tensor, labels []int, probes int, tol float64) {
	t.Helper()
	analytic := backwardGrads(model, x, labels)
	params := model.ParamsVector()
	src := rng.New(123)
	const eps = 1e-5
	for p := 0; p < probes; p++ {
		i := src.Intn(len(params))
		orig := params[i]
		params[i] = orig + eps
		model.SetParamsVector(params)
		lp := lossOf(model, x, labels)
		params[i] = orig - eps
		model.SetParamsVector(params)
		lm := lossOf(model, x, labels)
		params[i] = orig
		model.SetParamsVector(params)
		numeric := (lp - lm) / (2 * eps)
		if diff := math.Abs(numeric - analytic[i]); diff > tol*(1+math.Abs(numeric)) {
			t.Fatalf("gradient mismatch at param %d: analytic %v, numeric %v", i, analytic[i], numeric)
		}
	}
}

func TestLinearGradient(t *testing.T) {
	src := rng.New(1)
	model := NewSequential(NewLinear(src, 6, 4), NewReLU(), NewLinear(src.Split("2"), 4, 3))
	x := randN(src, 1, 5, 6)
	labels := []int{0, 1, 2, 1, 0}
	checkModelGradients(t, model, x, labels, 40, 1e-4)
}

func TestConvGradient(t *testing.T) {
	src := rng.New(2)
	model := NewSequential(
		NewConv2D(src, tensor.ConvGeom{InC: 2, InH: 6, InW: 6, KH: 3, KW: 3, Stride: 1, Pad: 1}, 3),
		NewReLU(),
		NewFlatten(),
		NewLinear(src.Split("fc"), 3*6*6, 4),
	)
	x := randN(src, 1, 3, 2, 6, 6)
	labels := []int{0, 3, 1}
	checkModelGradients(t, model, x, labels, 40, 1e-4)
}

func TestConvStridedGradient(t *testing.T) {
	src := rng.New(3)
	model := NewSequential(
		NewConv2D(src, tensor.ConvGeom{InC: 1, InH: 8, InW: 8, KH: 3, KW: 3, Stride: 2, Pad: 1}, 2),
		NewFlatten(),
		NewLinear(src.Split("fc"), 2*4*4, 3),
	)
	x := randN(src, 1, 2, 1, 8, 8)
	labels := []int{1, 2}
	checkModelGradients(t, model, x, labels, 40, 1e-4)
}

func TestMaxPoolGradient(t *testing.T) {
	src := rng.New(4)
	model := NewSequential(
		NewConv2D(src, tensor.ConvGeom{InC: 1, InH: 8, InW: 8, KH: 3, KW: 3, Stride: 1, Pad: 1}, 2),
		NewMaxPool2D(2, 8, 8, 2),
		NewFlatten(),
		NewLinear(src.Split("fc"), 2*4*4, 3),
	)
	x := randN(src, 1, 2, 1, 8, 8)
	labels := []int{0, 2}
	checkModelGradients(t, model, x, labels, 40, 1e-4)
}

func TestGroupNormGradient(t *testing.T) {
	src := rng.New(55)
	model := NewSequential(
		NewConv2D(src, tensor.ConvGeom{InC: 1, InH: 6, InW: 6, KH: 3, KW: 3, Stride: 1, Pad: 1}, 4),
		NewGroupNorm(2, 4, 6, 6),
		NewReLU(),
		NewFlatten(),
		NewLinear(src.Split("fc"), 4*6*6, 3),
	)
	x := randN(src, 1, 3, 1, 6, 6)
	labels := []int{0, 1, 2}
	checkModelGradients(t, model, x, labels, 50, 2e-4)
}

func TestGroupNormBadGroupsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewGroupNorm(3, 4, 2, 2)
}

func TestResidualBlockGradient(t *testing.T) {
	src := rng.New(6)
	model := NewSequential(
		NewResidualBlock(src, 2, 4, 6, 6, 2), // projection shortcut, stride 2
		NewGlobalAvgPool(4, 3, 3),
		NewLinear(src.Split("fc"), 4, 3),
	)
	x := randN(src, 1, 3, 2, 6, 6)
	labels := []int{0, 1, 2}
	checkModelGradients(t, model, x, labels, 50, 2e-4)
}

func TestResidualIdentityBlockGradient(t *testing.T) {
	src := rng.New(7)
	model := NewSequential(
		NewResidualBlock(src, 3, 3, 4, 4, 1), // identity shortcut
		NewGlobalAvgPool(3, 4, 4),
		NewLinear(src.Split("fc"), 3, 2),
	)
	x := randN(src, 1, 2, 3, 4, 4)
	labels := []int{0, 1}
	checkModelGradients(t, model, x, labels, 40, 2e-4)
}

func TestGlobalAvgPoolGradient(t *testing.T) {
	src := rng.New(8)
	model := NewSequential(
		NewConv2D(src, tensor.ConvGeom{InC: 1, InH: 4, InW: 4, KH: 1, KW: 1, Stride: 1, Pad: 0}, 3),
		NewGlobalAvgPool(3, 4, 4),
		NewLinear(src.Split("fc"), 3, 2),
	)
	x := randN(src, 1, 3, 1, 4, 4)
	labels := []int{0, 1, 1}
	checkModelGradients(t, model, x, labels, 30, 1e-4)
}

// TestInputGradient verifies the gradient w.r.t. the INPUT as well; this
// exercises every Backward return path. Sequential.Backward stops at the
// first layer with parameters, so the test walks the layers itself.
func TestInputGradient(t *testing.T) {
	src := rng.New(9)
	model := NewSequential(
		NewConv2D(src, tensor.ConvGeom{InC: 1, InH: 5, InW: 5, KH: 3, KW: 3, Stride: 1, Pad: 1}, 2),
		NewReLU(),
		NewFlatten(),
		NewLinear(src.Split("fc"), 2*5*5, 3),
	)
	x := randN(src, 1, 2, 1, 5, 5)
	labels := []int{0, 2}

	model.ZeroGrads()
	logits := model.Forward(x, true)
	_, d := SoftmaxCrossEntropy(logits, labels)
	dx := d
	for i := len(model.Layers) - 1; i >= 0; i-- {
		dx = model.Layers[i].Backward(dx)
	}

	const eps = 1e-5
	probe := rng.New(10)
	for p := 0; p < 30; p++ {
		i := probe.Intn(x.Size())
		orig := x.Data()[i]
		x.Data()[i] = orig + eps
		lp := lossOf(model, x, labels)
		x.Data()[i] = orig - eps
		lm := lossOf(model, x, labels)
		x.Data()[i] = orig
		numeric := (lp - lm) / (2 * eps)
		if diff := math.Abs(numeric - dx.Data()[i]); diff > 1e-4*(1+math.Abs(numeric)) {
			t.Fatalf("input gradient mismatch at %d: analytic %v, numeric %v", i, dx.Data()[i], numeric)
		}
	}
}
