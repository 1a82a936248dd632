package nn

import (
	"math"

	"fifl/internal/rng"
	"fifl/internal/tensor"
)

// Linear is a fully connected layer: y = x·Wᵀ + b with W of shape
// (out, in) and input of shape (batch, in).
type Linear struct {
	W, B   *tensor.Tensor
	dW, dB *tensor.Tensor
	x      *tensor.Tensor // cached input for backward

	y, dx   *tensor.Tensor // kept output and input gradient
	dWBatch *tensor.Tensor // dYᵀ·x scratch, added into dW
}

// NewLinear creates a fully connected layer with He-uniform initialization.
func NewLinear(src *rng.Source, in, out int) *Linear {
	l := &Linear{
		W:  tensor.New(out, in),
		B:  tensor.New(out),
		dW: tensor.New(out, in),
		dB: tensor.New(out),
	}
	bound := math.Sqrt(6.0 / float64(in))
	src.FillUniform(l.W.Data(), -bound, bound)
	return l
}

// Forward computes y = x·Wᵀ + b.
func (l *Linear) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	l.x = x
	batch, out := x.Dim(0), l.W.Dim(0)
	l.y = tensor.Reuse(l.y, batch, out)
	tensor.MatMulT2Into(l.y, x, l.W)
	yd, bd := l.y.Data(), l.B.Data()
	for i := 0; i < batch; i++ {
		row := yd[i*out : (i+1)*out]
		for j := range row {
			row[j] += bd[j]
		}
	}
	return l.y
}

// Backward accumulates dW = dYᵀ·x and dB = Σ rows(dY), and returns
// dX = dY·W.
func (l *Linear) Backward(dy *tensor.Tensor) *tensor.Tensor {
	l.accumulateGrads(dy)
	l.dx = tensor.Reuse(l.dx, dy.Dim(0), l.W.Dim(1))
	tensor.MatMulInto(l.dx, dy, l.W)
	return l.dx
}

// accumulateGrads is the parameter half of Backward: dW += dYᵀ·x and
// dB += Σ rows(dY).
func (l *Linear) accumulateGrads(dy *tensor.Tensor) {
	l.dWBatch = tensor.Reuse(l.dWBatch, l.dW.Shape()...)
	tensor.MatMulT1Into(l.dWBatch, dy, l.x)
	l.dW.Add(l.dWBatch)
	batch, out := dy.Dim(0), dy.Dim(1)
	dyd, dbd := dy.Data(), l.dB.Data()
	for i := 0; i < batch; i++ {
		row := dyd[i*out : (i+1)*out]
		for j, v := range row {
			dbd[j] += v
		}
	}
}

// Params returns {W, B}.
func (l *Linear) Params() []*tensor.Tensor { return []*tensor.Tensor{l.W, l.B} }

// Grads returns {dW, dB}.
func (l *Linear) Grads() []*tensor.Tensor { return []*tensor.Tensor{l.dW, l.dB} }
