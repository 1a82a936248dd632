package nn

import (
	"math"

	"fifl/internal/tensor"
)

// BatchNorm2D normalizes each channel of a (batch, C, H, W) activation over
// the batch and spatial dimensions, then applies a learned per-channel
// affine transform. Training mode uses batch statistics and maintains an
// exponential moving average for evaluation mode.
type BatchNorm2D struct {
	C, H, W  int
	Eps      float64
	Momentum float64

	Gamma, Beta *tensor.Tensor // learned scale and shift, shape (C)
	dG, dB      *tensor.Tensor
	RunMean     *tensor.Tensor // running statistics for eval mode
	RunVar      *tensor.Tensor

	// caches for backward
	xhat    []float64
	invStd  []float64
	lastN   int
	batched bool

	y, dx *tensor.Tensor // kept output and input gradient
}

// NewBatchNorm2D creates a batch-norm layer with gamma=1, beta=0.
func NewBatchNorm2D(c, h, w int) *BatchNorm2D {
	return &BatchNorm2D{
		C: c, H: h, W: w,
		Eps:      1e-5,
		Momentum: 0.1,
		Gamma:    tensor.Full(1, c),
		Beta:     tensor.New(c),
		dG:       tensor.New(c),
		dB:       tensor.New(c),
		RunMean:  tensor.New(c),
		RunVar:   tensor.Full(1, c),
	}
}

// Forward normalizes per channel. In training mode the batch statistics are
// used and folded into the running averages; in eval mode the running
// averages are used.
func (bn *BatchNorm2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	batch := x.Dim(0)
	hw := bn.H * bn.W
	n := batch * hw
	bn.y = tensor.Reuse(bn.y, batch, bn.C, bn.H, bn.W)
	if cap(bn.xhat) < x.Size() {
		bn.xhat = make([]float64, x.Size())
	}
	bn.xhat = bn.xhat[:x.Size()]
	if cap(bn.invStd) < bn.C {
		bn.invStd = make([]float64, bn.C)
	}
	bn.invStd = bn.invStd[:bn.C]
	bn.lastN = n
	bn.batched = train

	xd, yd := x.Data(), bn.y.Data()
	gd, bd := bn.Gamma.Data(), bn.Beta.Data()
	rm, rv := bn.RunMean.Data(), bn.RunVar.Data()

	for c := 0; c < bn.C; c++ {
		var mean, varr float64
		if train {
			s := 0.0
			for b := 0; b < batch; b++ {
				off := (b*bn.C + c) * hw
				for _, v := range xd[off : off+hw] {
					s += v
				}
			}
			mean = s / float64(n)
			s2 := 0.0
			for b := 0; b < batch; b++ {
				off := (b*bn.C + c) * hw
				for _, v := range xd[off : off+hw] {
					d := v - mean
					s2 += d * d
				}
			}
			varr = s2 / float64(n)
			rm[c] = (1-bn.Momentum)*rm[c] + bn.Momentum*mean
			rv[c] = (1-bn.Momentum)*rv[c] + bn.Momentum*varr
		} else {
			mean, varr = rm[c], rv[c]
		}
		inv := 1.0 / math.Sqrt(varr+bn.Eps)
		bn.invStd[c] = inv
		g, be := gd[c], bd[c]
		for b := 0; b < batch; b++ {
			off := (b*bn.C + c) * hw
			for i := off; i < off+hw; i++ {
				xh := (xd[i] - mean) * inv
				bn.xhat[i] = xh
				yd[i] = g*xh + be
			}
		}
	}
	return bn.y
}

// Backward implements the standard batch-norm gradient. In eval mode the
// statistics are treated as constants.
func (bn *BatchNorm2D) Backward(dy *tensor.Tensor) *tensor.Tensor {
	batch := dy.Dim(0)
	hw := bn.H * bn.W
	n := float64(bn.lastN)
	bn.dx = tensor.Reuse(bn.dx, batch, bn.C, bn.H, bn.W)
	dyd, dxd := dy.Data(), bn.dx.Data()
	gd := bn.Gamma.Data()
	dgd, dbd := bn.dG.Data(), bn.dB.Data()

	for c := 0; c < bn.C; c++ {
		var sumDy, sumDyXhat float64
		for b := 0; b < batch; b++ {
			off := (b*bn.C + c) * hw
			for i := off; i < off+hw; i++ {
				sumDy += dyd[i]
				sumDyXhat += dyd[i] * bn.xhat[i]
			}
		}
		dgd[c] += sumDyXhat
		dbd[c] += sumDy
		inv := bn.invStd[c]
		g := gd[c]
		if bn.batched {
			for b := 0; b < batch; b++ {
				off := (b*bn.C + c) * hw
				for i := off; i < off+hw; i++ {
					dxd[i] = g * inv / n * (n*dyd[i] - sumDy - bn.xhat[i]*sumDyXhat)
				}
			}
		} else {
			for b := 0; b < batch; b++ {
				off := (b*bn.C + c) * hw
				for i := off; i < off+hw; i++ {
					dxd[i] = g * inv * dyd[i]
				}
			}
		}
	}
	return bn.dx
}

// Params returns {Gamma, Beta}.
func (bn *BatchNorm2D) Params() []*tensor.Tensor { return []*tensor.Tensor{bn.Gamma, bn.Beta} }

// Grads returns {dGamma, dBeta}.
func (bn *BatchNorm2D) Grads() []*tensor.Tensor { return []*tensor.Tensor{bn.dG, bn.dB} }
