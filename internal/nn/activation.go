package nn

import "fifl/internal/tensor"

// ReLU is the rectified linear activation, applied element-wise.
type ReLU struct {
	mask  []bool
	y, dx *tensor.Tensor // kept output and input gradient
}

// NewReLU creates a ReLU layer.
func NewReLU() *ReLU { return &ReLU{} }

// Forward zeroes negative activations and records the active mask.
func (r *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	r.y = tensor.Reuse(r.y, x.Shape()...)
	if cap(r.mask) < x.Size() {
		r.mask = make([]bool, x.Size())
	}
	r.mask = r.mask[:x.Size()]
	yd := r.y.Data()
	for i, v := range x.Data() {
		if v > 0 {
			r.mask[i] = true
			yd[i] = v
		} else {
			r.mask[i] = false
			yd[i] = 0
		}
	}
	return r.y
}

// Backward masks the gradient by the recorded activation pattern.
func (r *ReLU) Backward(dy *tensor.Tensor) *tensor.Tensor {
	r.dx = tensor.Reuse(r.dx, dy.Shape()...)
	dxd := r.dx.Data()
	for i, v := range dy.Data() {
		if r.mask[i] {
			dxd[i] = v
		} else {
			dxd[i] = 0
		}
	}
	return r.dx
}

// Params returns nil: ReLU has no parameters.
func (r *ReLU) Params() []*tensor.Tensor { return nil }

// Grads returns nil: ReLU has no parameters.
func (r *ReLU) Grads() []*tensor.Tensor { return nil }
