// Package nn implements the neural-network training engine the FIFL
// reproduction runs on: layers with hand-written backward passes, the LeNet
// and mini-ResNet architectures the paper trains, softmax cross-entropy, and
// SGD. The engine exposes parameters and gradients as flat vectors so the
// federated-learning runtime can slice, ship and aggregate them exactly the
// way the paper's polycentric architecture does.
//
// A local step computes only what a worker uploads, in buffers the model
// keeps. Two rules make that so:
//
//   - Ownership: every layer keeps its output and input-gradient tensors
//     and its scratch, reallocating only when the batch shape changes. A
//     tensor a layer returns is valid until that layer's next Forward or
//     Backward (see Layer).
//   - First layer: a worker uploads parameter gradients only, so
//     Sequential.Backward stops at the first layer with parameters, which
//     accumulates its dW and dB and computes no input gradient. Linear and
//     Conv2D write Backward as "accumulate the parameter gradients, then
//     compute dX", and that layer runs the first half alone. A caller that
//     wants the input gradient walks Layers in reverse itself.
package nn

import (
	"fifl/internal/tensor"
)

// Layer is one differentiable stage of a network. Forward consumes the
// previous activation and caches whatever Backward needs; Backward consumes
// the gradient w.r.t. the layer output and returns the gradient w.r.t. the
// layer input, accumulating parameter gradients internally.
//
// A layer keeps its output and input-gradient tensors, and its scratch,
// across calls, reallocating only when the batch shape changes: a tensor
// returned by Forward or Backward is valid until that layer's next Forward
// or Backward, which overwrites it. A caller that needs it longer must
// Clone it. Forward may cache its input x by reference until the next
// Backward, so x must not change in between.
//
// Layers are stateful (they cache activations and buffers between calls)
// and therefore not safe for concurrent use; the FL runtime gives every
// worker its own model replica.
type Layer interface {
	// Forward computes the layer output. train says whether a Backward
	// follows; Conv2D is the only reader, and with train false it skips
	// keeping the whole-batch im2col buffer that only Backward needs.
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	// Backward computes the input gradient from the output gradient and
	// accumulates parameter gradients.
	Backward(dy *tensor.Tensor) *tensor.Tensor
	// Params returns the layer's trainable parameter tensors (possibly
	// empty). The returned tensors alias layer state.
	Params() []*tensor.Tensor
	// Grads returns gradient tensors parallel to Params.
	Grads() []*tensor.Tensor
}

// paramGradLayer is a layer whose Backward is "accumulate the parameter
// gradients, then compute dX": accumulateGrads is the first half, all a
// network's first layer with parameters needs.
type paramGradLayer interface {
	accumulateGrads(dy *tensor.Tensor)
}

// Sequential chains layers into a network. Build it with NewSequential:
// it indexes the layers' parameter and gradient tensors once, so Layers
// must not change afterwards.
type Sequential struct {
	Layers []Layer

	params, grads []*tensor.Tensor // every layer's, in layer order
	firstParam    int              // index of the first layer with parameters, -1 if none
}

// NewSequential builds a network from the given layers.
func NewSequential(layers ...Layer) *Sequential {
	s := &Sequential{Layers: layers, firstParam: -1}
	for i, l := range layers {
		ps := l.Params()
		if len(ps) > 0 && s.firstParam < 0 {
			s.firstParam = i
		}
		s.params = append(s.params, ps...)
		s.grads = append(s.grads, l.Grads()...)
	}
	return s
}

// Forward runs all layers in order. The returned logits are the last
// layer's output tensor (see Layer for how long it stays valid).
func (s *Sequential) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	for _, l := range s.Layers {
		x = l.Forward(x, train)
	}
	return x
}

// Backward runs the layers in reverse order, accumulating every parameter
// gradient. It stops at the first layer with parameters, which accumulates
// its own parameter gradients only: nothing reads the gradient with
// respect to the network input (a worker uploads parameter gradients), so
// it is never computed. Layers below that one are not visited.
func (s *Sequential) Backward(dy *tensor.Tensor) {
	if s.firstParam < 0 {
		return
	}
	for i := len(s.Layers) - 1; i > s.firstParam; i-- {
		dy = s.Layers[i].Backward(dy)
	}
	if l, ok := s.Layers[s.firstParam].(paramGradLayer); ok {
		l.accumulateGrads(dy)
	} else {
		s.Layers[s.firstParam].Backward(dy)
	}
}

// Params returns every trainable tensor in layer order. The slice is the
// model's own index: callers must not modify it.
func (s *Sequential) Params() []*tensor.Tensor { return s.params[:len(s.params):len(s.params)] }

// Grads returns every gradient tensor in layer order, parallel to Params.
// The slice is the model's own index: callers must not modify it.
func (s *Sequential) Grads() []*tensor.Tensor { return s.grads[:len(s.grads):len(s.grads)] }

// ZeroGrads resets all accumulated gradients.
func (s *Sequential) ZeroGrads() {
	for _, g := range s.grads {
		g.Zero()
	}
}

// NumParams returns the total number of scalar parameters.
func (s *Sequential) NumParams() int {
	n := 0
	for _, p := range s.Params() {
		n += p.Size()
	}
	return n
}

// ParamsVector copies all parameters into one flat vector in layer order.
func (s *Sequential) ParamsVector() []float64 {
	out := make([]float64, 0, s.NumParams())
	for _, p := range s.Params() {
		out = append(out, p.Data()...)
	}
	return out
}

// SetParamsVector overwrites all parameters from a flat vector produced by
// ParamsVector on a model of identical architecture. It panics on length
// mismatch.
func (s *Sequential) SetParamsVector(v []float64) {
	off := 0
	for _, p := range s.Params() {
		n := copy(p.Data(), v[off:off+p.Size()])
		off += n
	}
	if off != len(v) {
		panic("nn: SetParamsVector length mismatch")
	}
}

// AddGradsTo adds all accumulated gradients into acc, flat in layer
// order and parallel to ParamsVector. It panics on length mismatch.
func (s *Sequential) AddGradsTo(acc []float64) {
	if len(acc) != s.NumParams() {
		panic("nn: AddGradsTo length mismatch")
	}
	off := 0
	for _, g := range s.grads {
		gd := g.Data()
		dst := acc[off : off+len(gd)]
		for i, v := range gd {
			dst[i] += v
		}
		off += len(gd)
	}
}

// Step moves the parameters down their accumulated gradients, θ ← θ −
// lr·g: the plain SGD step of the paper's Eq. 3, for a worker's local
// training and for the experiments' central warm-up alike.
func (s *Sequential) Step(lr float64) {
	for j, g := range s.grads {
		pd := s.params[j].Data()
		for i, v := range g.Data() {
			pd[i] -= lr * v
		}
	}
}
