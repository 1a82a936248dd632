package nn

import (
	"fifl/internal/rng"
	"fifl/internal/tensor"
)

// ResidualBlock is a basic two-convolution residual block as in ResNet:
//
//	y = ReLU( Norm(conv2(ReLU(Norm(conv1(x))))) + shortcut(x) )
//
// When the block changes channel count or stride, the shortcut is a 1×1
// strided convolution followed by normalization; otherwise it is the
// identity. Normalization is GroupNorm rather than batch norm so the whole
// model state travels in the parameter vector (see GroupNorm's doc — this
// matters for federated parameter exchange).
type ResidualBlock struct {
	conv1 *Conv2D
	bn1   *GroupNorm
	relu1 *ReLU
	conv2 *Conv2D
	bn2   *GroupNorm
	relu2 *ReLU

	proj   *Conv2D // nil for identity shortcut
	projBN *GroupNorm

	sum *tensor.Tensor // kept main + shortcut, relu2's input
}

// NewResidualBlock builds a block that maps (inC, h, w) to
// (outC, h/stride, w/stride). h and w must be divisible by stride.
func NewResidualBlock(src *rng.Source, inC, outC, h, w, stride int) *ResidualBlock {
	oh, ow := h/stride, w/stride
	b := &ResidualBlock{
		conv1: NewConv2D(src, tensor.ConvGeom{InC: inC, InH: h, InW: w, KH: 3, KW: 3, Stride: stride, Pad: 1}, outC),
		bn1:   NewGroupNorm(groupsFor(outC), outC, oh, ow),
		relu1: NewReLU(),
		conv2: NewConv2D(src, tensor.ConvGeom{InC: outC, InH: oh, InW: ow, KH: 3, KW: 3, Stride: 1, Pad: 1}, outC),
		bn2:   NewGroupNorm(groupsFor(outC), outC, oh, ow),
		relu2: NewReLU(),
	}
	if inC != outC || stride != 1 {
		b.proj = NewConv2D(src, tensor.ConvGeom{InC: inC, InH: h, InW: w, KH: 1, KW: 1, Stride: stride, Pad: 0}, outC)
		b.projBN = NewGroupNorm(groupsFor(outC), outC, oh, ow)
	}
	return b
}

// Forward runs the residual computation.
func (b *ResidualBlock) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	main := b.conv1.Forward(x, train)
	main = b.bn1.Forward(main, train)
	main = b.relu1.Forward(main, train)
	main = b.conv2.Forward(main, train)
	main = b.bn2.Forward(main, train)

	var sc *tensor.Tensor
	if b.proj != nil {
		sc = b.proj.Forward(x, train)
		sc = b.projBN.Forward(sc, train)
	} else {
		sc = x
	}
	b.sum = tensor.Reuse(b.sum, main.Shape()...)
	sd, md, scd := b.sum.Data(), main.Data(), sc.Data()
	for i := range sd {
		sd[i] = md[i] + scd[i]
	}
	return b.relu2.Forward(b.sum, train)
}

// Backward propagates through both branches and sums the input gradients
// into conv1's input-gradient tensor, which it returns: the block owns
// conv1, so the rule of Layer holds for the block's result.
func (b *ResidualBlock) Backward(dy *tensor.Tensor) *tensor.Tensor {
	dSum := b.relu2.Backward(dy)
	// main branch
	d := b.bn2.Backward(dSum)
	d = b.conv2.Backward(d)
	d = b.relu1.Backward(d)
	d = b.bn1.Backward(d)
	dxMain := b.conv1.Backward(d)
	// shortcut branch
	if b.proj != nil {
		ds := b.projBN.Backward(dSum)
		dxShort := b.proj.Backward(ds)
		return dxMain.Add(dxShort)
	}
	return dxMain.Add(dSum)
}

// Params returns the parameters of all sublayers.
func (b *ResidualBlock) Params() []*tensor.Tensor {
	ps := append(b.conv1.Params(), b.bn1.Params()...)
	ps = append(ps, b.conv2.Params()...)
	ps = append(ps, b.bn2.Params()...)
	if b.proj != nil {
		ps = append(ps, b.proj.Params()...)
		ps = append(ps, b.projBN.Params()...)
	}
	return ps
}

// Grads returns the gradients of all sublayers, parallel to Params.
func (b *ResidualBlock) Grads() []*tensor.Tensor {
	gs := append(b.conv1.Grads(), b.bn1.Grads()...)
	gs = append(gs, b.conv2.Grads()...)
	gs = append(gs, b.bn2.Grads()...)
	if b.proj != nil {
		gs = append(gs, b.proj.Grads()...)
		gs = append(gs, b.projBN.Grads()...)
	}
	return gs
}
