package nn

import (
	"fifl/internal/parallel"
	"fifl/internal/tensor"
)

// MaxPool2D is a non-overlapping max pooling layer over
// (batch, C, H, W) inputs with a square window of the given size.
type MaxPool2D struct {
	Size    int
	C, H, W int // input geometry

	argmax []int          // flat index into the input of each output's winner
	y, dx  *tensor.Tensor // kept output and input gradient
}

// NewMaxPool2D creates a max-pool layer. H and W must be divisible by size.
func NewMaxPool2D(c, h, w, size int) *MaxPool2D {
	if h%size != 0 || w%size != 0 {
		panic("nn: MaxPool2D input not divisible by window size")
	}
	return &MaxPool2D{Size: size, C: c, H: h, W: w}
}

// Forward computes the max over each window and records winner positions.
func (m *MaxPool2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	batch := x.Dim(0)
	m.y = tensor.Reuse(m.y, batch, m.C, m.H/m.Size, m.W/m.Size)
	if cap(m.argmax) < m.y.Size() {
		m.argmax = make([]int, m.y.Size())
	}
	m.argmax = m.argmax[:m.y.Size()]
	parallel.ForChunked(batch*m.C, func(lo, hi int) { m.forwardMaps(x, lo, hi) })
	return m.y
}

// forwardMaps pools the (sample, channel) maps [lo,hi) of x into m.y.
func (m *MaxPool2D) forwardMaps(x *tensor.Tensor, lo, hi int) {
	oh, ow := m.H/m.Size, m.W/m.Size
	xd, yd := x.Data(), m.y.Data()
	for bc := lo; bc < hi; bc++ {
		in := xd[bc*m.H*m.W : (bc+1)*m.H*m.W]
		outBase := bc * oh * ow
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				bestIdx := oy*m.Size*m.W + ox*m.Size
				best := in[bestIdx]
				for ky := 0; ky < m.Size; ky++ {
					rowBase := (oy*m.Size + ky) * m.W
					for kx := 0; kx < m.Size; kx++ {
						idx := rowBase + ox*m.Size + kx
						if in[idx] > best {
							best = in[idx]
							bestIdx = idx
						}
					}
				}
				yd[outBase+oy*ow+ox] = best
				m.argmax[outBase+oy*ow+ox] = bc*m.H*m.W + bestIdx
			}
		}
	}
}

// Backward routes each output gradient to its winning input position.
func (m *MaxPool2D) Backward(dy *tensor.Tensor) *tensor.Tensor {
	m.dx = tensor.Reuse(m.dx, dy.Dim(0), m.C, m.H, m.W)
	dxd := m.dx.Zero().Data()
	for i, v := range dy.Data() {
		dxd[m.argmax[i]] += v
	}
	return m.dx
}

// Params returns nil: pooling has no parameters.
func (m *MaxPool2D) Params() []*tensor.Tensor { return nil }

// Grads returns nil: pooling has no parameters.
func (m *MaxPool2D) Grads() []*tensor.Tensor { return nil }

// GlobalAvgPool averages each channel over its spatial extent, turning
// (batch, C, H, W) into (batch, C). Used by the mini-ResNet head.
type GlobalAvgPool struct {
	C, H, W int

	y, dx *tensor.Tensor // kept output and input gradient
}

// NewGlobalAvgPool creates a global average pooling layer.
func NewGlobalAvgPool(c, h, w int) *GlobalAvgPool {
	return &GlobalAvgPool{C: c, H: h, W: w}
}

// Forward averages each channel map.
func (g *GlobalAvgPool) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	batch := x.Dim(0)
	hw := g.H * g.W
	g.y = tensor.Reuse(g.y, batch, g.C)
	xd, yd := x.Data(), g.y.Data()
	inv := 1.0 / float64(hw)
	for bc := 0; bc < batch*g.C; bc++ {
		s := 0.0
		for _, v := range xd[bc*hw : (bc+1)*hw] {
			s += v
		}
		yd[bc] = s * inv
	}
	return g.y
}

// Backward spreads each channel gradient uniformly over its spatial extent.
func (g *GlobalAvgPool) Backward(dy *tensor.Tensor) *tensor.Tensor {
	batch := dy.Dim(0)
	hw := g.H * g.W
	g.dx = tensor.Reuse(g.dx, batch, g.C, g.H, g.W)
	dxd, dyd := g.dx.Data(), dy.Data()
	inv := 1.0 / float64(hw)
	for bc := 0; bc < batch*g.C; bc++ {
		v := dyd[bc] * inv
		out := dxd[bc*hw : (bc+1)*hw]
		for i := range out {
			out[i] = v
		}
	}
	return g.dx
}

// Params returns nil: pooling has no parameters.
func (g *GlobalAvgPool) Params() []*tensor.Tensor { return nil }

// Grads returns nil: pooling has no parameters.
func (g *GlobalAvgPool) Grads() []*tensor.Tensor { return nil }

// Flatten reshapes (batch, ...) activations to (batch, features).
type Flatten struct {
	inShape []int
}

// NewFlatten creates a flatten layer.
func NewFlatten() *Flatten { return &Flatten{} }

// Forward flattens all non-batch axes.
func (f *Flatten) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	f.inShape = append(f.inShape[:0], x.Shape()...)
	return x.Reshape(x.Dim(0), x.Size()/x.Dim(0))
}

// Backward restores the original shape.
func (f *Flatten) Backward(dy *tensor.Tensor) *tensor.Tensor {
	return dy.Reshape(f.inShape...)
}

// Params returns nil: flatten has no parameters.
func (f *Flatten) Params() []*tensor.Tensor { return nil }

// Grads returns nil: flatten has no parameters.
func (f *Flatten) Grads() []*tensor.Tensor { return nil }
