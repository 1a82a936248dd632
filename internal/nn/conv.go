package nn

import (
	"math"

	"fifl/internal/parallel"
	"fifl/internal/rng"
	"fifl/internal/tensor"
)

// Conv2D is a 2-D convolution over (batch, inC, H, W) inputs, lowered onto
// matrix multiplication with im2col. Batch items are processed in parallel
// chunks; parameter gradients are accumulated into one partial per chunk,
// merged into dW and dB in chunk order after the loop so the sum has the
// same bits on every run.
type Conv2D struct {
	Geom   tensor.ConvGeom
	OutC   int
	W      *tensor.Tensor // (outC, inC*kh*kw)
	B      *tensor.Tensor // (outC)
	dW, dB *tensor.Tensor

	cols    []float64      // im2col output: the whole batch in training, one item per chunk in evaluation
	y, dx   *tensor.Tensor // kept output and input gradient
	dWParts []float64      // one dW partial per chunk of the batch
	dBParts []float64      // one dB partial per chunk of the batch
	dCols   []float64      // per-chunk column-gradient scratch
}

// NewConv2D creates a convolution layer with He-uniform initialization.
// It panics if the geometry is invalid.
func NewConv2D(src *rng.Source, g tensor.ConvGeom, outC int) *Conv2D {
	if err := g.Validate(); err != nil {
		panic(err)
	}
	k := g.InC * g.KH * g.KW
	c := &Conv2D{
		Geom: g,
		OutC: outC,
		W:    tensor.New(outC, k),
		B:    tensor.New(outC),
		dW:   tensor.New(outC, k),
		dB:   tensor.New(outC),
	}
	bound := math.Sqrt(6.0 / float64(k))
	src.FillUniform(c.W.Data(), -bound, bound)
	return c
}

// grow returns buf resliced to n elements, reallocating only when its
// capacity is short. The contents are stale.
func grow(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// Forward computes the convolution for a (batch, inC, H, W) input and
// returns a (batch, outC, outH, outW) output. A training pass keeps every
// item's im2col columns for Backward; an evaluation pass lowers each item
// into its chunk's one-item slot and keeps nothing, so Backward requires a
// training Forward. Each output is a sum over its own item's columns, so
// both passes give the same bits.
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	g := c.Geom
	batch := x.Dim(0)
	c.y = tensor.Reuse(c.y, batch, c.OutC, g.OutH(), g.OutW())
	// The chunk bodies are methods and their closures capture a few
	// words, so each call allocates only a small closure.
	if train {
		c.cols = grow(c.cols, batch*c.colsLen())
		parallel.ForChunked(batch, func(lo, hi int) { c.forwardItems(x, lo, hi, -1) })
	} else {
		c.cols = grow(c.cols, parallel.NumChunks(batch)*c.colsLen())
		parallel.ForChunks(batch, func(ch, lo, hi int) { c.forwardItems(x, lo, hi, ch) })
	}
	return c.y
}

// colsLen is the length of one batch item's im2col matrix.
func (c *Conv2D) colsLen() int {
	g := c.Geom
	return g.OutH() * g.OutW() * g.InC * g.KH * g.KW
}

// forwardItems lowers batch items [lo,hi) of x with im2col into c.cols and
// writes their outputs into c.y: item b into slot b, or every item into
// slot `slot` when it is not negative.
func (c *Conv2D) forwardItems(x *tensor.Tensor, lo, hi, slot int) {
	g := c.Geom
	inSize := g.InC * g.InH * g.InW
	p := g.OutH() * g.OutW()
	k := g.InC * g.KH * g.KW
	xd, yd, wd, bd := x.Data(), c.y.Data(), c.W.Data(), c.B.Data()
	for b := lo; b < hi; b++ {
		s := b
		if slot >= 0 {
			s = slot
		}
		cols := c.cols[s*p*k : (s+1)*p*k]
		tensor.Im2Col(cols, xd[b*inSize:(b+1)*inSize], g)
		out := yd[b*c.OutC*p : (b+1)*c.OutC*p]
		// out[o*p+q] = bias[o] + Σ_k W[o,k]·cols[q,k]
		for o := 0; o < c.OutC; o++ {
			wo := wd[o*k : (o+1)*k]
			oo := out[o*p : (o+1)*p]
			bias := bd[o]
			for q := 0; q < p; q++ {
				cq := cols[q*k : (q+1)*k]
				s := bias
				for i, wv := range wo {
					s += wv * cq[i]
				}
				oo[q] = s
			}
		}
	}
}

// Backward propagates a (batch, outC, outH, outW) gradient, accumulating
// dW and dB and returning the (batch, inC, H, W) input gradient. The last
// Forward must have been a training one.
func (c *Conv2D) Backward(dy *tensor.Tensor) *tensor.Tensor {
	c.accumulateGrads(dy)
	return c.inputGrad(dy)
}

// accumulateGrads is the parameter half of Backward: each chunk of the
// batch sums its dW and dB into its own partial, and the partials are
// added into dW and dB in chunk order.
func (c *Conv2D) accumulateGrads(dy *tensor.Tensor) {
	chunks := parallel.NumChunks(dy.Dim(0))
	wn := c.W.Size()
	c.dWParts = grow(c.dWParts, chunks*wn)
	c.dBParts = grow(c.dBParts, chunks*c.OutC)
	parallel.ForChunks(dy.Dim(0), func(ch, lo, hi int) { c.accumulateItems(dy, ch, lo, hi) })
	dwd, dbd := c.dW.Data(), c.dB.Data()
	for ch := 0; ch < chunks; ch++ {
		for i, v := range c.dWParts[ch*wn : (ch+1)*wn] {
			dwd[i] += v
		}
		for i, v := range c.dBParts[ch*c.OutC : (ch+1)*c.OutC] {
			dbd[i] += v
		}
	}
}

// accumulateItems zeroes chunk ch's dW and dB partials and sums batch
// items [lo,hi) of dy into them: dW[o] += dy[o,q]·cols[q], dB[o] += dy[o,q].
func (c *Conv2D) accumulateItems(dy *tensor.Tensor, ch, lo, hi int) {
	g := c.Geom
	p := g.OutH() * g.OutW()
	k := g.InC * g.KH * g.KW
	localDW := c.dWParts[ch*c.W.Size() : (ch+1)*c.W.Size()]
	localDB := c.dBParts[ch*c.OutC : (ch+1)*c.OutC]
	clear(localDW)
	clear(localDB)
	dyd := dy.Data()
	for b := lo; b < hi; b++ {
		cols := c.cols[b*p*k : (b+1)*p*k]
		dout := dyd[b*c.OutC*p : (b+1)*c.OutC*p]
		for o := 0; o < c.OutC; o++ {
			do := dout[o*p : (o+1)*p]
			dwo := localDW[o*k : (o+1)*k]
			for q := 0; q < p; q++ {
				gv := do[q]
				if gv == 0 {
					continue
				}
				localDB[o] += gv
				cq := cols[q*k : (q+1)*k]
				for i, cv := range cq {
					dwo[i] += gv * cv
				}
			}
		}
	}
}

// inputGrad is the input half of Backward: each batch item's column
// gradient dCols = dYᵀ·W, scattered back onto the image by Col2Im.
func (c *Conv2D) inputGrad(dy *tensor.Tensor) *tensor.Tensor {
	g := c.Geom
	batch := dy.Dim(0)
	c.dx = tensor.Reuse(c.dx, batch, g.InC, g.InH, g.InW)
	c.dCols = grow(c.dCols, parallel.NumChunks(batch)*c.colsLen())
	parallel.ForChunks(batch, func(ch, lo, hi int) { c.inputGradItems(dy, ch, lo, hi) })
	return c.dx
}

// inputGradItems writes the input gradient of batch items [lo,hi) into
// c.dx, through chunk ch's column-gradient scratch.
func (c *Conv2D) inputGradItems(dy *tensor.Tensor, ch, lo, hi int) {
	g := c.Geom
	inSize := g.InC * g.InH * g.InW
	p := g.OutH() * g.OutW()
	k := g.InC * g.KH * g.KW
	dCols := c.dCols[ch*p*k : (ch+1)*p*k]
	dyd, dxd, wd := dy.Data(), c.dx.Data(), c.W.Data()
	for b := lo; b < hi; b++ {
		dout := dyd[b*c.OutC*p : (b+1)*c.OutC*p]
		clear(dCols)
		for o := 0; o < c.OutC; o++ {
			do := dout[o*p : (o+1)*p]
			wo := wd[o*k : (o+1)*k]
			for q := 0; q < p; q++ {
				gv := do[q]
				if gv == 0 {
					continue
				}
				dcq := dCols[q*k : (q+1)*k]
				for i, wv := range wo {
					dcq[i] += gv * wv
				}
			}
		}
		img := dxd[b*inSize : (b+1)*inSize]
		clear(img)
		tensor.Col2Im(img, dCols, g)
	}
}

// Params returns {W, B}.
func (c *Conv2D) Params() []*tensor.Tensor { return []*tensor.Tensor{c.W, c.B} }

// Grads returns {dW, dB}.
func (c *Conv2D) Grads() []*tensor.Tensor { return []*tensor.Tensor{c.dW, c.dB} }
