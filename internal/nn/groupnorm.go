package nn

import (
	"math"

	"fifl/internal/tensor"
)

// GroupNorm normalizes each sample's activations within channel groups and
// applies a learned per-channel affine transform. Unlike batch norm it
// carries no cross-batch running state, which makes it the standard
// normalization for federated learning: all of a model's behaviour lives in
// its parameter vector, so exchanging parameters (as the FL runtime does)
// exchanges the whole model. Batch norm's running statistics would be left
// behind by the parameter exchange and silently skew server-side
// evaluation — the residual networks in this package therefore use
// GroupNorm.
type GroupNorm struct {
	C, H, W int
	Groups  int
	Eps     float64

	Gamma, Beta *tensor.Tensor // learned per-channel scale and shift
	dG, dB      *tensor.Tensor

	// caches for backward
	xhat   []float64
	invStd []float64 // per (sample, group)

	y, dx *tensor.Tensor // kept output and input gradient
}

// NewGroupNorm creates a group-norm layer with gamma=1, beta=0. groups must
// divide c.
func NewGroupNorm(groups, c, h, w int) *GroupNorm {
	if groups <= 0 || c%groups != 0 {
		panic("nn: GroupNorm groups must divide channels")
	}
	return &GroupNorm{
		C: c, H: h, W: w,
		Groups: groups,
		Eps:    1e-5,
		Gamma:  tensor.Full(1, c),
		Beta:   tensor.New(c),
		dG:     tensor.New(c),
		dB:     tensor.New(c),
	}
}

// groupsFor picks a sensible group count for a channel width.
func groupsFor(c int) int {
	for _, g := range []int{8, 4, 2} {
		if c%g == 0 && c >= g {
			return g
		}
	}
	return 1
}

// Forward normalizes each (sample, group) block to zero mean and unit
// variance, then applies the affine transform.
func (gn *GroupNorm) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	batch := x.Dim(0)
	hw := gn.H * gn.W
	chPerG := gn.C / gn.Groups
	blk := chPerG * hw
	gn.y = tensor.Reuse(gn.y, batch, gn.C, gn.H, gn.W)
	if cap(gn.xhat) < x.Size() {
		gn.xhat = make([]float64, x.Size())
	}
	gn.xhat = gn.xhat[:x.Size()]
	ng := batch * gn.Groups
	if cap(gn.invStd) < ng {
		gn.invStd = make([]float64, ng)
	}
	gn.invStd = gn.invStd[:ng]

	xd, yd := x.Data(), gn.y.Data()
	gd, bd := gn.Gamma.Data(), gn.Beta.Data()
	for b := 0; b < batch; b++ {
		for g := 0; g < gn.Groups; g++ {
			off := b*gn.C*hw + g*blk
			sum := 0.0
			for i := off; i < off+blk; i++ {
				sum += xd[i]
			}
			mean := sum / float64(blk)
			s2 := 0.0
			for i := off; i < off+blk; i++ {
				d := xd[i] - mean
				s2 += d * d
			}
			inv := 1.0 / math.Sqrt(s2/float64(blk)+gn.Eps)
			gn.invStd[b*gn.Groups+g] = inv
			for c := 0; c < chPerG; c++ {
				ch := g*chPerG + c
				gamma, beta := gd[ch], bd[ch]
				base := off + c*hw
				for i := base; i < base+hw; i++ {
					xh := (xd[i] - mean) * inv
					gn.xhat[i] = xh
					yd[i] = gamma*xh + beta
				}
			}
		}
	}
	return gn.y
}

// Backward implements the group-norm gradient (the batch-norm formula
// applied per (sample, group) block).
func (gn *GroupNorm) Backward(dy *tensor.Tensor) *tensor.Tensor {
	batch := dy.Dim(0)
	hw := gn.H * gn.W
	chPerG := gn.C / gn.Groups
	blk := chPerG * hw
	gn.dx = tensor.Reuse(gn.dx, batch, gn.C, gn.H, gn.W)
	dyd, dxd := dy.Data(), gn.dx.Data()
	gd := gn.Gamma.Data()
	dgd, dbd := gn.dG.Data(), gn.dB.Data()
	n := float64(blk)

	for b := 0; b < batch; b++ {
		for g := 0; g < gn.Groups; g++ {
			off := b*gn.C*hw + g*blk
			inv := gn.invStd[b*gn.Groups+g]
			// Accumulate per-channel parameter gradients plus the two
			// block-level reductions the input gradient needs, with dy
			// scaled by gamma ("dyg") entering the reductions.
			var sumDyg, sumDygXhat float64
			for c := 0; c < chPerG; c++ {
				ch := g*chPerG + c
				gamma := gd[ch]
				base := off + c*hw
				for i := base; i < base+hw; i++ {
					dgd[ch] += dyd[i] * gn.xhat[i]
					dbd[ch] += dyd[i]
					dyg := dyd[i] * gamma
					sumDyg += dyg
					sumDygXhat += dyg * gn.xhat[i]
				}
			}
			for c := 0; c < chPerG; c++ {
				ch := g*chPerG + c
				gamma := gd[ch]
				base := off + c*hw
				for i := base; i < base+hw; i++ {
					dyg := dyd[i] * gamma
					dxd[i] = inv / n * (n*dyg - sumDyg - gn.xhat[i]*sumDygXhat)
				}
			}
		}
	}
	return gn.dx
}

// Params returns {Gamma, Beta}.
func (gn *GroupNorm) Params() []*tensor.Tensor { return []*tensor.Tensor{gn.Gamma, gn.Beta} }

// Grads returns {dGamma, dBeta}.
func (gn *GroupNorm) Grads() []*tensor.Tensor { return []*tensor.Tensor{gn.dG, gn.dB} }
