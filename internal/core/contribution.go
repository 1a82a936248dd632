package core

import (
	"fmt"
	"math"

	"fifl/internal/gradvec"
	"fifl/internal/parallel"
)

// ContributionConfig controls the contribution module (§4.3).
type ContributionConfig struct {
	// BaselineWorker selects how the threshold b_h is chosen. A negative
	// value uses the paper's default, the zero gradient G_0:
	// b_h = Dis(G̃, G_0) = ‖G̃‖². A non-negative value uses that worker's
	// own distance as the bar (b_h = Dis(G̃, G_i)), which the paper uses in
	// Figures 12–13 with the p_d = 0.2 worker as the baseline: workers
	// better than the baseline earn, the rest are punished.
	BaselineWorker int
	// Clamp, when positive, bounds every contribution to [−Clamp, Clamp].
	// Eq. 14 is a ratio with the per-round b_h in the denominator; in
	// rounds where the baseline gradient happens to land very close to
	// the global gradient, unclamped ratios explode and a single round
	// dominates cumulative rewards. Clamping preserves signs and ordering
	// (the quantities FIFL's fairness analysis uses) while bounding any
	// one round's influence.
	Clamp float64
	// SmoothBH, when in (0,1], replaces the per-round threshold b_h with
	// an exponential moving average (factor SmoothBH on the new value)
	// across rounds. This removes the denominator variance of Eq. 14 — a
	// baseline worker whose gradient happens to land very close to G̃ in
	// one round would otherwise inflate every ratio that round.
	SmoothBH float64
}

// BHSmoother carries the exponential moving average of the b_h threshold
// across rounds.
type BHSmoother struct {
	initialized bool
	value       float64
}

// State exposes the smoother's internals for checkpointing.
func (s *BHSmoother) State() (initialized bool, value float64) {
	return s.initialized, s.value
}

// SetState restores the smoother from a checkpoint. A non-finite value
// would contaminate every later Eq. 14 ratio, so it is rejected.
func (s *BHSmoother) SetState(initialized bool, value float64) error {
	if math.IsNaN(value) || math.IsInf(value, 0) {
		return fmt.Errorf("core: BHSmoother.SetState with non-finite value %v", value)
	}
	s.initialized = initialized
	s.value = value
	return nil
}

// Update folds a round's raw threshold into the average and returns the
// smoothed value. A factor of 0 (or an unset smoother) passes the raw
// value through.
func (s *BHSmoother) Update(raw, factor float64) float64 {
	if factor <= 0 || factor > 1 {
		return raw
	}
	if !s.initialized {
		s.initialized = true
		s.value = raw
		return raw
	}
	s.value = (1-factor)*s.value + factor*raw
	return s.value
}

// RescaleWithBH recomputes the contributions against a replacement
// threshold (e.g. a smoothed b_h), preserving the recorded distances.
func RescaleWithBH(c *Contributions, bh, clamp float64) {
	c.BH = bh
	if bh == 0 {
		for i := range c.C {
			c.C[i] = 0
		}
		return
	}
	for i := range c.C {
		if math.IsNaN(c.Dist[i]) {
			c.C[i] = 0
			continue
		}
		v := 1 - c.Dist[i]/bh
		if clamp > 0 {
			if v > clamp {
				v = clamp
			}
			if v < -clamp {
				v = -clamp
			}
		}
		c.C[i] = v
	}
}

// Contributions holds one round of contribution assessments.
type Contributions struct {
	// Dist is b_i = ‖G̃ − G_i‖² per worker (Eq. 13); NaN for dropped or
	// NaN-poisoned uploads.
	Dist []float64
	// BH is the threshold b_h separating positive from negative
	// contribution.
	BH float64
	// C is the relative contribution C_i = 1 − b_i/b_h (Eq. 14); 0 for
	// workers with no usable upload.
	C []float64
}

// ComputeContributions assesses every worker's utility against the global
// gradient. global must be the aggregated G̃ of the round (nil yields all
// zeros — no information). The distances decompose over the polycentric
// slices, Σ_j Dis(g̃^j, g_i^j) = Dis(G̃, G_i), so computing them on the full
// vectors is exactly Eq. 13.
func ComputeContributions(cfg ContributionConfig, global gradvec.Vector, grads []gradvec.Vector) *Contributions {
	n := len(grads)
	out := &Contributions{
		Dist: make([]float64, n),
		C:    make([]float64, n),
	}
	for i := range out.Dist {
		out.Dist[i] = math.NaN()
	}
	if global == nil {
		return out
	}
	// The distances are independent per worker, so fan out across cores;
	// each iteration writes only its own index and evaluates ‖G̃ − G_i‖²
	// in the same serial operation order, so the result is bit-identical
	// to the sequential loop.
	parallel.For(n, func(i int) {
		out.Dist[i] = SqDistToGlobal(global, grads[i])
	})
	thresholdAndClamp(cfg, global, out)
	return out
}

// SqDistToGlobal returns b_i = ‖G̃ − g‖² (Eq. 13) for one upload, NaN when
// the upload is unusable: missing, of another length than G̃, or holding a
// NaN or ±Inf. It is the distance kernel of ComputeContributions, and edge
// aggregators in a sharded federation run it locally, so both paths are
// bit-identical by construction.
func SqDistToGlobal(global, g gradvec.Vector) float64 {
	d, _ := sqDistToGlobal(global, g)
	return d
}

// sqDistToGlobal is SqDistToGlobal plus whether the guarded per-element
// scan ran. The gradient is read once: (x−y)² is never negative, so the sum
// is NaN iff some difference was NaN and +Inf iff one was ±Inf or the sum
// overflowed, and every non-finite element of g makes its difference
// non-finite. A finite distance therefore proves g finite; only a
// non-finite one sends g through HasNaN, to tell a poisoned upload (NaN)
// from a huge finite one or a non-finite G̃ (the distance as computed).
func sqDistToGlobal(global, g gradvec.Vector) (d float64, rescanned bool) {
	if g == nil || len(g) != len(global) {
		return math.NaN(), false
	}
	d = global.SqDist(g)
	if !math.IsNaN(d) && !math.IsInf(d, 1) {
		return d, false
	}
	if g.HasNaN() {
		return math.NaN(), true
	}
	return d, true
}

// thresholdAndClamp finishes a Contributions whose Dist row is filled:
// threshold selection per cfg, then the clamped Eq. 14 ratio per worker.
func thresholdAndClamp(cfg ContributionConfig, global gradvec.Vector, out *Contributions) {
	n := len(out.Dist)
	if cfg.BaselineWorker >= 0 && cfg.BaselineWorker < n && !math.IsNaN(out.Dist[cfg.BaselineWorker]) {
		out.BH = out.Dist[cfg.BaselineWorker]
	} else {
		// Zero-gradient baseline: Dis(G̃, 0) = ‖G̃‖².
		out.BH = global.Dot(global)
	}
	if out.BH == 0 {
		// Degenerate round (zero global gradient): nobody contributes.
		return
	}
	for i := range out.C {
		if math.IsNaN(out.Dist[i]) {
			continue
		}
		c := 1 - out.Dist[i]/out.BH
		if cfg.Clamp > 0 {
			if c > cfg.Clamp {
				c = cfg.Clamp
			}
			if c < -cfg.Clamp {
				c = -cfg.Clamp
			}
		}
		out.C[i] = c
	}
}

// ContributionsFromDists assesses a round whose per-worker distances were
// computed elsewhere — a sharded federation's edge aggregators each
// evaluate ‖G̃ − G_i‖² over their own cohort and forward only the scalars.
// NaN marks a worker with no usable upload. The threshold selection and
// clamping are exactly ComputeContributions', so given the distances the
// flat path would have computed the result is bit-identical.
func ContributionsFromDists(cfg ContributionConfig, global gradvec.Vector, dists []float64) *Contributions {
	n := len(dists)
	out := &Contributions{
		Dist: append([]float64(nil), dists...),
		C:    make([]float64, n),
	}
	if global == nil {
		// No information this round: all-NaN distances, zero contributions,
		// matching the flat path's nil-global early return.
		for i := range out.Dist {
			out.Dist[i] = math.NaN()
		}
		return out
	}
	thresholdAndClamp(cfg, global, out)
	return out
}

// PositiveTotal returns Σ_{j: C_j>0} C_j, the normalizer of Eq. 15.
func (c *Contributions) PositiveTotal() float64 {
	s := 0.0
	for _, v := range c.C {
		if v > 0 {
			s += v
		}
	}
	return s
}
