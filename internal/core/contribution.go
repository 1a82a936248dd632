package core

import (
	"context"
	"fmt"
	"math"

	"fifl/internal/fl"
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
// zeros — no information), and every gradient nil or of its length. The
// distances decompose over the polycentric slices, Σ_j Dis(g̃^j, g_i^j) =
// Dis(G̃, G_i), so computing them on the full vectors is exactly Eq. 13.
func ComputeContributions(cfg ContributionConfig, global gradvec.Vector, grads []gradvec.Vector) *Contributions {
	out, _ := assessContributions(context.Background(), cfg, engineSource{}, &fl.RoundResult{Grads: grads}, global)
	return out
}

// assessContributions is the §4.3 assessment every round shares, flat or
// sharded: a round without G̃ (degraded, or no accepted mass) carries no
// information — NaN distances, zero contributions — and never reaches src;
// otherwise src's Eq. 13 distances get the threshold b_h per cfg and the
// clamped Eq. 14 ratio.
func assessContributions(ctx context.Context, cfg ContributionConfig, src gradientSource, rr *fl.RoundResult, global gradvec.Vector) (*Contributions, error) {
	n := len(rr.Grads)
	out := &Contributions{
		Dist: make([]float64, n),
		C:    make([]float64, n),
	}
	if global == nil {
		for i := range out.Dist {
			out.Dist[i] = math.NaN()
		}
		return out, nil
	}
	if err := src.Distances(ctx, rr, global, out.Dist); err != nil {
		return nil, err
	}
	if b := cfg.BaselineWorker; b >= 0 && b < n && !math.IsNaN(out.Dist[b]) {
		out.BH = out.Dist[b]
	} else {
		// Zero-gradient baseline: Dis(G̃, 0) = ‖G̃‖².
		out.BH = global.Dot(global)
	}
	// A zero b_h is a degenerate round (zero global gradient): nobody
	// contributes.
	RescaleWithBH(out, out.BH, cfg.Clamp)
	return out, nil
}

// CohortDistances writes b_i = ‖G̃ − g_i‖² (Eq. 13) for every upload of a
// cohort to dists, NaN when the upload is unusable: missing, or holding a
// NaN or ±Inf. Every upload must be nil or of G̃'s length (fl.UploadRow).
// It is the distance kernel of the flat Contribution stage, and each edge
// aggregator of a sharded federation runs it over its own cohort, so both
// paths are bit-identical by construction. The distances are independent
// per worker, so they fan out across cores in contiguous chunks, each
// writing only its own indices. Within a chunk the arrived uploads go four
// at a time through SqDist4, which is bit-for-bit four SqDist calls, and
// the 1–3 the last group cannot fill through sqDistToGlobal.
func CohortDistances(global gradvec.Vector, grads []gradvec.Vector, dists []float64) {
	parallel.ForChunked(len(grads), func(lo, hi int) {
		var rows [4]int
		k := 0
		for i := lo; i < hi; i++ {
			if grads[i] == nil {
				dists[i] = math.NaN()
				continue
			}
			rows[k] = i
			if k++; k < 4 {
				continue
			}
			k = 0
			r0, r1, r2, r3 := rows[0], rows[1], rows[2], rows[3]
			d0, d1, d2, d3 := global.SqDist4(grads[r0], grads[r1], grads[r2], grads[r3])
			dists[r0], _ = guardDist(d0, grads[r0])
			dists[r1], _ = guardDist(d1, grads[r1])
			dists[r2], _ = guardDist(d2, grads[r2])
			dists[r3], _ = guardDist(d3, grads[r3])
		}
		for _, i := range rows[:k] {
			dists[i], _ = sqDistToGlobal(global, grads[i])
		}
	})
}

// sqDistToGlobal is one upload's Eq. 13 distance plus whether the guarded
// per-element scan ran. A missing upload is NaN unscanned; otherwise the
// gradient is read once and guardDist vets the sum.
func sqDistToGlobal(global, g gradvec.Vector) (d float64, rescanned bool) {
	if g == nil {
		return math.NaN(), false
	}
	return guardDist(global.SqDist(g), g)
}

// guardDist vets d = ‖G̃ − g‖² for an upload g of G̃'s length: (x−y)² is
// never negative, so the sum is NaN iff some difference was NaN and +Inf
// iff one was ±Inf or the sum overflowed, and every non-finite element of
// g makes its difference non-finite. A finite distance therefore proves g
// finite; only a non-finite one sends g through HasNaN, to tell a poisoned
// upload (NaN) from a huge finite one or a non-finite G̃ (the distance as
// computed).
func guardDist(d float64, g gradvec.Vector) (float64, bool) {
	if !math.IsNaN(d) && !math.IsInf(d, 1) {
		return d, false
	}
	if g.HasNaN() {
		return math.NaN(), true
	}
	return d, true
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
