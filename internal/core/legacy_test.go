package core

import (
	"context"
	"fmt"
	"math"

	"fifl/internal/faults"
	"fifl/internal/fl"
	"fifl/internal/gradvec"
)

// runRoundLegacy is the pre-pipeline monolithic round implementation,
// frozen as the differential-testing oracle for the staged Pipeline that
// backs RunRoundContext. It shares every leaf function with the pipeline
// (ReputationTracker.Update, AggregateRound, ComputeContributions,
// RewardShares, logRound) but keeps the original orchestration: slice
// materialization through sliceGradients, the slice-table Detect, serial
// per-worker loops, and in-place state mutation as each step completes.
// TestPipelineMatchesLegacy requires the two paths to produce bit-identical
// reports, reputations, rewards and ledger bytes across seeds and fault
// schedules; TestPipelineAllocsFewerThanLegacy uses this path as the
// allocation baseline. Do not modify this function when evolving the
// pipeline — it is the fixed point the refactor is measured against. It
// always pays rewards with FIFL's Eq. 15 scheme, ignoring any WithMechanism
// override.
func runRoundLegacy(c *Coordinator, ctx context.Context, t int) (*RoundReport, error) {
	engine := c.Engine
	rr, err := engine.CollectGradientsContext(ctx, t)
	if err != nil {
		return nil, err
	}

	// 1. Attack detection (§4.1): by default the slice-wise cosine screen
	// against the server cluster's own gradients; with a custom Scorer,
	// its scores thresholded at S_y. A round below quorum skips detection
	// — too few uploads arrived to judge anyone — and marks every worker
	// uncertain.
	var det *DetectionResult
	switch {
	case !rr.Committed:
		det = degradedDetection(len(rr.Grads))
	case c.Cfg.Scorer != nil:
		det = detectWithScorer(c.Cfg.Scorer, c.Cfg.Detection.Threshold, engine.Params(), rr)
	default:
		slices := sliceGradients(rr, engine.NumServers())
		det, err = c.Cfg.Detection.Detect(rr, slices, c.servers, engine.NumServers())
		if err != nil {
			return nil, err
		}
	}

	// 2. Reputation update (§4.2). Non-arrivals — dropped, timed-out or
	// crashed uploads — surface as uncertain events through the detection
	// result, feeding the Su term of Eq. 8.
	prevReps := c.Rep.Reputations()
	if err := c.Rep.Update(det.Events()); err != nil {
		return nil, err
	}
	reps := c.Rep.Reputations()

	// 3. Filtered aggregation: G̃ = Σ n_i·r_i·G_i / Σ n_j·r_j (§4.1) and
	// global update (Eq. 3).
	global, err := engine.AggregateRound(rr, det.Accept)
	if err != nil {
		return nil, err
	}
	engine.ApplyGlobal(global)

	// 4. Contribution assessment against the filtered global gradient
	// (§4.3).
	contrib := ComputeContributions(c.Cfg.Contribution, global, rr.Grads)
	if s := c.Cfg.Contribution.SmoothBH; s > 0 && contrib.BH > 0 {
		RescaleWithBH(contrib, c.bhSmoother.Update(contrib.BH, s), c.Cfg.Contribution.Clamp)
	}

	// 5. Incentive (§4.4).
	shares, err := RewardShares(reps, contrib.C)
	if err != nil {
		return nil, err
	}
	rewards := Rewards(shares, c.Cfg.RewardPerRound)
	for i, r := range rewards {
		c.cumulative[i] += r
	}

	// 6. Ledger records, signed by the servers that executed the round.
	if c.Cfg.RecordToLedger {
		if err := c.logRound(t, rr, det, contrib, reps, shares); err != nil {
			return nil, err
		}
	}

	c.cm.observeRound(det, prevReps, reps, rewards, c.Ledger.Len())

	report := &RoundReport{
		Round:         t,
		Detection:     det,
		Contributions: contrib,
		Reputations:   reps,
		Shares:        shares,
		Rewards:       rewards,
		Servers:       c.Servers(),
		Global:        global,
		Statuses:      append([]faults.UploadStatus(nil), rr.Status...),
		Retries:       append([]int(nil), rr.Retries...),
		Committed:     rr.Committed,
	}

	// 7. Server re-election for the next iteration (§4.5).
	c.servers = ReselectServers(reps, engine.NumServers(), c.banned)
	if t+1 > c.nextRound {
		c.nextRound = t + 1
	}
	return report, nil
}

// sliceGradients splits every collected gradient into m server slices
// (§3.2 step 1.2). Entry [i][j] is worker i's slice for server j; nil rows
// correspond to uploads that never arrived.
func sliceGradients(rr *fl.RoundResult, m int) [][]gradvec.Vector {
	out := make([][]gradvec.Vector, len(rr.Grads))
	for i, g := range rr.Grads {
		if g == nil {
			continue
		}
		out[i] = gradvec.Split(g, m)
	}
	return out
}

// Detect screens one round against a materialized slice table, the
// pre-arena form of DetectRound. slices is the per-worker, per-server
// slicing from sliceGradients; servers lists the worker indices currently
// acting as the server cluster, in slice order (server j aggregates slice
// j). m is the slice count and must equal len(servers); a mismatch is
// reported as an error.
func (d *Detector) Detect(rr *fl.RoundResult, slices [][]gradvec.Vector, servers []int, m int) (*DetectionResult, error) {
	if len(servers) != m {
		return nil, fmt.Errorf("core: Detect got %d servers for %d slices", len(servers), m)
	}
	n := len(rr.Grads)
	res := &DetectionResult{
		Scores:    make([]float64, n),
		Accept:    make([]bool, n),
		Uncertain: make([]bool, n),
	}
	for i := range res.Scores {
		res.Scores[i] = math.NaN()
		res.Uncertain[i] = rr.Dropped(i)
	}
	benchOwner := make([]int, m) // which worker's slice fills region j
	res.Benchmark = compositeBenchmark(rr, slices, servers, m, benchOwner)
	if res.Benchmark == nil {
		// No server upload survived: detection is impossible this round.
		// Accept arrivals so training proceeds; reputation records them as
		// positive, matching the optimistic default of the SLM model.
		for i := range res.Accept {
			res.Accept[i] = rr.Usable(i)
		}
		return res, nil
	}
	total := len(res.Benchmark)
	for i, g := range rr.Grads {
		if g == nil {
			continue
		}
		if len(g) != total || g.HasNaN() {
			res.Scores[i] = math.Inf(-1)
			continue
		}
		// The paper's Eq. 6 sums per-server verdicts S_i^j. Two hardening
		// rules shape the aggregation:
		//
		//  1. Servers assess OTHERS: when worker i's own slice fills
		//     benchmark region j (it serves that region), the region is
		//     excluded from its score — otherwise a Byzantine server
		//     validates itself through its own slice's perfect
		//     self-correlation.
		//  2. Each server's verdict is a bounded per-region cosine and
		//     the verdicts are averaged, so no single server — however it
		//     amplifies its own slice — can outvote the rest of the
		//     cluster or drag every other worker's score down.
		sum := 0.0
		regions := 0
		for j := 0; j < m; j++ {
			if benchOwner[j] == i {
				continue
			}
			lo, hi := gradvec.SliceBounds(total, m, j)
			sum += res.Benchmark[lo:hi].CosSim(g[lo:hi])
			regions++
		}
		if regions == 0 {
			// Nobody independent can assess this worker (M = 1 and it is
			// the server): no evidence, score 0.
			res.Scores[i] = 0
		} else {
			res.Scores[i] = sum / float64(regions)
		}
		res.Accept[i] = res.Scores[i] >= d.Threshold
	}
	return res, nil
}

// compositeBenchmark assembles the benchmark vector: region j comes from
// server j's own gradient slice. If a server's upload was dropped, another
// surviving server's slice over region j substitutes (any trusted device's
// slice is an unbiased benchmark); if no server survived, nil is returned.
// owners[j] records which worker's slice fills region j, so Detect can
// exclude self-assessment. Detect validates the server/slice shape before
// calling.
func compositeBenchmark(rr *fl.RoundResult, slices [][]gradvec.Vector, servers []int, m int, owners []int) gradvec.Vector {
	// Find a fallback server whose upload survived.
	fallback := -1
	for _, s := range servers {
		if rr.Usable(s) {
			fallback = s
			break
		}
	}
	if fallback == -1 {
		return nil
	}
	parts := make([]gradvec.Vector, m)
	for j := 0; j < m; j++ {
		s := servers[j]
		if !rr.Usable(s) {
			s = fallback
		}
		parts[j] = slices[s][j]
		owners[j] = s
	}
	return gradvec.Recombine(parts)
}

// ReselectServers is the fixed-cohort per-iteration re-election the
// monolith runs: the devices with the highest reputations form the next
// server cluster, and banned devices are never selected again. The
// pipeline's ReselectServersFrom equals it under the identity cohort.
func ReselectServers(reputations []float64, m int, banned map[int]bool) []int {
	return topM(reputations, m, banned)
}
