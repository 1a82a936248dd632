// Package core implements FIFL itself: the attack-detection module (§4.1),
// the reputation module (§4.2), the contribution module (§4.3), the
// incentive module (§4.4), and the server-selection/audit machinery (§4.5).
// The Coordinator type ties the modules to the federated-learning runtime
// and the blockchain audit ledger.
package core

import (
	"fmt"
	"math"

	"fifl/internal/fl"
	"fifl/internal/gradvec"
	"fifl/internal/parallel"
)

// Detector screens local gradients for Byzantine updates. The paper scores
// worker i as S_i = Σ_j ⟨g_bench^j, g_i^j⟩ (Eq. 6), the Taylor first-order
// approximation of the marginal loss reduction L_t(θ) − L_t(θ−G_i)
// (Eq. 5), where the benchmark slice for server j is server j's own local
// gradient slice.
//
// Raw inner products scale with gradient norms, which shrink as training
// converges; a fixed threshold S_y on the raw score would therefore mean
// different things at different iterations and for different tasks. We
// normalize each server's verdict to the cosine between its benchmark
// slice and the worker's corresponding slice, and average the verdicts.
// This keeps S_y in the task-independent range the paper sweeps (0.09–0.15
// in Figure 9), preserves the paper's decision rule (the sign and ordering
// of each verdict are unchanged by positive normalization), and bounds
// every server's influence: a Byzantine server that amplifies its own
// slice cannot outvote the rest of the cluster. A server is never assessed
// against its own slice (no self-validation).
type Detector struct {
	// Threshold is S_y, the accept boundary of Eq. 7. Workers with
	// normalized score >= Threshold are honest (r_i = 1).
	Threshold float64
}

// DetectionResult reports one round of screening.
type DetectionResult struct {
	// Scores holds the normalized detection score S_i per worker; NaN for
	// workers whose upload was lost (uncertain events).
	Scores []float64
	// Accept holds r_i of Eq. 7: true for accepted (honest-looking)
	// gradients. Dropped uploads are not accepted.
	Accept []bool
	// Uncertain flags workers whose upload never arrived.
	Uncertain []bool
	// Benchmark is the composite benchmark gradient assembled from the
	// server cluster's own slices; nil if no server upload survived.
	Benchmark gradvec.Vector
}

// Events converts the detection outcome into reputation events.
func (d *DetectionResult) Events() []Event {
	out := make([]Event, len(d.Accept))
	for i := range d.Accept {
		switch {
		case d.Uncertain[i]:
			out[i] = EventUncertain
		case d.Accept[i]:
			out[i] = EventPositive
		default:
			out[i] = EventNegative
		}
	}
	return out
}

// Detect screens one round. slices is the per-worker, per-server slicing
// from fl.Engine.SliceGradients; servers lists the worker indices currently
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

// DetectRound is the pipeline's arena-aware form of Detect: it screens
// the round directly against the flat gradient layout, reading each
// benchmark region as a SliceBounds view of the owning server's gradient
// row instead of materializing the full n×m slice table that
// fl.Engine.SliceGradients allocates. Scores, decision rule and hardening
// (no self-validation, bounded per-region verdicts) are identical to
// Detect — the differential test holds the two paths bit-equal — but the
// per-worker scoring fans out across CPU cores, writing each worker's
// score to its own index so the reduction is deterministic.
func (d *Detector) DetectRound(rr *fl.RoundResult, servers []int, m int) (*DetectionResult, error) {
	if len(servers) != m {
		return nil, fmt.Errorf("core: DetectRound got %d servers for %d slices", len(servers), m)
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
	benchOwner := make([]int, m)
	res.Benchmark = FlatBenchmark(rr, servers, m, benchOwner)
	if res.Benchmark == nil {
		// No server upload survived: detection is impossible this round.
		// Accept arrivals so training proceeds, matching Detect.
		for i := range res.Accept {
			res.Accept[i] = rr.Usable(i)
		}
		return res, nil
	}
	threshold := d.Threshold
	parallel.For(n, func(i int) {
		g := rr.Grads[i]
		if g == nil {
			return
		}
		res.Scores[i] = ScoreAgainstBenchmark(res.Benchmark, benchOwner, i, g)
		// A -Inf score (malformed or NaN-poisoned upload) never clears the
		// threshold, so the uniform comparison rejects it.
		res.Accept[i] = res.Scores[i] >= threshold
	})
	return res, nil
}

// ScoreAgainstBenchmark computes one worker's normalized detection score
// against the composite benchmark: the average per-region cosine verdict,
// skipping every region the worker's own slice fills (owners[j] == self —
// no self-validation). It is the scoring kernel DetectRound fans out, and
// edge aggregators in a sharded federation run it locally so full cohort
// gradients never travel to the root; both paths are bit-identical by
// construction. A malformed (wrong-length) or NaN-poisoned gradient scores
// -Inf: rejected outright. A worker nobody independent can assess (M = 1
// and it is the server) scores 0: no evidence.
func ScoreAgainstBenchmark(bench gradvec.Vector, owners []int, self int, g gradvec.Vector) float64 {
	score, _ := scoreAgainstBenchmark(bench, owners, self, g)
	return score
}

// scoreAgainstBenchmark is ScoreAgainstBenchmark plus whether the guarded
// per-element scan ran. The gradient is read once: each region's pass
// yields the cosine evidence and Σg², and Σg² doubles as the region's
// finiteness evidence — it is NaN iff the region holds a NaN and +Inf iff it
// holds ±Inf or overflowed (gradvec.Norm2). Only a non-finite sum, over ANY
// region including the self-owned ones the score skips, sends the gradient
// through HasNaN to tell a poisoned upload (-Inf) from a huge finite one
// (whose overflowed regions score cosine 0, as CosSim always had it).
func scoreAgainstBenchmark(bench gradvec.Vector, owners []int, self int, g gradvec.Vector) (score float64, rescanned bool) {
	total := len(bench)
	if len(g) != total {
		return math.Inf(-1), false
	}
	m := len(owners)
	sum := 0.0
	regions := 0
	for j := 0; j < m; j++ {
		lo, hi := gradvec.SliceBounds(total, m, j)
		dot, bb, gg := bench[lo:hi].DotSumSq(g[lo:hi])
		if math.IsNaN(gg) || math.IsInf(gg, 1) {
			rescanned = true
		}
		if owners[j] == self {
			continue
		}
		sum += gradvec.CosFromSums(dot, bb, gg)
		regions++
	}
	switch {
	case rescanned && g.HasNaN():
		return math.Inf(-1), true
	case regions == 0:
		return 0, rescanned
	}
	return sum / float64(regions), rescanned
}

// FlatBenchmark assembles the composite benchmark without a slice table:
// region j is the SliceBounds view of server j's gradient (fallback
// substitution as in compositeBenchmark), recombined into one contiguous
// vector. owners[j] records which worker's slice fills region j (it must
// have length m). Exported because a sharded federation's root assembles
// the same benchmark from the server gradients its shards forwarded,
// placed at their global indices in a virtual RoundResult.
func FlatBenchmark(rr *fl.RoundResult, servers []int, m int, owners []int) gradvec.Vector {
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
	total := len(rr.Grads[fallback])
	parts := make([]gradvec.Vector, m)
	for j := 0; j < m; j++ {
		s := servers[j]
		if s != fallback && (len(rr.Grads[s]) != total || !rr.Usable(s)) {
			s = fallback
		}
		lo, hi := gradvec.SliceBounds(total, m, j)
		parts[j] = rr.Grads[s][lo:hi]
		owners[j] = s
	}
	return gradvec.Recombine(parts)
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

// DetectionMetrics summarizes screening quality against ground truth:
// TP rate is the fraction of honest workers accepted (the paper's
// "accuracy of detecting positive events"), TN rate the fraction of
// attackers rejected, and Accuracy the overall fraction classified
// correctly.
type DetectionMetrics struct {
	TPRate   float64
	TNRate   float64
	Accuracy float64
}

// EvaluateDetection scores a detection result against ground-truth attacker
// flags. Uncertain workers are excluded from every rate.
func EvaluateDetection(res *DetectionResult, isAttacker []bool) DetectionMetrics {
	var tp, fn, tn, fp int
	for i, accept := range res.Accept {
		if res.Uncertain[i] {
			continue
		}
		switch {
		case !isAttacker[i] && accept:
			tp++
		case !isAttacker[i] && !accept:
			fn++
		case isAttacker[i] && !accept:
			tn++
		default:
			fp++
		}
	}
	m := DetectionMetrics{}
	if tp+fn > 0 {
		m.TPRate = float64(tp) / float64(tp+fn)
	}
	if tn+fp > 0 {
		m.TNRate = float64(tn) / float64(tn+fp)
	}
	if total := tp + fn + tn + fp; total > 0 {
		m.Accuracy = float64(tp+tn) / float64(total)
	}
	return m
}
