// Package core implements FIFL itself: the attack-detection module (§4.1),
// the reputation module (§4.2), the contribution module (§4.3), the
// incentive module (§4.4), and the server-selection/audit machinery (§4.5).
// The Coordinator type ties the modules to the federated-learning runtime
// and the blockchain audit ledger.
package core

import (
	"context"
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

// DetectRound screens one round. servers lists the cohort slots currently
// acting as the server cluster, in region order (server j's gradient fills
// benchmark region j); m is the region count and must equal len(servers),
// a mismatch is reported as an error. Each benchmark region is read as a
// SliceBounds view of the owning server's gradient, never as a
// materialized n×m slice table, and the per-worker scoring fans out across
// CPU cores, writing each worker's score to its own index so the
// reduction is deterministic.
func (d *Detector) DetectRound(rr *fl.RoundResult, servers []int, m int) (*DetectionResult, error) {
	return d.detect(context.Background(), rr, servers, m, engineSource{}, false)
}

// detect is the screening every round shares, flat or sharded: the cluster
// check, the result shell, and the composite benchmark assembled from the
// server cluster's rows, around src's Score kernel. A flat round tells an
// absent upload by its nil row (rr.Dropped); a sharded root holds only the
// server rows, so absentByStatus reads absence from the upload statuses.
func (d *Detector) detect(ctx context.Context, rr *fl.RoundResult, servers []int, m int, src gradientSource, absentByStatus bool) (*DetectionResult, error) {
	if len(servers) != m {
		return nil, fmt.Errorf("core: DetectRound got %d servers for %d slices", len(servers), m)
	}
	n := len(rr.Grads)
	res := &DetectionResult{
		Scores:    make([]float64, n),
		Accept:    make([]bool, n),
		Uncertain: make([]bool, n),
	}
	for i := range res.Uncertain {
		if absentByStatus {
			res.Uncertain[i] = !rr.Status[i].Arrived()
		} else {
			res.Uncertain[i] = rr.Dropped(i)
		}
	}
	owners := make([]int, m)
	if res.Benchmark = flatBenchmark(rr, servers, m, owners); res.Benchmark == nil {
		owners = nil
	}
	if err := src.Score(ctx, rr, res.Benchmark, owners, d.Threshold, res.Scores, res.Accept); err != nil {
		return nil, err
	}
	return res, nil
}

// ScoreCohort screens one cohort of uploads against the composite benchmark
// (Eq. 6–7): rr holds the cohort's rows, each nil or of the benchmark's
// length (fl.UploadRow), row i being worker first+i, and owners[j] is the
// worker whose slice fills benchmark region j. It writes every row of
// scores and accept: NaN and false for an upload that never arrived, else
// the normalized score and whether it clears threshold. A nil benchmark
// means no server upload survived and detection is impossible this round:
// every usable upload is accepted on trust so training proceeds, which
// reputation records as positive, the optimistic default of the SLM model.
// The flat detector runs it over the whole round and each edge aggregator
// of a sharded federation over its own cohort, so both paths are
// bit-identical by construction. The rows fan out across CPU cores in
// contiguous chunks, each chunk writing only its own indices; within a
// chunk the arrived rows are scored four at a time (scoreFours), and the
// 1–3 the last group cannot fill through scoreAgainstBenchmark.
func ScoreCohort(rr *fl.RoundResult, first int, bench gradvec.Vector, owners []int, threshold float64, scores []float64, accept []bool) {
	parallel.ForChunked(len(rr.Grads), func(lo, hi int) {
		grads := rr.Grads[lo:hi]
		grouped := 0
		if bench != nil {
			grouped = scoreFours(bench, owners, first+lo, grads, scores[lo:hi], accept[lo:hi])
		}
		for i, g := range grads {
			row := lo + i
			switch {
			case g == nil:
				scores[row], accept[row] = math.NaN(), false
				continue
			case bench == nil:
				scores[row], accept[row] = math.NaN(), rr.Usable(row)
				continue
			case grouped > 0:
				grouped--
				scores[row] = finishScore(scores[row], independentRegions(owners, first+row), accept[row], g)
			default:
				scores[row], _ = scoreAgainstBenchmark(bench, owners, first+row, g)
			}
			// A -Inf score (NaN-poisoned upload) never clears the
			// threshold, so the uniform comparison rejects it.
			accept[row] = scores[row] >= threshold
		}
	})
}

// scoreFours runs scoreAgainstBenchmark's region loop over the first
// arrived rows of grads, row i being worker first+i, that fill whole groups
// of four, and returns their count. It goes region-major: Σb² of each
// region is summed once, and the rows stream past the region four at a time
// through DotSumSq4. Nothing is allocated: until finishScore turns them
// into a score, sums[i] carries row i's running sum of cosines — added in
// region order, as scoreAgainstBenchmark adds them — and rescan[i] whether
// one of its Σg² was non-finite.
func scoreFours(bench gradvec.Vector, owners []int, first int, grads []gradvec.Vector, sums []float64, rescan []bool) (grouped int) {
	total, m := len(bench), len(owners)
	for i, g := range grads {
		if g != nil {
			sums[i], rescan[i] = 0, false
			grouped++
		}
	}
	if grouped -= grouped % 4; grouped == 0 {
		return 0
	}
	for j := 0; j < m; j++ {
		lo, hi := gradvec.SliceBounds(total, m, j)
		b := bench[lo:hi]
		bb := b.Dot(b)
		add := func(i int, dot, gg float64) {
			if math.IsNaN(gg) || math.IsInf(gg, 1) {
				rescan[i] = true
			}
			if owners[j] != first+i {
				sums[i] += gradvec.CosFromSums(dot, bb, gg)
			}
		}
		var rows [4]int
		k, left := 0, grouped
		for i := 0; left > 0; i++ {
			if grads[i] == nil {
				continue
			}
			rows[k] = i
			left--
			if k++; k < 4 {
				continue
			}
			k = 0
			r0, r1, r2, r3 := rows[0], rows[1], rows[2], rows[3]
			d0, d1, d2, d3, s0, s1, s2, s3 := b.DotSumSq4(grads[r0][lo:hi], grads[r1][lo:hi], grads[r2][lo:hi], grads[r3][lo:hi])
			add(r0, d0, s0)
			add(r1, d1, s1)
			add(r2, d2, s2)
			add(r3, d3, s3)
		}
	}
	return grouped
}

// scoreAgainstBenchmark computes one worker's normalized detection score
// against the composite benchmark — the average per-region cosine verdict,
// skipping every region the worker's own slice fills (owners[j] == self —
// no self-validation) — plus whether the guarded per-element scan ran; g
// has the benchmark's length. A NaN-poisoned gradient scores -Inf: rejected
// outright. A worker nobody independent can assess (M = 1 and it is the
// server) scores 0: no evidence. The gradient is read once: each region's
// pass yields the cosine evidence and Σg², and Σg² doubles as the region's
// finiteness evidence — NaN iff the region holds a NaN, +Inf iff it holds
// ±Inf or overflowed (gradvec.Norm2). Only a non-finite sum, over ANY
// region including the self-owned ones the score skips, sends the gradient
// through HasNaN to tell a poisoned upload (-Inf) from a huge finite one
// (whose overflowed regions score cosine 0, as CosSim always had it).
func scoreAgainstBenchmark(bench gradvec.Vector, owners []int, self int, g gradvec.Vector) (score float64, rescanned bool) {
	total := len(bench)
	m := len(owners)
	sum := 0.0
	for j := 0; j < m; j++ {
		lo, hi := gradvec.SliceBounds(total, m, j)
		dot, bb, gg := bench[lo:hi].DotSumSq(g[lo:hi])
		if math.IsNaN(gg) || math.IsInf(gg, 1) {
			rescanned = true
		}
		if owners[j] != self {
			sum += gradvec.CosFromSums(dot, bb, gg)
		}
	}
	return finishScore(sum, independentRegions(owners, self), rescanned, g), rescanned
}

// finishScore turns a row's sum of per-region cosines into its score: -Inf
// for a poisoned upload, told apart by HasNaN only when rescan says some
// Σg² was non-finite; 0 when no region is independent of the worker; else
// the average verdict.
func finishScore(sum float64, regions int, rescan bool, g gradvec.Vector) float64 {
	switch {
	case rescan && g.HasNaN():
		return math.Inf(-1)
	case regions == 0:
		return 0
	}
	return sum / float64(regions)
}

// independentRegions counts the benchmark regions worker self's own slice
// does not fill — the regions its score averages over.
func independentRegions(owners []int, self int) int {
	n := 0
	for _, o := range owners {
		if o != self {
			n++
		}
	}
	return n
}

// flatBenchmark assembles the composite benchmark without a slice table:
// region j is the SliceBounds view of server j's gradient, recombined into
// one contiguous vector. If a server's upload was dropped or is not
// Usable, the first surviving server's region substitutes (any trusted
// device's slice is an unbiased benchmark); if no server survived, nil is
// returned. owners[j] records which worker's slice fills region j (it must
// have length m). A sharded root's RoundResult carries the server
// gradients its shards forwarded at their global indices, so the same
// assembly serves both.
func flatBenchmark(rr *fl.RoundResult, servers []int, m int, owners []int) gradvec.Vector {
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
	bench := make(gradvec.Vector, len(rr.Grads[fallback]))
	for j, s := range servers {
		if s != fallback && !rr.Usable(s) {
			s = fallback
		}
		lo, hi := gradvec.SliceBounds(len(bench), m, j)
		copy(bench[lo:hi], rr.Grads[s][lo:hi])
		owners[j] = s
	}
	return bench
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
