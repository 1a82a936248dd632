package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"fifl/internal/fl"
	"fifl/internal/gradvec"
	"fifl/internal/nn"
	"fifl/internal/tensor"
)

// refScore and refDist are the multi-pass screens the round ran before the
// fused passes (HasNaN, then a CosSim per region; HasNaN, then SqDist),
// kept verbatim as the oracle. internal/gradvec's own differential test
// holds CosSim and HasNaN to their per-element originals.

func refScore(bench gradvec.Vector, owners []int, self int, g gradvec.Vector) float64 {
	total := len(bench)
	if len(g) != total || g.HasNaN() {
		return math.Inf(-1)
	}
	m := len(owners)
	sum := 0.0
	regions := 0
	for j := 0; j < m; j++ {
		if owners[j] == self {
			continue
		}
		lo, hi := gradvec.SliceBounds(total, m, j)
		sum += bench[lo:hi].CosSim(g[lo:hi])
		regions++
	}
	if regions == 0 {
		return 0
	}
	return sum / float64(regions)
}

func refDist(global, g gradvec.Vector) float64 {
	if g == nil || g.HasNaN() {
		return math.NaN()
	}
	return global.SqDist(g)
}

type evidenceCase struct {
	name string
	g    gradvec.Vector
	// rescan is whether the guarded per-element scan must run: exactly when
	// some sum over the gradient is non-finite.
	rescan bool
}

// evidenceCases builds gradients of length n in every value regime, with
// NaN and ±Inf planted at the first, middle and last element. With owners
// {0, 1} and self = 0 the first half is the self-owned region the score
// skips, so "first" plants sit where only the finiteness evidence sees them.
func evidenceCases(r *rand.Rand, n int) []evidenceCase {
	fill := func(scale float64) gradvec.Vector {
		v := make(gradvec.Vector, n)
		for i := range v {
			v[i] = scale * r.NormFloat64()
		}
		return v
	}
	huge := fill(1)
	for i := range huge {
		huge[i] = math.Copysign(1e200*(1+r.Float64()), huge[i])
	}
	cases := []evidenceCase{
		{"random", fill(1), false},
		{"zero", make(gradvec.Vector, n), false},
		{"denormal", fill(1e-310), false},
		{"huge", huge, n > 0},
	}
	if n == 0 {
		return cases
	}
	base := fill(1)
	for pn, p := range map[string]float64{"nan": math.NaN(), "+inf": math.Inf(1), "-inf": math.Inf(-1)} {
		for an, at := range map[string]int{"first": 0, "middle": n / 2, "last": n - 1} {
			c := base.Clone()
			c[at] = p
			cases = append(cases, evidenceCase{pn + "@" + an, c, true})
		}
	}
	return cases
}

// TestScoreMatchesReference holds the one-pass scoring kernel bit-equal to
// the multi-pass reference, and pins when it falls back to the guarded
// scan: on a non-finite Σg² over any region — a self-owned one included —
// and never otherwise.
func TestScoreMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 2, 7, 1001, 78378} {
		bench := make(gradvec.Vector, n)
		for i := range bench {
			bench[i] = r.NormFloat64()
		}
		for _, tc := range evidenceCases(r, n) {
			for _, self := range []int{0, 1, 5} {
				owners := []int{0, 1}
				name := fmt.Sprintf("n=%d/%s/self=%d", n, tc.name, self)
				got, rescanned := scoreAgainstBenchmark(bench, owners, self, tc.g)
				if want := refScore(bench, owners, self, tc.g); math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("%s: score %v, reference %v", name, got, want)
				}
				if rescanned != tc.rescan {
					t.Errorf("%s: guarded scan ran = %v, want %v", name, rescanned, tc.rescan)
				}
				scores, accept := []float64{0}, []bool{false}
				ScoreCohort(&fl.RoundResult{Grads: []gradvec.Vector{tc.g}}, self, bench, owners, 0, scores, accept)
				if math.Float64bits(scores[0]) != math.Float64bits(got) {
					t.Errorf("%s: ScoreCohort %v, kernel %v", name, scores[0], got)
				}
			}
		}
		// A single server assessing itself: no independent region at all.
		for _, tc := range evidenceCases(r, n) {
			got, _ := scoreAgainstBenchmark(bench, []int{0}, 0, tc.g)
			if want := refScore(bench, []int{0}, 0, tc.g); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("n=%d/%s/M=1: score %v, reference %v", n, tc.name, got, want)
			}
		}
	}
}

// TestDistanceMatchesReference is the same differential for the Eq. 13
// distance kernel.
func TestDistanceMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 2, 7, 1001, 78378} {
		global := make(gradvec.Vector, n)
		for i := range global {
			global[i] = r.NormFloat64()
		}
		for _, tc := range evidenceCases(r, n) {
			name := fmt.Sprintf("n=%d/%s", n, tc.name)
			got, rescanned := sqDistToGlobal(global, tc.g)
			if want := refDist(global, tc.g); math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Errorf("%s: distance %v, reference %v", name, got, want)
			}
			if rescanned != tc.rescan {
				t.Errorf("%s: guarded scan ran = %v, want %v", name, rescanned, tc.rescan)
			}
		}
	}
	// A non-finite global gradient is not the worker's fault: the distance
	// comes back as computed, after the scan clears the upload.
	got, rescanned := sqDistToGlobal(gradvec.Vector{math.Inf(1), 0}, gradvec.Vector{1, 2})
	if !math.IsInf(got, 1) || !rescanned {
		t.Errorf("distance to a non-finite global = %v (rescanned %v), want +Inf after a scan", got, rescanned)
	}
	if got, rescanned := sqDistToGlobal(gradvec.Vector{1, 2}, nil); !math.IsNaN(got) || rescanned {
		t.Errorf("missing upload: distance %v (rescanned %v), want NaN without a scan", got, rescanned)
	}
}

// runTampered runs rounds of the fixed-gradient federation with some
// workers' uploads rewritten before they leave, and returns the reports.
func runTampered(t *testing.T, rounds int, rewrite map[int]func(gradvec.Vector) gradvec.Vector) []*RoundReport {
	t.Helper()
	return runTamperedScored(t, rounds, nil, rewrite)
}

// runTamperedScored is runTampered with the custom Scorer s, when non-nil,
// replacing the cosine screen. The Scorer's threshold accepts every step
// that does not double the validation loss, so a usable upload is always
// accepted and an unusable one is rejected only for being unusable.
func runTamperedScored(t *testing.T, rounds int, s Scorer, rewrite map[int]func(gradvec.Vector) gradvec.Vector) []*RoundReport {
	t.Helper()
	coord := buildAllocCoordinator(t, 8)
	if s != nil {
		coord.Cfg.Scorer, coord.Cfg.Detection.Threshold = s, -1
	}
	for i, fn := range rewrite {
		w := coord.Engine.Workers[i].(*fixedWorker)
		w.grad = fn(w.grad.Clone())
	}
	reports := make([]*RoundReport, rounds)
	for r := range reports {
		rep, err := coord.RunRoundContext(context.Background(), r)
		if err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		reports[r] = rep
	}
	return reports
}

func poison(g gradvec.Vector) gradvec.Vector   { g[len(g)/2] = math.NaN(); return g }
func truncate(g gradvec.Vector) gradvec.Vector { return g[:len(g)-3] }
func pad(g gradvec.Vector) gradvec.Vector      { return append(g, 1, 2, 3) }

// TestWrongLengthGradientIsRejectedNotFatal drives a wrong-length upload
// through the whole round: the runtime files it as a row of NaNs, and every
// stage downstream must treat it exactly like a NaN-poisoned upload —
// rejected with a negative reputation event, distance NaN, contribution 0,
// never aggregated, never given benchmark duty — instead of panicking in a
// length-checked kernel. Workers 0 and 1 are the initial server cluster
// (0 is the benchmark's fallback pick), 5 is a plain worker.
func TestWrongLengthGradientIsRejectedNotFatal(t *testing.T) {
	for _, victim := range []int{5, 1, 0} {
		for name, malform := range map[string]func(gradvec.Vector) gradvec.Vector{"short": truncate, "long": pad} {
			t.Run(fmt.Sprintf("worker=%d/%s", victim, name), func(t *testing.T) {
				got := runTampered(t, 3, map[int]func(gradvec.Vector) gradvec.Vector{victim: malform})
				want := runTampered(t, 3, map[int]func(gradvec.Vector) gradvec.Vector{victim: poison})
				for r := range got {
					if d := diffReports(got[r], want[r]); d != "" {
						t.Fatalf("round %d: report differs from the NaN-poisoned run in %s", r, d)
					}
					det := got[r].Detection
					if det.Accept[victim] || det.Uncertain[victim] || !math.IsInf(det.Scores[victim], -1) {
						t.Fatalf("round %d: victim verdict accept=%v uncertain=%v score=%v, want a rejection at -Inf",
							r, det.Accept[victim], det.Uncertain[victim], det.Scores[victim])
					}
					if det.Events()[victim] != EventNegative {
						t.Fatalf("round %d: victim's reputation event is %v, want negative", r, det.Events()[victim])
					}
					if c := got[r].Contributions; !math.IsNaN(c.Dist[victim]) || c.C[victim] != 0 {
						t.Fatalf("round %d: victim distance %v contribution %v, want NaN and 0", r, c.Dist[victim], c.C[victim])
					}
				}
			})
		}
	}
}

// lossDeltaFor returns a loss-delta Scorer for buildAllocCoordinator's
// model (24 inputs, 4 classes) on a fixed random validation set.
func lossDeltaFor(t *testing.T) *LossDeltaScorer {
	t.Helper()
	r := rand.New(rand.NewSource(13))
	const k = 32
	x := make([]float64, k*24)
	for i := range x {
		x[i] = r.NormFloat64()
	}
	labels := make([]int, k)
	for i := range labels {
		labels[i] = r.Intn(4)
	}
	return &LossDeltaScorer{
		Model:     nn.NewMLP(11, 24, []int{8}, 4)(),
		ValX:      tensor.FromSlice(x, k, 24),
		ValLabels: labels,
		Eta:       0.05,
	}
}

// TestWrongLengthGradientUnderScorerIsRejectedNotFatal is the custom
// Scorer's side of TestWrongLengthGradientIsRejectedNotFatal: the exact
// loss-delta screen must score a wrong-length upload NaN instead of
// indexing past its end, and the adapter must reject it whatever the
// Scorer said, so the aggregate never folds it. Every report must equal
// the NaN-poisoned run's.
func TestWrongLengthGradientUnderScorerIsRejectedNotFatal(t *testing.T) {
	for _, victim := range []int{5, 1, 0} {
		for name, malform := range map[string]func(gradvec.Vector) gradvec.Vector{"short": truncate, "long": pad} {
			t.Run(fmt.Sprintf("worker=%d/%s", victim, name), func(t *testing.T) {
				got := runTamperedScored(t, 3, lossDeltaFor(t), map[int]func(gradvec.Vector) gradvec.Vector{victim: malform})
				want := runTamperedScored(t, 3, lossDeltaFor(t), map[int]func(gradvec.Vector) gradvec.Vector{victim: poison})
				for r := range got {
					if d := diffReports(got[r], want[r]); d != "" {
						t.Fatalf("round %d: report differs from the NaN-poisoned run in %s", r, d)
					}
					det := got[r].Detection
					if det.Accept[victim] || det.Uncertain[victim] || !math.IsNaN(det.Scores[victim]) {
						t.Fatalf("round %d: victim verdict accept=%v uncertain=%v score=%v, want a rejection at NaN",
							r, det.Accept[victim], det.Uncertain[victim], det.Scores[victim])
					}
					if c := got[r].Contributions; !math.IsNaN(c.Dist[victim]) || c.C[victim] != 0 {
						t.Fatalf("round %d: victim distance %v contribution %v, want NaN and 0", r, c.Dist[victim], c.C[victim])
					}
				}
			})
		}
	}
}

// TestWrongLengthGradientWithoutBenchmark closes the sibling hole: with
// every server's upload unusable there is no benchmark, arrivals are
// accepted on trust — and a wrong-length one must not be among them, or
// aggregation panics folding it.
func TestWrongLengthGradientWithoutBenchmark(t *testing.T) {
	servers := map[int]func(gradvec.Vector) gradvec.Vector{0: poison, 1: truncate}
	withVictim := func(fn func(gradvec.Vector) gradvec.Vector) map[int]func(gradvec.Vector) gradvec.Vector {
		return map[int]func(gradvec.Vector) gradvec.Vector{0: servers[0], 1: servers[1], 5: fn}
	}
	got := runTampered(t, 1, withVictim(truncate))[0]
	want := runTampered(t, 1, withVictim(poison))[0]
	if got.Detection.Benchmark != nil {
		t.Fatal("a benchmark was assembled from unusable server uploads")
	}
	if d := diffReports(got, want); d != "" {
		t.Fatalf("report differs from the NaN-poisoned run in %s", d)
	}
	for _, i := range []int{0, 1, 5} {
		if got.Detection.Accept[i] || got.Detection.Events()[i] != EventNegative {
			t.Fatalf("worker %d: accept=%v event=%v, want a rejection", i, got.Detection.Accept[i], got.Detection.Events()[i])
		}
	}
	if !got.Detection.Accept[2] || got.Global == nil {
		t.Fatal("usable arrivals were not accepted on trust")
	}
}
