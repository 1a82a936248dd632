package fl

import (
	"context"
	"math"
	"strings"
	"testing"

	"fifl/internal/faults"
	"fifl/internal/metrics"
	"fifl/internal/persist"
)

// TestStalenessWeight pins the bounded-staleness fold weight: exact
// identity at s=0, strict monotone decay, hard rejection past the bound,
// and zero for anything non-finite or negative.
func TestStalenessWeight(t *testing.T) {
	cases := []struct {
		name string
		s    float64
		max  int
		want float64
	}{
		{"fresh is exact identity", 0, 2, 1},
		{"one round stale", 1, 2, 0.5},
		{"at the bound", 2, 2, 1.0 / 3},
		{"just past the bound", 3, 2, 0},
		{"far past the bound", 100, 2, 0},
		{"fractional within bound", 0.5, 2, 1 / 1.5},
		{"unbounded keeps decaying", 9, -1, 0.1},
		{"zero bound accepts only fresh", 1, 0, 0},
		{"negative staleness", -1, 2, 0},
		{"NaN", math.NaN(), 2, 0},
		{"+Inf", math.Inf(1), 2, 0},
		{"-Inf", math.Inf(-1), 2, 0},
	}
	for _, tc := range cases {
		if got := StalenessWeight(tc.s, tc.max); got != tc.want {
			t.Errorf("%s: StalenessWeight(%v, %d) = %v, want %v", tc.name, tc.s, tc.max, got, tc.want)
		}
	}
	// Monotone decay across the whole accepted range.
	for s := 0; s < 8; s++ {
		if StalenessWeight(float64(s), -1) <= StalenessWeight(float64(s+1), -1) {
			t.Fatalf("weight is not strictly decreasing at s=%d", s)
		}
	}
}

// TestFoldWindow pins the one bounded-staleness rule: freshest upload per
// worker wins and every displaced one counts as superseded; over-bound is
// StatusStale with no gradient and no samples; an in-bound nil gradient
// is StatusDropped; a negative staleness clamps to 0; OK rows weigh
// StalenessWeight; unseated IDs are dropped; rows are cohort slots.
func TestFoldWindow(t *testing.T) {
	const round, bound = 5, 2
	reg := metrics.New()
	e := runtimeSetup(t, 4, 0, WithMetrics(reg))
	dim := len(e.ParamsRef())
	grad := func(v float64) []float64 {
		g := make([]float64, dim)
		g[0] = v
		return g
	}
	window := []persist.AsyncUpload{
		{Worker: 0, TrainedRound: 3, Samples: 7, Grad: grad(3)},
		{Worker: 0, TrainedRound: 4, Samples: 7, Grad: grad(4)}, // wins: s = 1
		{Worker: 0, TrainedRound: 2, Samples: 7, Grad: grad(2)}, // older, loses
		{Worker: 1, TrainedRound: 1, Samples: 7, Grad: grad(1)}, // s = 4 > bound
		{Worker: 2, TrainedRound: 5, Samples: 7},                // nil gradient
		{Worker: 3, TrainedRound: 7, Samples: 7, Grad: grad(7)}, // s clamps to 0
		{Worker: 9, TrainedRound: 5, Samples: 7, Grad: grad(9)}, // not seated
	}
	rr := FoldWindow(e, round, bound, window)
	want := []struct {
		status    faults.UploadStatus
		staleness int
		samples   int
		grad0     float64 // first coordinate of the folded gradient; NaN = nil
	}{
		{faults.StatusOK, 1, 7, 4},
		{faults.StatusStale, 4, 0, math.NaN()},
		{faults.StatusDropped, 0, 7, math.NaN()},
		{faults.StatusOK, 0, 7, 7},
	}
	if len(rr.Grads) != len(want) || rr.Round != round || !rr.Committed {
		t.Fatalf("round shell: %d rows, round %d, committed %v", len(rr.Grads), rr.Round, rr.Committed)
	}
	for i, w := range want {
		if rr.Status[i] != w.status || rr.Staleness[i] != w.staleness || rr.Samples[i] != w.samples {
			t.Errorf("row %d: status=%v staleness=%d samples=%d, want %v/%d/%d",
				i, rr.Status[i], rr.Staleness[i], rr.Samples[i], w.status, w.staleness, w.samples)
		}
		if math.IsNaN(w.grad0) {
			if rr.Grads[i] != nil {
				t.Errorf("row %d carries a gradient", i)
			}
		} else if rr.Grads[i] == nil || rr.Grads[i][0] != w.grad0 {
			t.Errorf("row %d folded the wrong upload", i)
		}
		wantW := 0.0
		if w.status == faults.StatusOK {
			wantW = StalenessWeight(float64(w.staleness), bound)
		}
		if rr.Weights[i] != wantW {
			t.Errorf("row %d weight %v, want %v", i, rr.Weights[i], wantW)
		}
	}
	if rr.Arrived != 2 {
		t.Errorf("Arrived = %d, want 2", rr.Arrived)
	}
	snap := reg.Snapshot()
	for _, c := range []struct {
		labels []string
		want   int64
	}{
		{nil, 2},
		{[]string{"staleness", "0"}, 2},
		{[]string{"staleness", "1"}, 1},
		{[]string{"staleness", "2"}, 0},
		{[]string{"staleness", "over"}, 1},
	} {
		name := "fifl_async_submissions_total"
		if c.labels == nil {
			name = "fifl_async_superseded_total"
		}
		if got := snap.CounterValue(name, c.labels...); got != c.want {
			t.Errorf("%s%v = %d, want %d", name, c.labels, got, c.want)
		}
	}

	// Rows are cohort slots, not IDs: with worker 1 gone, worker 3's
	// upload lands in slot 2 and worker 1's is not folded at all.
	if err := e.RemoveWorker(1); err != nil {
		t.Fatal(err)
	}
	rr = FoldWindow(e, round, bound, []persist.AsyncUpload{
		{Worker: 1, TrainedRound: 5, Samples: 7, Grad: grad(1)},
		{Worker: 3, TrainedRound: 5, Samples: 7, Grad: grad(3)},
	})
	if len(rr.Grads) != 3 || rr.Arrived != 1 {
		t.Fatalf("shrunk cohort: %d rows, %d arrived, want 3 and 1", len(rr.Grads), rr.Arrived)
	}
	if rr.Status[2] != faults.StatusOK || rr.Grads[2][0] != 3 {
		t.Fatalf("slot 2 (worker 3): status %v", rr.Status[2])
	}
	for slot := 0; slot < 2; slot++ {
		if rr.Status[slot] != faults.StatusPending || rr.Staleness[slot] != NoSubmission || rr.Grads[slot] != nil {
			t.Fatalf("slot %d: status %v staleness %d, want pending", slot, rr.Status[slot], rr.Staleness[slot])
		}
	}
}

// TestAsyncCollectorStaleRowHasNoSamples: the in-process collector folds
// an over-bound worker exactly like the wire one — StatusStale, no
// gradient and no sample weight — without training it.
func TestAsyncCollectorStaleRowHasNoSamples(t *testing.T) {
	e := runtimeSetup(t, 2, 0, WithMetrics(metrics.New()))
	col, err := NewAsyncCollector(e, AsyncConfig{MaxStaleness: 0, AdvanceEvery: 1, Lag: StaticLag([]int{0, 5})})
	if err != nil {
		t.Fatal(err)
	}
	var rr *RoundResult
	for round := 0; round < 2; round++ { // round 1 asks slot 1, lag 5 clamped to 1
		if rr, err = col.CollectRound(context.Background(), round); err != nil {
			t.Fatal(err)
		}
	}
	if rr.Status[1] != faults.StatusStale || rr.Grads[1] != nil || rr.Samples[1] != 0 {
		t.Fatalf("over-bound row: status=%v grad=%v samples=%d, want stale/nil/0",
			rr.Status[1], rr.Grads[1] != nil, rr.Samples[1])
	}
	if rr.Status[0] != faults.StatusPending || rr.Samples[0] != e.Workers[0].NumSamples() {
		t.Fatalf("pending row: status=%v samples=%d", rr.Status[0], rr.Samples[0])
	}
}

// TestNewAsyncCollectorRefusesQuorum: every async window commits, so an
// engine with a quorum would have it silently ignored; the collector is
// refused instead.
func TestNewAsyncCollectorRefusesQuorum(t *testing.T) {
	e := runtimeSetup(t, 2, 0, WithQuorum(2))
	if _, err := NewAsyncCollector(e, AsyncConfig{MaxStaleness: 1, AdvanceEvery: 1}); err == nil || !strings.Contains(err.Error(), "quorum") {
		t.Fatalf("NewAsyncCollector over a quorum-2 engine: error %v, want one naming the quorum", err)
	}
}
