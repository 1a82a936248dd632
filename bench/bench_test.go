package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"sort"
	"testing"
	"time"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.in); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("median reordered its input: %v", in)
	}
}

// ramp returns 1..n shuffled deterministically, so the k-th smallest is k.
func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[(i*7)%n] = float64(i + 1)
	}
	return xs
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n       int
		want    float64
		wantPct int
	}{
		{100, 90, 90},  // exactly ten samples beyond p90
		{150, 135, 90}, // more than ten beyond: capped at the requested p90
		{40, 30, 75},   // p90 would leave four beyond; p75 is the highest with ten
		{20, 10, 50},   // ten beyond only at the median
		{19, 10, 50},   // too few samples for any tail: the median
		{3, 2, 50},
	} {
		if gcd(7, tc.n) != 1 {
			t.Fatalf("ramp(%d) is not a permutation", tc.n)
		}
		got, pct := tailPercentile(ramp(tc.n), 90)
		if got != tc.want || pct != tc.wantPct {
			t.Errorf("tailPercentile(1..%d, 90) = %v at p%d, want %v at p%d", tc.n, got, pct, tc.want, tc.wantPct)
		}
		if tc.n >= 2*tailBeyond {
			if beyond := tc.n - int(got); beyond < tailBeyond {
				t.Errorf("n=%d: only %d samples beyond the reported tail", tc.n, beyond)
			}
		}
	}
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func TestRelGap(t *testing.T) {
	if g := relGap(0, 0); g != 0 {
		t.Errorf("relGap(0,0) = %v", g)
	}
	if g := relGap(90, 110); g != 0.2 {
		t.Errorf("relGap(90,110) = %v, want 0.2", g)
	}
	if relGap(110, 90) != relGap(90, 110) {
		t.Error("relGap is not symmetric")
	}
}

func TestSelfTime(t *testing.T) {
	parent := span{Start: 100, End: 200}
	for _, tc := range []struct {
		name     string
		children []span
		want     time.Duration
	}{
		{"no children", nil, 100},
		{"one inside", []span{{Start: 120, End: 150}}, 70},
		{"two overlapping count once", []span{{Start: 120, End: 150}, {Start: 140, End: 160}}, 60},
		{"nested", []span{{Start: 110, End: 190}, {Start: 120, End: 130}}, 20},
		{"sticking out is clipped", []span{{Start: 50, End: 120}, {Start: 180, End: 400}}, 60},
		{"outside does not count", []span{{Start: 0, End: 100}, {Start: 200, End: 300}}, 100},
		{"covering all", []span{{Start: 0, End: 300}}, 0},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: selfTime = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestLinkAndSelfByName(t *testing.T) {
	tr := newTracer()
	// Round 3: a worker span recorded before its stage span exists, as the
	// trace hook fires after the stage; then an HTTP span with no round.
	tr.add(spanLocalTrain, 110, 150, 3)
	tr.add(spanHTTPSubmit, 160, 170, -1)
	tr.add(spanStagePrefix+"Collect", 100, 200, 3)
	tr.add(spanStagePrefix+"Detect", 200, 260, 3)
	tr.add(spanHTTPModel, 270, 900, -1) // starts after the round's last stage
	tr.link()

	byName := map[string]span{}
	for _, s := range tr.spans {
		byName[s.Name] = s
	}
	round, collect := byName[spanRound], byName[spanStagePrefix+"Collect"]
	if round.Start != 100 || round.End != 260 || round.Parent != -1 || round.Round != 3 {
		t.Errorf("round span = %+v", round)
	}
	if collect.Parent != round.ID || byName[spanStagePrefix+"Detect"].Parent != round.ID {
		t.Errorf("stages do not hang under the round: %+v", tr.spans)
	}
	if got := byName[spanLocalTrain].Parent; got != collect.ID {
		t.Errorf("LocalTrain parent = %d, want Collect %d", got, collect.ID)
	}
	if s := byName[spanHTTPSubmit]; s.Parent != collect.ID || s.Round != 3 {
		t.Errorf("HTTP span = %+v, want parent Collect and round 3", s)
	}
	if s := byName[spanHTTPModel]; s.Parent != -1 {
		t.Errorf("span starting between rounds got parent %d", s.Parent)
	}
	if got := tr.selfByName(spanStagePrefix+"Collect", spanLocalTrain); got != 60 {
		t.Errorf("Collect self time = %d, want 60", got)
	}
	unit := func(int) float64 { return 1 }
	if got := len(tr.timed(4, unit).spans); got != 0 {
		t.Errorf("timed(4) kept %d spans of round 3", got)
	}
	// At twice the reference time every interval of the round halves
	// around the round's start, so self time halves with it.
	half := tr.timed(3, func(int) float64 { return 2 })
	if got := half.selfByName(spanStagePrefix+"Collect", spanLocalTrain); got != 30 {
		t.Errorf("calibrated Collect self time = %d, want 30", got)
	}
}

// toy shrinks a workload to smoke-test size: 8 workers (the wire workload
// keeps its 2), 2 warm-up and 3 timed rounds, one pass of each read.
func toy(sp spec) spec {
	if sp.workers > 8 {
		sp.workers = 8
	}
	sp.warm, sp.rounds = 2, 3
	sp.reads = reads{verify: 1, verifyFrom: 1, audit: 1, checkpoint: 1, restore: 1, query: 5}
	return sp
}

// contract reads the metric names BENCHMARK.json promises.
func contract(t *testing.T) (endToEnd, perLayer, workloads []string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	for _, m := range f.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range f.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	for _, w := range f.Workloads {
		workloads = append(workloads, w.Name)
	}
	return endToEnd, perLayer, workloads
}

func sameNames(t *testing.T, what string, got map[string]metric, want []string) {
	t.Helper()
	var have []string
	for name := range got {
		have = append(have, name)
	}
	sort.Strings(have)
	want = append([]string(nil), want...)
	sort.Strings(want)
	if len(have) != len(want) {
		t.Errorf("%s: reported %d metrics, BENCHMARK.json lists %d\n got %v\nwant %v", what, len(have), len(want), have, want)
		return
	}
	for i := range have {
		if have[i] != want[i] {
			t.Errorf("%s: metric %q reported, %q listed", what, have[i], want[i])
		}
	}
}

// TestSmoke runs every workload at toy size, untraced and traced: the
// correctness gate must pass, no operation may fail, the reported metric
// names must be exactly the ones BENCHMARK.json lists, and two untraced
// runs at one seed must leave the same state.
func TestSmoke(t *testing.T) {
	endToEnd, perLayer, workloads := contract(t)
	if len(workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(workloads), len(specs))
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	start := time.Now()
	for i, full := range specs {
		if workloads[i] != full.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the benchmark", i, workloads[i], full.name)
		}
		sp := toy(full)
		plain, err := runWorkload(ctx, sp, 1, nil, "", io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		if !plain.Correct || plain.Failed != 0 || plain.Attempted == 0 {
			t.Errorf("%s: correct=%t, %d of %d operations failed", sp.name, plain.Correct, plain.Failed, plain.Attempted)
		}
		sameNames(t, sp.name+" untraced", plain.Metrics, endToEnd)
		for name, m := range plain.Metrics {
			if m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must be positive", sp.name, name, m.Value)
			}
		}

		traced, err := runWorkload(ctx, sp, 1, newTracer(), t.TempDir(), io.Discard)
		if err != nil {
			t.Fatalf("%s traced: %v", sp.name, err)
		}
		if !traced.Correct || traced.Failed != 0 {
			t.Errorf("%s traced: correct=%t, %d operations failed", sp.name, traced.Correct, traced.Failed)
		}
		sameNames(t, sp.name+" traced", traced.Metrics, perLayer)
		if traced.digest != plain.digest {
			t.Errorf("%s: traced and untraced runs at one seed left different states:\n%s\n%s", sp.name, traced.digest, plain.digest)
		}
		if got := traced.Metrics["chain.records_per_round"].Value; got != float64(recordsPerUpload*sp.workers) {
			t.Errorf("%s: %v records per round, want %d", sp.name, got, recordsPerUpload*sp.workers)
		}
	}
	if d := time.Since(start); d > 5*time.Second && !testing.Short() {
		t.Logf("smoke took %v; the target is under 5 s", d)
	}
}

// TestGateCatchesWrongVerdict plants a cohort whose attackers are not
// where the gate expects them, and expects failed operations.
func TestGateCatchesWrongVerdict(t *testing.T) {
	r := &run{sp: toy(specs[0]), log: io.Discard, metrics: map[string]metric{}}
	fed, err := buildFederation(context.Background(), r.sp, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer fed.close()
	rep, err := fed.runRound(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	r.checkRound(0, rep, nil)
	if r.failed != 0 {
		t.Fatalf("honest report: %d failed operations", r.failed)
	}
	rep.Detection.Accept[7] = true // the planted attacker slips through
	rep.Shares[0] += 0.5           // and a share no longer follows Eq. 15
	r.checkRound(0, rep, nil)
	if r.failed != 1 {
		t.Errorf("wrong verdict counted as %d failed operations, want 1", r.failed)
	}
	if len(r.gate) != 1 {
		t.Errorf("tampered share raised %d gate failures, want 1: %v", len(r.gate), r.gate)
	}
}

func TestParseResult(t *testing.T) {
	out := []byte("nproc 2\nstate_digest wide-toy abc123\n" +
		`{"correct":true,"attempted":5,"failed":0,"metrics":{"setup_s":{"value":0.5,"unit":"s"}}}` + "\n")
	res, err := parseResult(out)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted != 5 || res.digest != "abc123" || res.Metrics["setup_s"].Value != 0.5 {
		t.Errorf("parsed %+v", res)
	}
	if _, err := parseResult([]byte("no result here\n")); err == nil {
		t.Error("output without a result line parsed")
	}
}
