package fifl

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"

	"fifl/internal/attack"
)

// buildSmallFederation assembles a 5-worker federation with one
// sign-flipping attacker through the public API.
func buildSmallFederation(t *testing.T, seed uint64) (*Engine, *Dataset, []Worker) {
	t.Helper()
	src := NewRNG(seed)
	build := NewMLP(seed, 28*28, []int{16}, 10)
	local := LocalConfig{K: 1, BatchSize: 48, LR: 0.05}
	train := SynthDigits(src.Split("train"), 5*100)
	test := SynthDigits(src.Split("test"), 100)
	parts := train.PartitionIID(src.Split("split"), 5)
	workers := make([]Worker, 5)
	for i := 0; i < 4; i++ {
		workers[i] = NewHonestWorker(i, parts[i], build, local, src)
	}
	workers[4] = attack.NewSignFlipWorker(4, parts[4], build, local, src, 4)
	engine, err := NewEngine(EngineConfig{Servers: 2, GlobalLR: 0.05}, build, workers, src)
	if err != nil {
		t.Fatal(err)
	}
	return engine, test, workers
}

// TestRobustAggregatorsThroughFacade drives the re-exported robust
// aggregators on live federation rounds: each defense must track the
// honest direction better than the plain mean.
func TestRobustAggregatorsThroughFacade(t *testing.T) {
	engine, _, _ := buildSmallFederation(t, 101)
	rr, err := engine.CollectGradientsContext(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}

	// Honest reference: mean of the four honest gradients.
	honest := make(Gradient, len(engine.Params()))
	for i := 0; i < 4; i++ {
		honest.AddScaled(0.25, rr.Grads[i])
	}
	mean := MeanAggregator.Aggregate(rr.Grads)
	for _, agg := range []RobustAggregator{
		KrumAggregator(1, 1),
		KrumAggregator(1, 2),
		MedianAggregator,
		TrimmedMeanAggregator(1),
	} {
		got := agg.Aggregate(rr.Grads)
		if got == nil {
			t.Fatalf("%s returned nil", agg.Name())
		}
		if honest.CosSim(got) <= honest.CosSim(mean) {
			t.Fatalf("%s (cos %v) should beat the plain mean (cos %v)",
				agg.Name(), honest.CosSim(got), honest.CosSim(mean))
		}
	}
}

// TestTraceThroughFacade runs coordinator rounds and exports a trace via
// the public API.
func TestTraceThroughFacade(t *testing.T) {
	engine, _, _ := buildSmallFederation(t, 102)
	coord, err := NewCoordinator(CoordinatorConfig{
		Detection:      Detector{Threshold: 0.02},
		Reputation:     DefaultReputationConfig(),
		Contribution:   ContributionConfig{BaselineWorker: -1, Clamp: 10, SmoothBH: 0.2},
		RewardPerRound: 1,
	}, engine, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	rec := NewTraceRecorder()
	const rounds = 6
	for round := 0; round < rounds; round++ {
		rep, err := coord.RunRoundContext(context.Background(), round)
		if err != nil {
			t.Fatal(err)
		}
		for _, wr := range rep.TraceRecords() {
			rec.RecordWorker(wr)
		}
	}
	if rec.Rounds() != rounds || rec.Len() != rounds*5 {
		t.Fatalf("trace has %d rounds / %d records", rec.Rounds(), rec.Len())
	}
	sums := rec.Summarize()
	if len(sums) != 5 {
		t.Fatalf("summaries = %d", len(sums))
	}
	// The attacker's accept rate must be the lowest.
	for i := 0; i < 4; i++ {
		if sums[4].AcceptRate > sums[i].AcceptRate {
			t.Fatalf("attacker accept rate %v above honest worker %d (%v)",
				sums[4].AcceptRate, i, sums[i].AcceptRate)
		}
	}
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"type":"worker"`) {
		t.Fatal("trace export missing worker records")
	}
}

// TestCommAnalysisThroughFacade checks the §3.2 cost model re-export.
func TestCommAnalysisThroughFacade(t *testing.T) {
	engine, _, _ := buildSmallFederation(t, 103)
	dim := len(engine.Params())
	central := AnalyzeComm(CommParams{Workers: 5, Servers: 1, ModelDim: dim})
	poly := AnalyzeComm(CommParams{Workers: 5, Servers: 5, ModelDim: dim})
	if poly.PerServerIn >= central.PerServerIn {
		t.Fatal("polycentric per-server load should be below centralized")
	}
	if poly.PerWorkerUp != central.PerWorkerUp {
		t.Fatal("per-worker traffic should not depend on M")
	}
}

// TestModelCheckpointThroughFacade saves and restores a model through the
// re-exported Model type.
func TestModelCheckpointThroughFacade(t *testing.T) {
	build := NewMLP(104, 10, []int{8}, 3)
	model := build()
	var buf bytes.Buffer
	if err := model.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored := build()
	if err := restored.Load(&buf); err != nil {
		t.Fatal(err)
	}
	a, b := model.ParamsVector(), restored.ParamsVector()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("checkpoint round trip lost parameters")
		}
	}
}

// TestDeterministicEndToEnd: two identical runs through the public API are
// bit-identical — the reproducibility guarantee every experiment relies on.
func TestDeterministicEndToEnd(t *testing.T) {
	run := func() []float64 {
		engine, _, _ := buildSmallFederation(t, 105)
		coord, err := NewCoordinator(CoordinatorConfig{
			Detection:      Detector{Threshold: 0.02},
			Reputation:     DefaultReputationConfig(),
			Contribution:   ContributionConfig{BaselineWorker: -1},
			RewardPerRound: 1,
		}, engine, []int{0, 1})
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 5; round++ {
			if _, err := coord.RunRoundContext(context.Background(), round); err != nil {
				t.Fatal(err)
			}
		}
		out := append([]float64(nil), engine.Params()...)
		return append(out, coord.CumulativeRewards()...)
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] && !(math.IsNaN(a[i]) && math.IsNaN(b[i])) {
			t.Fatalf("end-to-end nondeterminism at %d: %v vs %v", i, a[i], b[i])
		}
	}
}
