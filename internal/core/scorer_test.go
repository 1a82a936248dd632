package core

import (
	"math"
	"testing"

	"fifl/internal/attack"
	"fifl/internal/dataset"
	"fifl/internal/faults"
	"fifl/internal/fl"
	"fifl/internal/gradvec"
	"fifl/internal/nn"
	"fifl/internal/rng"
)

// TestCoordinatorWithLossDeltaScorer drives the full mechanism with the
// exact Eq. 5 detector plugged in: the sign-flip attacker must be caught
// and punished, exactly as with the default cosine screen.
func TestCoordinatorWithLossDeltaScorer(t *testing.T) {
	src := rng.New(91)
	const n = 5
	build := nn.NewMLP(91, 28*28, []int{16}, 10)
	data := dataset.SynthDigits(src.Split("train"), n*150)
	val := dataset.SynthDigits(src.Split("val"), 150)
	parts := data.PartitionIID(src.Split("parts"), n)
	lc := fl.LocalConfig{K: 1, BatchSize: 96, LR: 0.05}
	workers := make([]fl.Worker, n)
	for i := 0; i < n-1; i++ {
		workers[i] = fl.NewHonestWorker(i, parts[i], build, lc, src)
	}
	workers[n-1] = attack.NewSignFlipWorker(n-1, parts[n-1], build, lc, src, 4)
	engine, err := fl.NewEngine(fl.Config{Servers: 2, GlobalLR: 0.05}, build, workers, src)
	if err != nil {
		t.Fatal(err)
	}

	scorer := &LossDeltaScorer{
		Model:     build(),
		ValX:      val.X,
		ValLabels: val.Labels,
		Eta:       0.05,
	}
	coord, err := NewCoordinator(CoordinatorConfig{
		Detection:      Detector{Threshold: 0},
		Scorer:         scorer,
		Reputation:     DefaultReputationConfig(),
		Contribution:   ContributionConfig{BaselineWorker: -1, Clamp: 10, SmoothBH: 0.2},
		RewardPerRound: 1,
	}, engine, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}

	caught, certain := 0, 0
	for round := 0; round < 12; round++ {
		rep := runRound(t, coord, round)
		if !rep.Detection.Uncertain[n-1] {
			certain++
			if !rep.Detection.Accept[n-1] {
				caught++
			}
		}
		// The scorer path produces no benchmark.
		if rep.Detection.Benchmark != nil {
			t.Fatal("scorer path should not build a cosine benchmark")
		}
	}
	if caught < certain*8/10 {
		t.Fatalf("loss-delta coordinator caught the attacker only %d/%d rounds", caught, certain)
	}
	if rep := coord.Rep.Reputation(n - 1); rep > 0.2 {
		t.Fatalf("attacker reputation %v under loss-delta detection", rep)
	}
}

// TestDetectWithScorerFlags checks the adapter's handling of drops, NaN
// scores and unusable arrivals, which are rejected whatever they scored,
// once settle has applied the status rule.
func TestDetectWithScorerFlags(t *testing.T) {
	fake := fakeScorer{scores: []float64{0.5, -0.1, math.NaN(), 0.2, 1, 1}}
	rr := &fl.RoundResult{
		Grads:     []gradvec.Vector{{1}, {1}, {1}, nil, {math.NaN()}, {math.Inf(1)}},
		Samples:   []int{1, 1, 1, 1, 1, 1},
		Status:    []faults.UploadStatus{0, 0, 0, faults.StatusDropped, 0, 0},
		Committed: true,
	}
	res := detectWithScorer(fake, 0, []float64{0}, rr)
	res.settle(rr)
	if !res.Accept[0] || res.Accept[1] || res.Accept[2] {
		t.Fatalf("accept flags wrong: %v", res.Accept)
	}
	if !res.Uncertain[3] || res.Accept[3] {
		t.Fatal("dropped worker must be uncertain and rejected")
	}
	for _, i := range []int{4, 5} {
		if res.Accept[i] || res.Uncertain[i] {
			t.Fatalf("unusable arrival %d: accept=%v uncertain=%v, want a rejection", i, res.Accept[i], res.Uncertain[i])
		}
	}
}

type fakeScorer struct{ scores []float64 }

func (f fakeScorer) Scores([]float64, []gradvec.Vector) []float64 { return f.scores }
