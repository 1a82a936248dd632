package fifl

import (
	"context"
	"math"
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
