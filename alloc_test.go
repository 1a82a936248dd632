package fifl

import (
	"context"
	"testing"
)

// TestRoundSteadyStateAllocs pins the round hot path's allocation budget.
// After warm-up, everything a round allocates should escape the round on
// purpose: the ledger blocks it appends (one retained signature per
// record, 5 records per worker) and the caller-owned RoundReport with its
// detection result. All internal scratch — the gradient arena, the
// RoundResult, the fault plan, the parameter snapshot, the ledger's
// signing buffer — is engine- or coordinator-owned and reused round over
// round. The budget has headroom for allocator noise but sits far below
// what any reintroduced per-round buffer would cost; if this fails after
// a change, find the new allocation site with `go test -run
// TestRoundSteadyStateAllocs -memprofile mem.out -outputdir <dir> .`
// before raising it.
func TestRoundSteadyStateAllocs(t *testing.T) {
	const (
		n      = 8
		budget = 130 // measured ~96 allocs/round at n=8
	)
	coord := benchCoordinator(t, n)
	ctx := context.Background()
	round := 0
	runOne := func() {
		if _, err := coord.RunRoundContext(ctx, round); err != nil {
			t.Fatal(err)
		}
		round++
	}
	// Warm up the engine-owned scratch (arena, round result, plan,
	// snapshot) and the ledger's signing buffer.
	for round < 3 {
		runOne()
	}
	if avg := testing.AllocsPerRun(20, runOne); avg > budget {
		t.Fatalf("round hot path allocates %.0f objects per round at n=%d, budget %d — a per-round buffer is back", avg, n, budget)
	}
}

// benchFixedWorker returns a pre-computed gradient without training, so
// the allocation budget measures the coordinator machinery (collection,
// detection, aggregation, contribution, reward, ledger) rather than SGD.
type benchFixedWorker struct {
	id   int
	grad Gradient
}

func (w *benchFixedWorker) ID() int         { return w.id }
func (w *benchFixedWorker) NumSamples() int { return 100 }
func (w *benchFixedWorker) LocalTrain(round int, global []float64) Gradient {
	return w.grad
}

// benchCoordinator assembles an n-worker federation with fixed-gradient
// workers over a small MLP, with a private metrics registry so its
// counters never mix with another test's.
func benchCoordinator(b testing.TB, n int) *Coordinator {
	b.Helper()
	build := NewMLP(11, 24, []int{8}, 4)
	dim := build().NumParams()
	workers := make([]Worker, n)
	for i := range workers {
		g := make(Gradient, dim)
		for j := range g {
			g[j] = 0.01 * float64((i*31+j*7)%13-6)
		}
		workers[i] = &benchFixedWorker{id: i, grad: g}
	}
	engine, err := NewEngine(EngineConfig{Servers: 2, GlobalLR: 0.05}, build, workers,
		NewRNG(uint64(n)), WithMetrics(NewMetricsRegistry()))
	if err != nil {
		b.Fatal(err)
	}
	coord, err := NewCoordinator(CoordinatorConfig{
		Detection:      Detector{Threshold: 0.02},
		Reputation:     DefaultReputationConfig(),
		Contribution:   ContributionConfig{BaselineWorker: -1, Clamp: 10, SmoothBH: 0.2},
		RewardPerRound: 1,
		RecordToLedger: true,
	}, engine, []int{0, 1})
	if err != nil {
		b.Fatal(err)
	}
	return coord
}
