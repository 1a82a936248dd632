package core

import (
	"bytes"
	"testing"

	"fifl/internal/attack"
	"fifl/internal/dataset"
	"fifl/internal/faults"
	"fifl/internal/fl"
	"fifl/internal/nn"
	"fifl/internal/rng"
)

// buildAsyncCoordinator constructs a deterministic async federation: 5
// honest workers plus one sign-flipper, collected through fl.AsyncCollector
// with the given lag schedule.
func buildAsyncCoordinator(t *testing.T, cfg fl.AsyncConfig) (*Coordinator, *fl.Engine, *fl.AsyncCollector) {
	t.Helper()
	src := rng.New(99)
	const nHonest, nFlip = 5, 1
	n := nHonest + nFlip
	build := nn.NewMLP(99, 28*28, []int{16}, 10)
	data := dataset.SynthDigits(src.Split("train"), n*200)
	parts := data.PartitionIID(src.Split("parts"), n)
	lc := fl.LocalConfig{K: 1, BatchSize: 96, LR: 0.05}
	workers := make([]fl.Worker, n)
	for i := 0; i < nHonest; i++ {
		workers[i] = fl.NewHonestWorker(i, parts[i], build, lc, src)
	}
	for i := nHonest; i < n; i++ {
		workers[i] = attack.NewSignFlipWorker(i, parts[i], build, lc, src, 4)
	}
	engine, err := fl.NewEngine(fl.Config{Servers: 2, GlobalLR: 0.05}, build, workers, src)
	if err != nil {
		t.Fatal(err)
	}
	col, err := fl.NewAsyncCollector(engine, cfg)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(CoordinatorConfig{
		Detection:      Detector{Threshold: 0.02},
		Reputation:     DefaultReputationConfig(),
		Contribution:   ContributionConfig{BaselineWorker: -1},
		RewardPerRound: 1,
		RecordToLedger: true,
	}, engine, []int{0, 1}, WithCollector(col))
	if err != nil {
		t.Fatal(err)
	}
	return coord, engine, col
}

// asyncTestConfig is the shared async shape of the durability tests:
// three-worker advance windows with worker 4 one advance stale (within
// bound) and worker 5 four advances stale (over bound, always rejected).
func asyncTestConfig() fl.AsyncConfig {
	return fl.AsyncConfig{
		MaxStaleness: 2,
		AdvanceEvery: 3,
		Lag:          fl.StaticLag([]int{0, 0, 0, 0, 1, 4}),
	}
}

// TestAsyncKillBetweenRoundsResumesBitIdentical mirrors the synchronous
// durability headline for async mode: a 6-advance run checkpointed after
// advance 3 — the checkpoint now carrying the collector's model-history
// window — torn down, and restored into a freshly rebuilt async federation
// finishes bit-identically to an uninterrupted run.
func TestAsyncKillBetweenRoundsResumesBitIdentical(t *testing.T) {
	const rounds = 6

	ref, _, _ := buildAsyncCoordinator(t, asyncTestConfig())
	for r := 0; r < rounds; r++ {
		runRound(t, ref, r)
	}
	want := stateOf(t, ref)

	first, _, _ := buildAsyncCoordinator(t, asyncTestConfig())
	for r := 0; r < 3; r++ {
		runRound(t, first, r)
	}
	var ckpt bytes.Buffer
	if err := first.Checkpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	first = nil

	// "Restart": the fresh federation must be rebuilt with a fresh
	// collector of the same configuration; the restore hands it the
	// checkpointed model-history window.
	fresh, freshEngine, freshCol := buildAsyncCoordinator(t, asyncTestConfig())
	resumed, err := RestoreCoordinator(&ckpt, fresh.Cfg, freshEngine, WithCollector(freshCol))
	if err != nil {
		t.Fatalf("RestoreCoordinator: %v", err)
	}
	if resumed.NextRound() != 3 {
		t.Fatalf("resumed at round %d, want 3", resumed.NextRound())
	}
	for r := resumed.NextRound(); r < rounds; r++ {
		runRound(t, resumed, r)
	}
	requireSameState(t, want, stateOf(t, resumed), "async kill-and-resume")
}

// TestAsyncCheckpointRequiresCollectorSymmetry: an async checkpoint
// restored without a collector — and a sync checkpoint restored into an
// async federation — are mode mismatches, not silent downgrades.
func TestAsyncCheckpointRequiresCollectorSymmetry(t *testing.T) {
	async, _, _ := buildAsyncCoordinator(t, asyncTestConfig())
	runRound(t, async, 0)
	var asyncCkpt bytes.Buffer
	if err := async.Checkpoint(&asyncCkpt); err != nil {
		t.Fatal(err)
	}
	syncFresh, _ := buildTestCoordinator(t, 5, 1, true)
	if _, err := RestoreCoordinator(&asyncCkpt, syncFresh.Cfg, syncFresh.Engine); err == nil {
		t.Fatal("async checkpoint restored into a synchronous coordinator")
	}

	sync, _ := buildTestCoordinator(t, 5, 1, true)
	runRound(t, sync, 0)
	var syncCkpt bytes.Buffer
	if err := sync.Checkpoint(&syncCkpt); err != nil {
		t.Fatal(err)
	}
	_, freshEngine, freshCol := buildAsyncCoordinator(t, asyncTestConfig())
	cfg := CoordinatorConfig{
		Detection:      Detector{Threshold: 0.02},
		Reputation:     DefaultReputationConfig(),
		Contribution:   ContributionConfig{BaselineWorker: -1},
		RewardPerRound: 1,
		RecordToLedger: true,
	}
	if _, err := RestoreCoordinator(&syncCkpt, cfg, freshEngine, WithCollector(freshCol)); err == nil {
		t.Fatal("sync checkpoint restored into an async coordinator")
	}
}

// TestAsyncStaleWorkerPenalized: an over-bound submission must surface as
// StatusStale, be excluded from the fold, and hit the worker's reputation
// as a negative Eq. 8–10 event — while the within-bound straggler keeps
// participating at reduced weight.
func TestAsyncStaleWorkerPenalized(t *testing.T) {
	coord, _, _ := buildAsyncCoordinator(t, asyncTestConfig())
	sawStale, sawLagged := false, false
	for r := 0; r < 6; r++ {
		rep := runRound(t, coord, r)
		if !rep.Committed {
			t.Fatalf("async advance %d did not commit", r)
		}
		for i, st := range rep.Statuses {
			switch st {
			case faults.StatusStale:
				if i != 5 {
					t.Fatalf("advance %d: worker %d stale, only worker 5 is over-bound", r, i)
				}
				sawStale = true
			case faults.StatusOK:
				if i == 4 && rep.Staleness[i] > 0 {
					if rep.Staleness[i] > asyncTestConfig().MaxStaleness {
						t.Fatalf("advance %d: over-bound staleness %d accepted", r, rep.Staleness[i])
					}
					sawLagged = true
				}
			}
		}
	}
	if !sawStale {
		t.Fatal("worker 5 (lag 4 > bound 2) never recorded as stale")
	}
	if !sawLagged {
		t.Fatal("worker 4 (lag 1) never folded with positive staleness")
	}
	// The rejection is a negative event: the always-stale worker's
	// reputation must end below every fresh honest worker's.
	for i := 0; i < 4; i++ {
		if coord.Rep.Reputation(5) >= coord.Rep.Reputation(i) {
			t.Fatalf("stale worker reputation %v not below fresh worker %d's %v",
				coord.Rep.Reputation(5), i, coord.Rep.Reputation(i))
		}
	}
}
