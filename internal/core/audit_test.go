package core_test

import (
	"context"
	"testing"

	"fifl/internal/chain"
	"fifl/internal/core"
	"fifl/internal/dataset"
	"fifl/internal/faults"
	"fifl/internal/fl"
	"fifl/internal/nn"
	"fifl/internal/rng"
	"fifl/internal/shard"
)

const (
	auditWorkers = 6
	auditRounds  = 6
)

// lose fails the upload of cohort slot s in round r with lose[{r, s}].
type lose map[[2]int]faults.Fault

func (l lose) Fault(round, slot, _ int, _ *rng.Source) faults.Fault { return l[[2]int{round, slot}] }

// auditWorkerSet builds n honest MLP workers (IDs 0..n-1) and their model.
func auditWorkerSet(src *rng.Source, n int) ([]fl.Worker, nn.Builder) {
	build := nn.NewMLP(77, 28*28, []int{8}, 10)
	data := dataset.SynthDigits(src.Split("train"), n*80)
	parts := data.PartitionIID(src.Split("parts"), n)
	lc := fl.LocalConfig{K: 1, BatchSize: 40, LR: 0.05}
	workers := make([]fl.Worker, n)
	for i := range workers {
		workers[i] = fl.NewHonestWorker(i, parts[i], build, lc, src)
	}
	return workers, build
}

func auditCoordinator(t *testing.T, engine *fl.Engine, opts ...core.CoordinatorOption) *core.Coordinator {
	t.Helper()
	coord, err := core.NewCoordinator(core.CoordinatorConfig{
		Detection:      core.Detector{Threshold: 0.02},
		Reputation:     core.DefaultReputationConfig(),
		Contribution:   core.ContributionConfig{BaselineWorker: -1},
		RewardPerRound: 1,
		RecordToLedger: true,
	}, engine, []int{0, 1}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return coord
}

// flatAudit runs a flat federation of auditWorkers workers for
// auditRounds rounds; between rounds, churn[r] (if set) runs before
// round r.
func flatAudit(t *testing.T, churn map[int]func(*core.Coordinator, []fl.Worker), opts ...fl.Option) *core.Coordinator {
	t.Helper()
	src := rng.New(5)
	all, build := auditWorkerSet(src, auditWorkers+1) // one spare for a joiner
	// The engine gets its own copy: membership changes edit its slice in place.
	seated := append([]fl.Worker(nil), all[:auditWorkers]...)
	engine, err := fl.NewEngine(fl.Config{Servers: 2, GlobalLR: 0.05}, build, seated, src, opts...)
	if err != nil {
		t.Fatal(err)
	}
	coord := auditCoordinator(t, engine)
	for r := 0; r < auditRounds; r++ {
		if fn := churn[r]; fn != nil {
			fn(coord, all)
		}
		if _, err := coord.RunRoundContext(context.Background(), r); err != nil {
			t.Fatal(err)
		}
	}
	return coord
}

// asyncAudit runs auditRounds advance windows of three submissions each.
func asyncAudit(t *testing.T, lag fl.LagSchedule) *core.Coordinator {
	t.Helper()
	src := rng.New(5)
	workers, build := auditWorkerSet(src, auditWorkers)
	engine, err := fl.NewEngine(fl.Config{Servers: 2, GlobalLR: 0.05}, build, workers, src)
	if err != nil {
		t.Fatal(err)
	}
	col, err := fl.NewAsyncCollector(engine, fl.AsyncConfig{MaxStaleness: 1, AdvanceEvery: 3, Lag: lag})
	if err != nil {
		t.Fatal(err)
	}
	coord := auditCoordinator(t, engine, core.WithCollector(col))
	for r := 0; r < auditRounds; r++ {
		if _, err := coord.RunRoundContext(context.Background(), r); err != nil {
			t.Fatal(err)
		}
	}
	return coord
}

// shardedAudit runs the federation under two edge aggregators whose root
// needs every upload (quorum auditWorkers); each cohort engine fails
// uploads as inj says, keyed by the worker's slot in its cohort.
func shardedAudit(t *testing.T, inj [2]lose) *core.Coordinator {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	src := rng.New(5)
	workers, build := auditWorkerSet(src, auditWorkers)
	samples := make([]int, len(workers))
	for i, w := range workers {
		samples[i] = w.NumSamples()
	}
	hub, err := shard.NewShardHub(auditWorkers, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	root, err := fl.NewEngine(fl.Config{Servers: 2, GlobalLR: 0.05}, build, shard.VirtualWorkers(samples), src.Split("root"), fl.WithQuorum(auditWorkers))
	if err != nil {
		t.Fatal(err)
	}
	bridge, err := shard.NewBridge(hub, root, auditWorkers)
	if err != nil {
		t.Fatal(err)
	}
	coord := auditCoordinator(t, root, core.WithCollector(bridge))
	bridge.BindServers(coord.Servers)
	errc := make(chan error, 2)
	half := auditWorkers / 2
	for s := 0; s < 2; s++ {
		cohort, err := fl.NewEngine(fl.Config{Servers: 1, GlobalLR: 0.05}, build, workers[s*half:(s+1)*half], src.SplitN("shard", s), fl.WithFaultInjector(inj[s]))
		if err != nil {
			t.Fatal(err)
		}
		agg, err := shard.NewAggregator(s, s*half, cohort, shard.DirectLink{Hub: hub})
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			if err := agg.Hello(ctx); err != nil {
				errc <- err
				return
			}
			errc <- agg.Run(ctx)
		}()
	}
	if err := hub.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < auditRounds; r++ {
		if _, err := coord.RunRoundContext(ctx, r); err != nil {
			t.Fatal(err)
		}
	}
	if err := bridge.Finish(); err != nil {
		t.Fatal(err)
	}
	for range 2 {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	return coord
}

// TestAuditReplaysTheLiveEventRule: the reputation audit replays each
// round through the rule the live round applied, so on an honest ledger
// it names no culprit for any (round, worker) pair, whatever the uploads'
// fate: lost, timed out, pending or stale in an async window, in a round
// that missed its quorum flat or sharded, or around a join, a departure
// and a return.
func TestAuditReplaysTheLiveEventRule(t *testing.T) {
	for _, tc := range []struct {
		name string
		seen faults.UploadStatus // a status the run must have recorded
		run  func(t *testing.T) *core.Coordinator
	}{
		{"dropped", faults.StatusDropped, func(t *testing.T) *core.Coordinator {
			return flatAudit(t, nil, fl.WithFaultInjector(lose{{1, 0}: faults.FaultDrop, {3, 4}: faults.FaultDrop}))
		}},
		{"timed-out", faults.StatusTimedOut, func(t *testing.T) *core.Coordinator {
			return flatAudit(t, nil, fl.WithFaultInjector(lose{{1, 0}: faults.FaultStraggle, {2, 3}: faults.FaultStraggle}))
		}},
		{"async-pending", faults.StatusPending, func(t *testing.T) *core.Coordinator { return asyncAudit(t, nil) }},
		{"async-stale", faults.StatusStale, func(t *testing.T) *core.Coordinator { return asyncAudit(t, fl.StaticLag([]int{0, 0, 0, 0, 0, 3})) }},
		{"quorum-missed", faults.StatusDropped, func(t *testing.T) *core.Coordinator {
			return flatAudit(t, nil, fl.WithQuorum(auditWorkers), fl.WithFaultInjector(lose{{2, 1}: faults.FaultDrop}))
		}},
		{"sharded-quorum-missed", faults.StatusCrashed, func(t *testing.T) *core.Coordinator {
			return shardedAudit(t, [2]lose{{{2, 0}: faults.FaultCrash}, {{4, 2}: faults.FaultDrop}})
		}},
		{"late-joiner", faults.StatusOK, func(t *testing.T) *core.Coordinator {
			return flatAudit(t, map[int]func(*core.Coordinator, []fl.Worker){
				2: func(c *core.Coordinator, all []fl.Worker) {
					if _, err := c.AdmitWorker(all[auditWorkers]); err != nil {
						t.Fatal(err)
					}
				},
			})
		}},
		{"leave-rejoin", faults.StatusOK, func(t *testing.T) *core.Coordinator {
			return flatAudit(t, map[int]func(*core.Coordinator, []fl.Worker){
				2: func(c *core.Coordinator, _ []fl.Worker) {
					if err := c.DepartWorker(3); err != nil {
						t.Fatal(err)
					}
				},
				4: func(c *core.Coordinator, all []fl.Worker) {
					if err := c.ReadmitWorker(3, all[3]); err != nil {
						t.Fatal(err)
					}
				},
			})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			coord := tc.run(t)
			audited, seen := 0, false
			for r := 0; r < auditRounds; r++ {
				for _, rec := range coord.Ledger.Query(chain.KindUpload, r, -1) {
					seen = seen || faults.UploadStatus(rec.Value) == tc.seen
					culprit, err := coord.AuditReputation(r, rec.WorkerID)
					if err != nil {
						t.Fatalf("round %d worker %d: %v", r, rec.WorkerID, err)
					}
					if culprit != "" {
						t.Errorf("round %d worker %d (upload %v): honest ledger audited as tampered by %s",
							r, rec.WorkerID, faults.UploadStatus(rec.Value), culprit)
					}
					audited++
				}
			}
			if audited == 0 || !seen {
				t.Fatalf("%d (round, worker) pairs audited, %v seen: %v, want some and true", audited, tc.seen, seen)
			}
		})
	}
}
