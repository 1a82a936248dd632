package core

import (
	"context"
	"testing"

	"fifl/internal/chain"
	"fifl/internal/dataset"
	"fifl/internal/faults"
	"fifl/internal/fl"
	"fifl/internal/nn"
	"fifl/internal/rng"
)

// buildQuorumCoordinator assembles a federation whose engine enforces a
// quorum, with an injector that drops every upload in rounds [lossFrom,
// lossUntil).
type blackout struct{ From, Until int }

func (b blackout) Fault(round, worker, attempt int, src *rng.Source) faults.Fault {
	if round >= b.From && round < b.Until {
		return faults.FaultDrop
	}
	return faults.FaultNone
}

func buildQuorumCoordinator(t *testing.T, n, quorum int, inj faults.Injector, ledger bool) *Coordinator {
	t.Helper()
	src := rng.New(93)
	build := nn.NewMLP(93, 28*28, []int{16}, 10)
	data := dataset.SynthDigits(src.Split("train"), n*100)
	parts := data.PartitionIID(src.Split("parts"), n)
	lc := fl.LocalConfig{K: 1, BatchSize: 32, LR: 0.05}
	workers := make([]fl.Worker, n)
	for i := range workers {
		workers[i] = fl.NewHonestWorker(i, parts[i], build, lc, src)
	}
	engine, err := fl.NewEngine(fl.Config{Servers: 2, GlobalLR: 0.05}, build, workers, src,
		fl.WithQuorum(quorum), fl.WithFaultInjector(inj))
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(CoordinatorConfig{
		Detection:      Detector{Threshold: 0.02},
		Reputation:     DefaultReputationConfig(),
		Contribution:   ContributionConfig{BaselineWorker: -1},
		RewardPerRound: 1,
		RecordToLedger: ledger,
	}, engine, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	return coord
}

// TestQuorumFailureRoundDegradesGracefully: a round whose arrivals fall
// below quorum completes without error and without moving the model;
// every worker records an uncertain event and earns nothing; the ledger
// still receives a full, auditable set of records.
func TestQuorumFailureRoundDegradesGracefully(t *testing.T) {
	const n = 4
	coord := buildQuorumCoordinator(t, n, 3, blackout{From: 1, Until: 2}, true)
	engine := coord.Engine

	if _, err := coord.RunRoundContext(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	repsBefore := coord.Rep.Reputations()
	paramsBefore := append([]float64(nil), engine.Params()...)
	slmBefore := make([]float64, n)
	for i := range slmBefore {
		_, _, su, _ := slm(coord.Rep, i)
		slmBefore[i] = su
	}

	// Round 1: the blackout loses every upload; 0 arrivals < quorum 3.
	rep, err := coord.RunRoundContext(context.Background(), 1)
	if err != nil {
		t.Fatalf("degraded round must not error: %v", err)
	}
	if rep.Committed {
		t.Fatal("blackout round reported as committed")
	}
	if rep.Global != nil {
		t.Fatal("degraded round aggregated a global gradient")
	}
	for i := range engine.Params() {
		if engine.Params()[i] != paramsBefore[i] {
			t.Fatal("degraded round moved the global model")
		}
	}
	for i := 0; i < n; i++ {
		if !rep.Detection.Uncertain[i] {
			t.Fatalf("worker %d not marked uncertain in degraded round", i)
		}
		if rep.Statuses[i] != faults.StatusDropped {
			t.Fatalf("worker %d status %v, want dropped", i, rep.Statuses[i])
		}
		if rep.Rewards[i] != 0 || rep.Contributions.C[i] != 0 {
			t.Fatalf("worker %d paid in a degraded round", i)
		}
		// Uncertain events leave decayed reputations untouched (Eq. 10)
		// but raise the SLM uncertainty mass (Eq. 8).
		if rep.Reputations[i] != repsBefore[i] {
			t.Fatalf("worker %d reputation moved on an uncertain event", i)
		}
		if _, _, su, _ := slm(coord.Rep, i); su <= slmBefore[i] {
			t.Fatalf("worker %d uncertainty mass did not grow", i)
		}
	}

	// Round 2: the blackout lifts; training resumes and commits.
	rep, err = coord.RunRoundContext(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Committed {
		t.Fatal("post-blackout round failed to commit")
	}
	moved := false
	for i := range engine.Params() {
		if engine.Params()[i] != paramsBefore[i] {
			moved = true
			break
		}
	}
	if !moved {
		t.Fatal("committed round did not move the model")
	}

	// The ledger holds upload-status records for all three rounds, and the
	// degraded round's statuses are auditable.
	if err := coord.Ledger.Verify(); err != nil {
		t.Fatal(err)
	}
	recs := coord.Ledger.Query(chain.KindUpload, 1, 0)
	if len(recs) != 1 || faults.UploadStatus(recs[0].Value) != faults.StatusDropped {
		t.Fatalf("upload record for the degraded round = %+v", recs)
	}
	recs = coord.Ledger.Query(chain.KindUpload, 2, 0)
	if len(recs) != 1 || faults.UploadStatus(recs[0].Value) != faults.StatusOK {
		t.Fatalf("upload record for the recovered round = %+v", recs)
	}
}

// TestCrashThenRecoverReputationTrajectory: a device that crashes for a
// stretch of rounds accrues uncertain events — its decayed reputation
// freezes while everyone else's climbs — and resumes climbing once it
// recovers, mirroring the paper's treatment of transmission failures.
func TestCrashThenRecoverReputationTrajectory(t *testing.T) {
	const n = 4
	src := rng.New(94)
	build := nn.NewMLP(94, 28*28, []int{16}, 10)
	data := dataset.SynthDigits(src.Split("train"), n*100)
	parts := data.PartitionIID(src.Split("parts"), n)
	lc := fl.LocalConfig{K: 1, BatchSize: 32, LR: 0.05}
	workers := make([]fl.Worker, n)
	for i := range workers {
		workers[i] = fl.NewHonestWorker(i, parts[i], build, lc, src)
	}
	// The last device is honest but crashes over rounds [4, 10).
	crash := fl.WithFaultInjector(faults.Crash{Worker: n - 1, From: 4, Until: 10})
	engine, err := fl.NewEngine(fl.Config{Servers: 2, GlobalLR: 0.05}, build, workers, src, crash)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(CoordinatorConfig{
		Detection:      Detector{Threshold: 0.02},
		Reputation:     DefaultReputationConfig(),
		Contribution:   ContributionConfig{BaselineWorker: -1},
		RewardPerRound: 1,
	}, engine, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}

	var atCrashStart, atCrashEnd float64
	for round := 0; round < 16; round++ {
		rep := runRound(t, coord, round)
		crashed := round >= 4 && round < 10
		wantStatus := faults.StatusOK
		if crashed {
			wantStatus = faults.StatusCrashed
		}
		if rep.Statuses[n-1] != wantStatus {
			t.Fatalf("round %d: status %v, want %v", round, rep.Statuses[n-1], wantStatus)
		}
		if crashed && !rep.Detection.Uncertain[n-1] {
			t.Fatalf("round %d: crashed device not uncertain", round)
		}
		switch round {
		case 4:
			atCrashStart = rep.Reputations[n-1]
		case 9:
			atCrashEnd = rep.Reputations[n-1]
		}
	}
	// Uncertain events freeze the decayed reputation (Eq. 10 with no r_i).
	if atCrashEnd != atCrashStart {
		t.Fatalf("reputation moved during crash: %v -> %v", atCrashStart, atCrashEnd)
	}
	// After recovery the device earns positive events and overtakes its
	// frozen value.
	if final := coord.Rep.Reputation(n - 1); final <= atCrashEnd {
		t.Fatalf("reputation did not recover after the crash: %v <= %v", final, atCrashEnd)
	}
	// The crash leaves a permanent mark in the SLM opinion (Eq. 8): the
	// crashed device carries strictly more uncertainty mass than any
	// uninterrupted peer, even after it resumes earning positive events.
	_, _, suCrashed, _ := slm(coord.Rep, n-1)
	for i := 0; i < n-1; i++ {
		if _, _, su, _ := slm(coord.Rep, i); su >= suCrashed {
			t.Fatalf("worker %d uncertainty %v >= crashed device's %v", i, su, suCrashed)
		}
	}
}

// TestRunRoundContextCancellation: cancellation surfaces as an error from
// RunRoundContext without touching coordinator state.
func TestRunRoundContextCancellation(t *testing.T) {
	coord := buildQuorumCoordinator(t, 2, 0, nil, false)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := coord.RunRoundContext(ctx, 0); err == nil {
		t.Fatal("cancelled context must error")
	}
}

// TestTraceRecordsCarryStatus: the coordinator's trace records expose each
// upload's fate.
func TestTraceRecordsCarryStatus(t *testing.T) {
	coord := buildQuorumCoordinator(t, 3, 0, blackout{From: 0, Until: 1}, false)
	rep, err := coord.RunRoundContext(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, wr := range rep.TraceRecords() {
		if wr.Status != "dropped" {
			t.Fatalf("trace status = %q, want dropped", wr.Status)
		}
	}
}
