package core

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"fifl/internal/dataset"
	"fifl/internal/fl"
	"fifl/internal/nn"
	"fifl/internal/rng"
)

// elasticFixture builds a federation with spare data partitions reserved
// for joiners, plus a worker factory that rebuilds any worker — original
// or joiner — from the same deterministic recipe, which is what lets the
// churn kill-and-resume test reconstruct the interrupted run's cohort.
type elasticFixture struct {
	coord      *Coordinator
	engine     *fl.Engine
	makeWorker func(id int) fl.Worker
}

// newElasticFixture assembles nInitial active workers with nSpare join
// slots. All workers are honest; worker id trains partition id.
func newElasticFixture(t *testing.T, nInitial, nSpare int, ledger bool) *elasticFixture {
	t.Helper()
	build := nn.NewMLP(101, 28*28, []int{16}, 10)
	lc := fl.LocalConfig{K: 1, BatchSize: 96, LR: 0.05}
	total := nInitial + nSpare
	makeWorker := func(id int) fl.Worker {
		// Fresh sources per call: Split derives streams from (seed, label)
		// without consuming parent state, so rebuilding a worker — in any
		// order, in any process — reproduces its exact stream.
		src := rng.New(101)
		data := dataset.SynthDigits(src.Split("train"), total*200)
		parts := data.PartitionIID(src.Split("parts"), total)
		return fl.NewHonestWorker(id, parts[id], build, lc, src)
	}
	workers := make([]fl.Worker, nInitial)
	for i := range workers {
		workers[i] = makeWorker(i)
	}
	engine, err := fl.NewEngine(fl.Config{Servers: 2, GlobalLR: 0.05}, build, workers, rng.New(101))
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
	return &elasticFixture{coord: coord, engine: engine, makeWorker: makeWorker}
}

func TestAdmitWorkerBootstrapsReputation(t *testing.T) {
	f := newElasticFixture(t, 4, 1, true)
	for r := 0; r < 3; r++ {
		runRound(t, f.coord, r)
	}
	id, err := f.coord.AdmitWorker(f.makeWorker(4))
	if err != nil {
		t.Fatal(err)
	}
	if id != 4 {
		t.Fatalf("joiner assigned ID %d, want 4", id)
	}
	if got := f.coord.Rep.N(); got != 5 {
		t.Fatalf("tracker covers %d workers after admission, want 5", got)
	}
	// Eq. 8–10 bootstrap: initial decayed reputation, full SLM uncertainty.
	if rep := f.coord.Rep.Reputation(id); rep != f.coord.Cfg.Reputation.Initial {
		t.Fatalf("joiner bootstrapped at %v, want %v", rep, f.coord.Cfg.Reputation.Initial)
	}
	if _, _, su, _ := slm(f.coord.Rep, id); su != 1 {
		t.Fatalf("joiner SLM uncertainty %v, want 1 (no assessed rounds yet)", su)
	}

	rep := runRound(t, f.coord, 3)
	if len(rep.Rewards) != 5 {
		t.Fatalf("round after admission paid %d workers, want 5", len(rep.Rewards))
	}
	if want := []int{0, 1, 2, 3, 4}; len(rep.WorkerIDs) != len(want) {
		t.Fatalf("round cohort %v, want %v", rep.WorkerIDs, want)
	}
	if got := len(f.coord.CumulativeRewards()); got != 5 {
		t.Fatalf("cumulative rewards cover %d workers, want 5", got)
	}
	// The joiner's assessment reached the ledger under its stable ID.
	if recs := f.coord.Ledger.Query("", 3, id); len(recs) == 0 {
		t.Fatal("no ledger records for the joiner's first round")
	}
}

func TestDepartAndReadmitKeepsHistory(t *testing.T) {
	f := newElasticFixture(t, 5, 0, false)
	for r := 0; r < 4; r++ {
		runRound(t, f.coord, r)
	}
	leaver := f.engine.Workers[1]
	repBefore := f.coord.Rep.Reputation(1)
	cumBefore := f.coord.CumulativeRewards()[1]
	if err := f.coord.DepartWorker(1); err != nil {
		t.Fatal(err)
	}
	if st, _ := f.coord.Members().State(1); st != StateDeparted {
		t.Fatalf("leaver state %v, want departed", st)
	}
	rep := runRound(t, f.coord, 4)
	if len(rep.Rewards) != 4 {
		t.Fatalf("round after departure paid %d workers, want 4", len(rep.Rewards))
	}
	for _, id := range rep.WorkerIDs {
		if id == 1 {
			t.Fatal("departed worker still in the round cohort")
		}
	}
	// Absence leaves the identity's history untouched: no events, no decay.
	if got := f.coord.Rep.Reputation(1); got != repBefore {
		t.Fatalf("departed worker reputation moved %v → %v", repBefore, got)
	}
	if got := f.coord.CumulativeRewards()[1]; got != cumBefore {
		t.Fatalf("departed worker cumulative moved %v → %v", cumBefore, got)
	}

	if err := f.coord.ReadmitWorker(1, leaver); err != nil {
		t.Fatal(err)
	}
	if got := f.coord.Rep.Reputation(1); got != repBefore {
		t.Fatalf("re-admission changed reputation %v → %v", repBefore, got)
	}
	rep = runRound(t, f.coord, 5)
	if got := rep.WorkerIDs[len(rep.WorkerIDs)-1]; got != 1 {
		t.Fatalf("re-admitted worker seated at ID %d in the last slot, want 1", got)
	}
}

func TestEvictWorkerIsPermanent(t *testing.T) {
	f := newElasticFixture(t, 5, 0, false)
	runRound(t, f.coord, 0)
	evicted := f.engine.Workers[2]
	if err := f.coord.EvictWorker(2); err != nil {
		t.Fatal(err)
	}
	if st, _ := f.coord.Members().State(2); st != StateBanned {
		t.Fatalf("evicted worker state %v, want banned", st)
	}
	if !f.coord.Banned(2) {
		t.Fatal("evicted worker not excluded from election")
	}
	if err := f.coord.ReadmitWorker(2, evicted); !errors.Is(err, ErrBanned) {
		t.Fatalf("banned worker re-admitted: %v", err)
	}
	rep := runRound(t, f.coord, 1)
	for _, id := range rep.WorkerIDs {
		if id == 2 {
			t.Fatal("evicted worker still in the cohort")
		}
	}
	for _, sv := range f.coord.Servers() {
		if sv == 2 {
			t.Fatal("evicted worker still in the server cluster")
		}
	}
}

func TestDepartGuardsMinimumCohort(t *testing.T) {
	f := newElasticFixture(t, 3, 0, false)
	if err := f.coord.DepartWorker(2); err != nil {
		t.Fatal(err)
	}
	// Two workers remain and the engine elects two servers: a further
	// departure would make the round unservable.
	if err := f.coord.DepartWorker(1); err == nil {
		t.Fatal("departure below the server-cluster size must be refused")
	}
}

// TestChurnKillResumeBitIdentity is the mid-run-churn differential of the
// FIFLCKP5 format: a run with a join before the kill and a departure
// after the resume must end bit-identical to the same run never
// interrupted — model parameters, every known identity's reputation and
// cumulative reward, the server cluster, and the ledger's binary export.
func TestChurnKillResumeBitIdentity(t *testing.T) {
	const (
		nInit       = 4
		joinAfter   = 3 // admit before running round 3
		ckptAfter   = 5 // checkpoint before running round 5
		departAfter = 6 // depart before running round 6
		rounds      = 8
	)
	type finalState struct {
		params, reps, cum []float64
		servers           []int
		ledger            []byte
	}
	capture := func(t *testing.T, f *elasticFixture) finalState {
		t.Helper()
		var buf bytes.Buffer
		if err := f.coord.Ledger.WriteBinary(&buf); err != nil {
			t.Fatal(err)
		}
		return finalState{
			params:  f.engine.Params(),
			reps:    f.coord.Rep.Reputations(),
			cum:     f.coord.CumulativeRewards(),
			servers: f.coord.Servers(),
			ledger:  buf.Bytes(),
		}
	}
	churn := func(t *testing.T, f *elasticFixture, boundary int) {
		t.Helper()
		if boundary == joinAfter {
			if _, err := f.coord.AdmitWorker(f.makeWorker(nInit)); err != nil {
				t.Fatal(err)
			}
		}
		if boundary == departAfter {
			if err := f.coord.DepartWorker(1); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Reference: the same schedule, never interrupted.
	ref := newElasticFixture(t, nInit, 1, true)
	for r := 0; r < rounds; r++ {
		churn(t, ref, r)
		runRound(t, ref.coord, r)
	}
	want := capture(t, ref)

	// Interrupted: checkpoint mid-churn, rebuild everything, resume.
	killed := newElasticFixture(t, nInit, 1, true)
	for r := 0; r < ckptAfter; r++ {
		churn(t, killed, r)
		runRound(t, killed.coord, r)
	}
	var ckpt bytes.Buffer
	if err := killed.coord.Checkpoint(&ckpt); err != nil {
		t.Fatal(err)
	}

	resumed := newElasticFixture(t, nInit, 1, true)
	// Reconstruct the cohort the interrupted run held: the original four
	// workers plus the round-3 joiner, all rebuilt from the recipe (the
	// restore fast-forwards their RNG streams to the checkpointed draws).
	if err := resumed.engine.AddWorker(resumed.makeWorker(nInit)); err != nil {
		t.Fatal(err)
	}
	coord, err := RestoreCoordinator(bytes.NewReader(ckpt.Bytes()), resumed.coord.Cfg, resumed.engine)
	if err != nil {
		t.Fatal(err)
	}
	resumed.coord = coord
	if got := coord.NextRound(); got != ckptAfter {
		t.Fatalf("resumed at round %d, want %d", got, ckptAfter)
	}
	for r := ckptAfter; r < rounds; r++ {
		churn(t, resumed, r)
		runRound(t, resumed.coord, r)
	}
	got := capture(t, resumed)

	for name, pair := range map[string][2][]float64{
		"params":      {want.params, got.params},
		"reputations": {want.reps, got.reps},
		"cumulative":  {want.cum, got.cum},
	} {
		if len(pair[0]) != len(pair[1]) {
			t.Fatalf("%s length diverged: %d vs %d", name, len(pair[0]), len(pair[1]))
		}
		for i := range pair[0] {
			if pair[0][i] != pair[1][i] {
				t.Fatalf("%s[%d] diverged: %v vs %v", name, i, pair[0][i], pair[1][i])
			}
		}
	}
	if len(want.servers) != len(got.servers) {
		t.Fatalf("server clusters diverged: %v vs %v", want.servers, got.servers)
	}
	for i := range want.servers {
		if want.servers[i] != got.servers[i] {
			t.Fatalf("server clusters diverged: %v vs %v", want.servers, got.servers)
		}
	}
	if !bytes.Equal(want.ledger, got.ledger) {
		t.Fatal("ledger binary exports diverged across kill-and-resume with churn")
	}
}

// TestBannedCarryoverAcrossResume: an identity evicted before the kill
// must still be refused re-admission after the restore — the banned set
// rides in the FIFLCKP5 registry section.
func TestBannedCarryoverAcrossResume(t *testing.T) {
	f := newElasticFixture(t, 5, 0, true)
	for r := 0; r < 2; r++ {
		runRound(t, f.coord, r)
	}
	if err := f.coord.EvictWorker(3); err != nil {
		t.Fatal(err)
	}
	runRound(t, f.coord, 2)
	var ckpt bytes.Buffer
	if err := f.coord.Checkpoint(&ckpt); err != nil {
		t.Fatal(err)
	}

	// Rebuild the surviving cohort (0, 1, 2, 4 — slot order) and restore.
	re := newElasticFixture(t, 5, 0, true)
	if err := re.engine.RemoveWorker(3); err != nil {
		t.Fatal(err)
	}
	coord, err := RestoreCoordinator(bytes.NewReader(ckpt.Bytes()), re.coord.Cfg, re.engine)
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := coord.Members().State(3); st != StateBanned {
		t.Fatalf("restored state for the evicted worker is %v, want banned", st)
	}
	if !coord.Banned(3) {
		t.Fatal("restored coordinator lost the election ban")
	}
	if err := coord.ReadmitWorker(3, re.makeWorker(3)); !errors.Is(err, ErrBanned) {
		t.Fatalf("banned worker re-admitted after resume: %v", err)
	}
	// The survivor federation keeps running.
	if _, err := coord.RunRoundContext(context.Background(), coord.NextRound()); err != nil {
		t.Fatal(err)
	}
}

// TestRestoreRejectsMisSeatedCohort: an engine whose cohort has the
// checkpoint's size but not its slot order must be refused. Accepting it
// would fast-forward each worker's RNG stream by another identity's draws
// and credit its uploads to the wrong reputation.
func TestRestoreRejectsMisSeatedCohort(t *testing.T) {
	f := newElasticFixture(t, 5, 0, true)
	runRound(t, f.coord, 0)
	if err := f.coord.DepartWorker(1); err != nil {
		t.Fatal(err)
	}
	runRound(t, f.coord, 1)
	var ckpt bytes.Buffer
	if err := f.coord.Checkpoint(&ckpt); err != nil {
		t.Fatal(err)
	}

	// The checkpoint seats 0, 2, 3, 4; the rebuilt engine swaps 2 and 4.
	re := newElasticFixture(t, 5, 0, true)
	if err := re.engine.RemoveWorker(1); err != nil {
		t.Fatal(err)
	}
	re.engine.Workers[1], re.engine.Workers[3] = re.engine.Workers[3], re.engine.Workers[1]
	if _, err := RestoreCoordinator(bytes.NewReader(ckpt.Bytes()), re.coord.Cfg, re.engine); err == nil {
		t.Fatal("restore accepted an engine whose slots 1 and 3 hold each other's workers")
	}
}
