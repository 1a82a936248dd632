package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"fifl/internal/attack"
	"fifl/internal/dataset"
	"fifl/internal/faults"
	"fifl/internal/fl"
	"fifl/internal/gradvec"
	"fifl/internal/metrics"
	"fifl/internal/nn"
	"fifl/internal/rng"
)

// buildDiffCoordinator assembles one arm of the differential test: a
// 6-worker federation (4 honest, 2 sign-flip) under a quorum, a
// retransmission schedule and a composed failure model that blacks out
// round 2 entirely (degrading it below quorum) on top of Bernoulli upload
// loss. Both arms are built from the same seed, so their deterministic
// fault schedules coincide and any divergence is the orchestration's.
func buildDiffCoordinator(t *testing.T, seed uint64, opts ...CoordinatorOption) *Coordinator {
	t.Helper()
	src := rng.New(seed)
	const n, nFlip = 6, 2
	build := nn.NewMLP(seed, 28*28, []int{16}, 10)
	data := dataset.SynthDigits(src.Split("train"), n*100)
	parts := data.PartitionIID(src.Split("parts"), n)
	lc := fl.LocalConfig{K: 1, BatchSize: 32, LR: 0.05}
	workers := make([]fl.Worker, n)
	for i := 0; i < n-nFlip; i++ {
		workers[i] = fl.NewHonestWorker(i, parts[i], build, lc, src)
	}
	for i := n - nFlip; i < n; i++ {
		workers[i] = attack.NewSignFlipWorker(i, parts[i], build, lc, src, 4)
	}
	inj := faults.Compose{blackout{From: 2, Until: 3}, faults.Bernoulli{P: 0.15}}
	engine, err := fl.NewEngine(fl.Config{Servers: 2, GlobalLR: 0.05}, build, workers, src,
		fl.WithQuorum(4), fl.WithRetry(2, 10*time.Millisecond), fl.WithFaultInjector(inj),
		fl.WithMetrics(metrics.New()))
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(CoordinatorConfig{
		Detection:      Detector{Threshold: 0.02},
		Reputation:     DefaultReputationConfig(),
		Contribution:   ContributionConfig{BaselineWorker: -1, Clamp: 10, SmoothBH: 0.2},
		RewardPerRound: 1,
		RecordToLedger: true,
	}, engine, []int{0, 1}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return coord
}

// bitsEqual compares float slices bit for bit (NaN patterns included).
func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// diffReports returns a description of the first bit-level difference
// between two round reports, or "" if they match exactly.
func diffReports(p, l *RoundReport) string {
	switch {
	case p.Round != l.Round:
		return "Round"
	case p.Committed != l.Committed:
		return "Committed"
	case !bitsEqual(p.Reputations, l.Reputations):
		return "Reputations"
	case !bitsEqual(p.Shares, l.Shares):
		return "Shares"
	case !bitsEqual(p.Rewards, l.Rewards):
		return "Rewards"
	case !bitsEqual(p.Detection.Scores, l.Detection.Scores):
		return "Detection.Scores"
	case !bitsEqual(p.Contributions.Dist, l.Contributions.Dist):
		return "Contributions.Dist"
	case !bitsEqual(p.Contributions.C, l.Contributions.C):
		return "Contributions.C"
	case math.Float64bits(p.Contributions.BH) != math.Float64bits(l.Contributions.BH):
		return "Contributions.BH"
	case !bitsEqual(p.Global, l.Global):
		return "Global"
	case !bitsEqual(p.Detection.Benchmark, l.Detection.Benchmark):
		return "Detection.Benchmark"
	}
	for i := range p.Detection.Accept {
		if p.Detection.Accept[i] != l.Detection.Accept[i] || p.Detection.Uncertain[i] != l.Detection.Uncertain[i] {
			return "Detection verdicts"
		}
	}
	for i := range p.Servers {
		if p.Servers[i] != l.Servers[i] {
			return "Servers"
		}
	}
	for i := range p.Statuses {
		if p.Statuses[i] != l.Statuses[i] || p.Retries[i] != l.Retries[i] {
			return "Statuses"
		}
	}
	return ""
}

// TestPipelineMatchesLegacy is the refactor's differential proof: across
// seeds, fault schedules and a quorum-degraded round, the staged pipeline
// must reproduce the frozen legacy monolith bit for bit — reports,
// reputations, rewards, model parameters and the ledger's binary export.
func TestPipelineMatchesLegacy(t *testing.T) {
	const rounds = 5 // round 2 is blacked out and degrades below quorum
	for _, seed := range []uint64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			pipe := buildDiffCoordinator(t, seed)
			legacy := buildDiffCoordinator(t, seed)
			degraded := false
			for r := 0; r < rounds; r++ {
				pr, err := pipe.RunRoundContext(context.Background(), r)
				if err != nil {
					t.Fatalf("pipeline round %d: %v", r, err)
				}
				lr, err := runRoundLegacy(legacy, context.Background(), r)
				if err != nil {
					t.Fatalf("legacy round %d: %v", r, err)
				}
				if d := diffReports(pr, lr); d != "" {
					t.Fatalf("round %d: pipeline and legacy reports differ in %s", r, d)
				}
				if !pr.Committed {
					degraded = true
				}
			}
			if !degraded {
				t.Fatal("fault schedule produced no quorum-degraded round; the differential test lost coverage")
			}
			if !bitsEqual(pipe.Engine.Params(), legacy.Engine.Params()) {
				t.Fatal("global model parameters diverged")
			}
			if !bitsEqual(pipe.Rep.Reputations(), legacy.Rep.Reputations()) {
				t.Fatal("tracker reputations diverged")
			}
			if !bitsEqual(pipe.CumulativeRewards(), legacy.CumulativeRewards()) {
				t.Fatal("cumulative rewards diverged")
			}
			var pb, lb bytes.Buffer
			if err := pipe.Ledger.WriteBinary(&pb); err != nil {
				t.Fatal(err)
			}
			if err := legacy.Ledger.WriteBinary(&lb); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(pb.Bytes(), lb.Bytes()) {
				t.Fatal("ledger binary exports diverged")
			}
		})
	}
}

// TestPipelineStageNames pins the stage decomposition the documentation
// and metrics labels promise.
func TestPipelineStageNames(t *testing.T) {
	coord, _ := buildTestCoordinator(t, 3, 0, false)
	want := []string{"Collect", "Detect", "Reputation", "Aggregate", "Contribution", "Reward", "Record", "Reselect"}
	got := coord.Pipeline().StageNames()
	if len(got) != len(want) {
		t.Fatalf("stage count %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("stage %d = %s, want %s", i, got[i], want[i])
		}
	}
}

// TestStagesBeforeCommitAreSideEffectFree runs the pipeline stage by
// stage and checks no durable coordinator state moves before Record.
func TestStagesBeforeCommitAreSideEffectFree(t *testing.T) {
	coord, engine := buildTestCoordinator(t, 3, 1, true)
	repsBefore := coord.Rep.Reputations()
	paramsBefore := engine.Params()
	rc := &RoundContext{Ctx: context.Background(), Round: 0}
	for _, stage := range []func(*Coordinator, *RoundContext) error{
		stageCollect, stageDetect, stageReputation, stageAggregate, stageContribution, stageReward,
	} {
		if err := stage(coord, rc); err != nil {
			t.Fatal(err)
		}
	}
	if !bitsEqual(coord.Rep.Reputations(), repsBefore) {
		t.Fatal("a pre-commit stage mutated the live reputation tracker")
	}
	if !bitsEqual(engine.Params(), paramsBefore) {
		t.Fatal("a pre-commit stage moved the global model")
	}
	if coord.Ledger.Len() != 0 {
		t.Fatal("a pre-commit stage wrote ledger records")
	}
	if got := coord.CumulativeRewards(); !bitsEqual(got, make([]float64, len(got))) {
		t.Fatal("a pre-commit stage paid rewards")
	}
	if coord.NextRound() != 0 {
		t.Fatal("a pre-commit stage advanced the round counter")
	}
	// The staged values must nevertheless be filled in.
	if rc.stagedRep == nil || rc.Detection == nil || rc.Contributions == nil || rc.Shares == nil {
		t.Fatal("stages did not populate the round context")
	}
	if bitsEqual(rc.Reputations, repsBefore) {
		t.Fatal("staged reputations did not move despite decided events")
	}
	// Committing makes the staged update authoritative.
	if err := stageRecord(coord, rc); err != nil {
		t.Fatal(err)
	}
	if err := stageReselect(coord, rc); err != nil {
		t.Fatal(err)
	}
	if !bitsEqual(coord.Rep.Reputations(), rc.Reputations) {
		t.Fatal("Record did not commit the staged reputations")
	}
	if coord.Ledger.Len() == 0 {
		t.Fatal("Record did not write ledger records")
	}
	if coord.NextRound() != 1 {
		t.Fatal("Reselect did not advance the round counter")
	}
}

// failingMechanism errors from the Reward stage, after detection,
// reputation staging, aggregation and contribution have all run.
type failingMechanism struct{}

func (failingMechanism) Name() string { return "failing" }
func (failingMechanism) Shares(rc *RoundContext) ([]float64, error) {
	return nil, errors.New("mechanism exploded")
}

// TestStageErrorAbortsRoundWithoutMutation: an error in any pre-commit
// stage must leave reputations, the model, cumulative rewards, the round
// counter and the ledger exactly as the round found them.
func TestStageErrorAbortsRoundWithoutMutation(t *testing.T) {
	coord, engine := buildTestCoordinator(t, 3, 1, true)
	// One clean round first, so the state being protected is non-trivial.
	runRound(t, coord, 0)
	repsBefore := coord.Rep.Reputations()
	paramsBefore := engine.Params()
	cumBefore := coord.CumulativeRewards()
	ledgerBefore := coord.Ledger.Len()
	serversBefore := coord.Servers()

	coord.mech = failingMechanism{}
	_, err := coord.RunRoundContext(context.Background(), 1)
	if err == nil {
		t.Fatal("expected the failing mechanism to abort the round")
	}
	if !bitsEqual(coord.Rep.Reputations(), repsBefore) {
		t.Fatal("aborted round mutated reputations")
	}
	if !bitsEqual(engine.Params(), paramsBefore) {
		t.Fatal("aborted round moved the global model")
	}
	if !bitsEqual(coord.CumulativeRewards(), cumBefore) {
		t.Fatal("aborted round paid rewards")
	}
	if coord.Ledger.Len() != ledgerBefore {
		t.Fatal("aborted round wrote ledger records")
	}
	if coord.NextRound() != 1 {
		t.Fatal("aborted round advanced the round counter")
	}
	for i, s := range coord.Servers() {
		if s != serversBefore[i] {
			t.Fatal("aborted round re-elected servers")
		}
	}
	// The same coordinator recovers: restoring a working mechanism lets
	// the aborted round run to completion.
	coord.mech = FIFLIncentive{}
	runRound(t, coord, 1)
	if coord.NextRound() != 2 {
		t.Fatal("recovered round did not advance the counter")
	}
}

// TestRecordFailureLeavesCoordinatorUntouched forces the commit stage
// itself to fail — an executing server has lost its signing key, so the
// ledger refuses the round's batch — and requires the coordinator to stay
// at the round it was on: every snapshot field the round would commit is
// unchanged, and running the same round again succeeds. WorkerDraws and
// EngineDraws are not compared: Collect trains the workers and draws the
// fault plan before any stage can fail.
func TestRecordFailureLeavesCoordinatorUntouched(t *testing.T) {
	coord := buildDiffCoordinator(t, 3) // seed 3 pays non-zero rewards in round 1
	runRound(t, coord, 0)
	before, err := coord.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	server := coord.Servers()[0]
	signer := coord.signers[server]
	coord.signers[server] = nil
	_, err = coord.RunRoundContext(context.Background(), 1)
	if err == nil || !strings.Contains(err.Error(), "stage Record") {
		t.Fatalf("round with a keyless server returned %v, want a Record stage error", err)
	}
	after, err := coord.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []struct {
		name  string
		equal bool
	}{
		{"Params", bitsEqual(before.Params, after.Params)},
		{"Reputations", bitsEqual(before.Reputations, after.Reputations)},
		{"PosCounts", slices.Equal(before.PosCounts, after.PosCounts)},
		{"NegCounts", slices.Equal(before.NegCounts, after.NegCounts)},
		{"UncCounts", slices.Equal(before.UncCounts, after.UncCounts)},
		{"Cumulative", bitsEqual(before.Cumulative, after.Cumulative)},
		{"BHInitialized", before.BHInitialized == after.BHInitialized},
		{"BHValue", math.Float64bits(before.BHValue) == math.Float64bits(after.BHValue)},
		{"NextRound", before.NextRound == after.NextRound},
		{"Servers", slices.Equal(before.Servers, after.Servers)},
		{"Ledger", bytes.Equal(before.Ledger, after.Ledger)},
	} {
		if !f.equal {
			t.Errorf("failed Record moved snapshot field %s", f.name)
		}
	}

	coord.signers[server] = signer
	runRound(t, coord, 1)
	if coord.NextRound() != 2 {
		t.Fatalf("retried round left NextRound at %d, want 2", coord.NextRound())
	}
	if want := 2 * 5 * len(coord.Engine.Workers); coord.Ledger.Len() != want {
		t.Fatalf("ledger holds %d blocks after the retry, want %d", coord.Ledger.Len(), want)
	}
}

// TestStageTraceHookSeesEveryStage verifies WithStageTrace observes each
// stage of a successful round in order, and the failing stage of an
// aborted one.
func TestStageTraceHookSeesEveryStage(t *testing.T) {
	var seen []string
	var failed []string
	coordA, _ := buildTestCoordinator(t, 3, 0, false)
	coordA.trace = func(st StageTrace) {
		seen = append(seen, st.Stage)
		if st.Err != nil {
			failed = append(failed, st.Stage)
		}
	}
	coordA.pipeline = newRoundPipeline(metrics.New(), coordA.trace)
	runRound(t, coordA, 0)
	want := coordA.Pipeline().StageNames()
	if len(seen) != len(want) {
		t.Fatalf("trace saw %d stages, want %d", len(seen), len(want))
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("trace stage %d = %s, want %s", i, seen[i], want[i])
		}
	}
	if len(failed) != 0 {
		t.Fatalf("clean round reported failing stages %v", failed)
	}
	coordA.mech = failingMechanism{}
	seen = nil
	if _, err := coordA.RunRoundContext(context.Background(), 1); err == nil {
		t.Fatal("expected abort")
	}
	if len(seen) == 0 || seen[len(seen)-1] != "Reward" {
		t.Fatalf("aborted round trace %v should end at the Reward stage", seen)
	}
	if len(failed) != 1 || failed[0] != "Reward" {
		t.Fatalf("failing stages %v, want [Reward]", failed)
	}
}

// TestPipelineStageLatencyMetrics: every stage of a completed round lands
// one observation in the per-stage latency histogram.
func TestPipelineStageLatencyMetrics(t *testing.T) {
	reg := metrics.New()
	coord, _ := buildTestCoordinator(t, 3, 0, false)
	coord.pipeline = newRoundPipeline(reg, nil)
	runRound(t, coord, 0)
	for _, stage := range coord.Pipeline().StageNames() {
		h := reg.Histogram("fifl_pipeline_stage_seconds", metrics.DefBuckets, "stage", stage)
		if h.Count() != 1 {
			t.Fatalf("stage %s recorded %d latency observations, want 1", stage, h.Count())
		}
	}
}

// fixedWorker returns a precomputed gradient without allocating, so
// allocation tests measure the round machinery, not local training.
type fixedWorker struct {
	id   int
	grad gradvec.Vector
}

func (w *fixedWorker) ID() int                                  { return w.id }
func (w *fixedWorker) NumSamples() int                          { return 10 + w.id }
func (w *fixedWorker) LocalTrain(int, []float64) gradvec.Vector { return w.grad }

// buildAllocCoordinator assembles a 256-worker federation of fixed
// workers for allocation measurement.
func buildAllocCoordinator(t *testing.T, n int) *Coordinator {
	t.Helper()
	src := rng.New(11)
	build := nn.NewMLP(11, 24, []int{8}, 4)
	d := len(build().ParamsVector())
	workers := make([]fl.Worker, n)
	for i := range workers {
		g := make(gradvec.Vector, d)
		for j := range g {
			g[j] = math.Sin(float64(i*d + j))
		}
		workers[i] = &fixedWorker{id: i, grad: g}
	}
	engine, err := fl.NewEngine(fl.Config{Servers: 2, GlobalLR: 0.05}, build, workers, src,
		fl.WithMetrics(metrics.New()))
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
	return coord
}

// TestPipelineAllocsFewerThanLegacy pins the arena refactor's allocation
// win at 256 workers: the pipeline round (flat-arena slicing, SliceBounds
// benchmark views) must allocate strictly less than the frozen legacy
// round (per-worker slice tables), and the gap must cover the n
// slice-table rows the legacy path materializes.
func TestPipelineAllocsFewerThanLegacy(t *testing.T) {
	const n = 256
	pipe := buildAllocCoordinator(t, n)
	legacy := buildAllocCoordinator(t, n)
	runPipe := func(r int) {
		if _, err := pipe.RunRoundContext(context.Background(), r); err != nil {
			t.Fatal(err)
		}
	}
	runLegacy := func(r int) {
		if _, err := runRoundLegacy(legacy, context.Background(), r); err != nil {
			t.Fatal(err)
		}
	}
	// Warm both arenas so steady-state rounds are measured.
	runPipe(0)
	runLegacy(0)
	r := 1
	pipeAllocs := testing.AllocsPerRun(3, func() { runPipe(r); r++ })
	r = 1
	legacyAllocs := testing.AllocsPerRun(3, func() { runLegacy(r); r++ })
	if pipeAllocs >= legacyAllocs {
		t.Fatalf("pipeline round allocates %.0f objects, legacy %.0f — the arena refactor lost its win", pipeAllocs, legacyAllocs)
	}
	if legacyAllocs-pipeAllocs < n/2 {
		t.Fatalf("allocation gap %.0f is too small to cover the legacy slice tables (n=%d)", legacyAllocs-pipeAllocs, n)
	}
}
