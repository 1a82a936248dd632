package shard

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net/http/httptest"
	"testing"
	"time"

	"fifl/internal/core"
	"fifl/internal/dataset"
	"fifl/internal/faults"
	"fifl/internal/fl"
	"fifl/internal/gradvec"
	"fifl/internal/nn"
	"fifl/internal/rng"
	"fifl/internal/transport/codec"
)

func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// --- hub unit tests ---------------------------------------------------------

func hello(shard, first int, samples ...int) *codec.ShardSubmit {
	return &codec.ShardSubmit{
		Shard: shard,
		Phase: codec.ShardPhaseHello,
		Hello: &codec.ShardHello{First: first, Samples: samples},
	}
}

func TestShardHubHelloValidation(t *testing.T) {
	hub, err := NewShardHub(4, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := hub.Submit(hello(0, 0, 10, 20)); err != nil {
		t.Fatalf("first hello: %v", err)
	}
	cases := []struct {
		name string
		sub  *codec.ShardSubmit
	}{
		{"duplicate shard", hello(0, 2, 30, 40)},
		{"empty cohort", hello(1, 2)},
		{"out of range", hello(1, 3, 30, 40)},
		{"negative first", hello(1, -1, 30)},
		{"overlap", hello(1, 1, 30, 40)},
		{"bad shard index", hello(7, 2, 30, 40)},
		{"evidence before hello", &codec.ShardSubmit{
			Shard: 1, Round: 0, Phase: codec.ShardPhaseCollect,
			Collect: &codec.ShardCollectEvidence{
				Statuses: []faults.UploadStatus{faults.StatusOK, faults.StatusOK},
				Retries:  []int{0, 0},
			},
		}},
	}
	for _, tc := range cases {
		if err := hub.Submit(tc.sub); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if err := hub.Submit(hello(1, 2, 30, 40)); err != nil {
		t.Fatalf("valid second hello: %v", err)
	}
	if err := hub.WaitReady(testCtx(t)); err != nil {
		t.Fatalf("WaitReady: %v", err)
	}
	want := []int{10, 20, 30, 40}
	got := hub.RegisteredSamples()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("RegisteredSamples = %v, want %v", got, want)
		}
	}
}

func TestShardHubWaitReadyRejectsOutOfOrderCohorts(t *testing.T) {
	// Both cohorts are individually valid and tile [0, 4), but shard 0
	// owns the upper half: the fold order would not be ascending worker
	// order, so the protocol must refuse.
	hub, err := NewShardHub(4, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := hub.Submit(hello(0, 2, 30, 40)); err != nil {
		t.Fatal(err)
	}
	if err := hub.Submit(hello(1, 0, 10, 20)); err != nil {
		t.Fatal(err)
	}
	if err := hub.WaitReady(testCtx(t)); err == nil {
		t.Fatal("WaitReady accepted out-of-order cohorts")
	}
}

func TestShardHubDirectiveStream(t *testing.T) {
	hub, err := NewShardHub(2, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		seq, err := hub.Publish(codec.ShardDirective{Round: i, Phase: codec.ShardPhaseCollect})
		if err != nil {
			t.Fatal(err)
		}
		if seq != i+1 {
			t.Fatalf("Publish assigned seq %d, want %d", seq, i+1)
		}
	}
	ctx := testCtx(t)
	for after := 0; after < 3; after++ {
		d, err := hub.NextDirective(ctx, after)
		if err != nil {
			t.Fatal(err)
		}
		if d.Seq != after+1 || d.Round != after {
			t.Fatalf("NextDirective(%d) = seq %d round %d", after, d.Seq, d.Round)
		}
	}
	// Polling past the head blocks until cancelled.
	short, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
	defer cancel()
	if _, err := hub.NextDirective(short, 3); err == nil {
		t.Fatal("NextDirective past the head returned without a new directive")
	}
	// Published directives stay readable after Close; publishing does not.
	hub.Close()
	if _, err := hub.NextDirective(ctx, 0); err != nil {
		t.Fatalf("NextDirective after Close: %v", err)
	}
	if _, err := hub.Publish(codec.ShardDirective{Phase: codec.ShardPhaseDone}); err == nil {
		t.Fatal("Publish after Close succeeded")
	}
	if err := hub.Submit(hello(0, 0, 1, 1)); err == nil {
		t.Fatal("Submit after Close succeeded")
	}
}

func TestShardHubAwaitConsumesWave(t *testing.T) {
	hub, err := NewShardHub(2, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := hub.Submit(hello(0, 0, 5, 5)); err != nil {
		t.Fatal(err)
	}
	ev := &codec.ShardSubmit{
		Shard: 0, Round: 3, Phase: codec.ShardPhaseCollect,
		Collect: &codec.ShardCollectEvidence{
			Statuses: []faults.UploadStatus{faults.StatusOK, faults.StatusCrashed},
			Retries:  []int{0, 0},
		},
	}
	if err := hub.Submit(ev); err != nil {
		t.Fatal(err)
	}
	if err := hub.Submit(ev); err == nil {
		t.Fatal("duplicate wave submission accepted")
	}
	wave, err := hub.Await(testCtx(t), 3, codec.ShardPhaseCollect)
	if err != nil {
		t.Fatal(err)
	}
	if len(wave) != 1 || wave[0] == nil || wave[0].Collect == nil {
		t.Fatalf("Await returned %v", wave)
	}
	// The wave was consumed: a second Await must block.
	short, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := hub.Await(short, 3, codec.ShardPhaseCollect); err == nil {
		t.Fatal("second Await returned a consumed wave")
	}
}

func TestShardHubRejectsWrongShapedEvidence(t *testing.T) {
	hub, err := NewShardHub(3, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := hub.Submit(hello(0, 0, 1, 1, 1)); err != nil {
		t.Fatal(err)
	}
	err = hub.Submit(&codec.ShardSubmit{
		Shard: 0, Round: 0, Phase: codec.ShardPhaseDetect,
		Detect: &codec.ShardDetectEvidence{Scores: []float64{1}, Accept: []bool{true}},
	})
	if err == nil {
		t.Fatal("detect evidence covering 1 of 3 workers accepted")
	}
}

// --- bridge degraded-round behavior -----------------------------------------

func TestBridgeDegradedRoundSkipsDetectAndDist(t *testing.T) {
	// One 2-worker shard whose entire cohort crashes; quorum 1 is unmet,
	// so the round is degraded: the root must aggregate to nil and publish
	// no detect or dist directive.
	ctx := testCtx(t)
	hub, err := NewShardHub(2, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	build := nn.NewMLP(11, 4, nil, 2)
	root, err := fl.NewEngine(fl.Config{Servers: 1, GlobalLR: 0.1}, build, VirtualWorkers([]int{5, 5}), rng.New(1), fl.WithQuorum(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBridge(hub, root, 1)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := core.NewCoordinator(diffCoordinatorConfig(), root, []int{0}, core.WithCollector(b))
	if err != nil {
		t.Fatal(err)
	}
	b.BindServers(coord.Servers)
	go func() {
		link := DirectLink{Hub: hub}
		_ = link.Submit(ctx, codec.ShardSubmit{
			Shard: 0, Phase: codec.ShardPhaseHello,
			Hello: &codec.ShardHello{First: 0, Samples: []int{5, 5}},
		})
		if _, err := link.NextDirective(ctx, 0); err != nil {
			return
		}
		_ = link.Submit(ctx, codec.ShardSubmit{
			Shard: 0, Round: 0, Phase: codec.ShardPhaseCollect,
			Collect: &codec.ShardCollectEvidence{
				Statuses: []faults.UploadStatus{faults.StatusCrashed, faults.StatusCrashed},
				Retries:  []int{0, 0},
			},
		})
	}()
	rep, err := coord.RunRoundContext(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	arrived := 0
	for _, st := range rep.Statuses {
		if st.Arrived() {
			arrived++
		}
	}
	if rep.Committed || arrived != 0 {
		t.Fatalf("round committed with %d arrivals under quorum 1", arrived)
	}
	if g := rep.Global; g != nil {
		t.Fatalf("degraded round aggregated to %v, want nil", g)
	}
	dists := rep.Contributions.Dist
	for _, d := range dists {
		if !math.IsNaN(d) {
			t.Fatalf("degraded Distances = %v, want all NaN", dists)
		}
	}
	// Only the collect directive went out.
	short, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
	defer cancel()
	if d, err := hub.NextDirective(short, 1); err == nil {
		t.Fatalf("degraded round published a %s directive", d.Phase)
	}
}

// --- differential test: sharded ≡ flat for honest runs ----------------------

// blockedFlatSource is the flat federation arm of the differential test: a
// core.ShardRoundSource over a single flat engine whose kernels are the
// stock flat ones — engine collection, core.ScoreCohort and
// core.CohortDistances over the whole round — except that aggregation uses
// the blocked association (aggregateRoundBlocked) the shard protocol is
// defined by, so any divergence between the two arms is a protocol bug,
// not float associativity.
type blockedFlatSource struct {
	engine  *fl.Engine
	cohorts []int
}

func (s *blockedFlatSource) CollectRound(ctx context.Context, t int) (*fl.RoundResult, error) {
	return s.engine.CollectGradientsContext(ctx, t)
}

func (s *blockedFlatSource) Score(_ context.Context, rr *fl.RoundResult, bench gradvec.Vector, owners []int, threshold float64, scores []float64, accept []bool) error {
	core.ScoreCohort(rr, 0, bench, owners, threshold, scores, accept)
	return nil
}

func (s *blockedFlatSource) AggregateRound(_ context.Context, rr *fl.RoundResult, accept []bool) (gradvec.Vector, error) {
	return aggregateRoundBlocked(s.engine, rr, accept, s.cohorts)
}

func (s *blockedFlatSource) Distances(_ context.Context, rr *fl.RoundResult, global gradvec.Vector, dists []float64) error {
	core.CohortDistances(global, rr.Grads, dists)
	return nil
}

// aggregateRoundBlocked is the flat-side reference of the sharded
// bit-identity tests, kept verbatim from the engine method it once was. It
// computes the same filtered aggregate as fl.Engine.AggregateRound but in the blocked association a 1-level sharded
// federation uses: the workers are partitioned into contiguous cohorts of
// the given sizes (which must sum to the federation size), each cohort
// folds its accepted gradients into an UNNORMALIZED partial
// P_s = Σ w_i·n_i·G_i with mass T_s = Σ w_i·n_i, and the partials are
// combined as G̃ = Σ_s (1/T)·P_s with T = Σ T_s, cohort order, skipping
// cohorts without a surviving gradient. Floating-point addition is not
// associative, so this result differs from AggregateRound's flat
// left-to-right fold in the last bits — it is exactly the arithmetic the
// shard protocol performs, and the differential test holds a sharded run
// bit-equal to a flat engine aggregating through this method. With one
// cohort spanning everything it degenerates to (1/T)·(Σ w_i·n_i·G_i),
// still not the flat fold. Degenerate and error cases match AggregateRound.
func aggregateRoundBlocked(e *fl.Engine, rr *fl.RoundResult, accept []bool, cohorts []int) (gradvec.Vector, error) {
	if rr == nil {
		return nil, errors.New("fl: AggregateRoundBlocked on a nil round")
	}
	if accept != nil && len(accept) != len(rr.Grads) {
		return nil, fmt.Errorf("fl: AggregateRoundBlocked accept length %d, want %d", len(accept), len(rr.Grads))
	}
	if rr.Weights != nil && len(rr.Weights) != len(rr.Grads) {
		return nil, fmt.Errorf("fl: AggregateRoundBlocked weights length %d, want %d", len(rr.Weights), len(rr.Grads))
	}
	span := 0
	for s, size := range cohorts {
		if size <= 0 {
			return nil, fmt.Errorf("fl: AggregateRoundBlocked cohort %d has size %d", s, size)
		}
		span += size
	}
	if span != len(rr.Grads) {
		return nil, fmt.Errorf("fl: AggregateRoundBlocked cohorts span %d workers, round has %d", span, len(rr.Grads))
	}
	if rr.Quorum > 0 && !rr.Committed {
		return nil, nil
	}
	weight := func(i int) float64 {
		if rr.Weights == nil {
			return 1
		}
		w := rr.Weights[i]
		if math.IsNaN(w) || math.IsInf(w, 0) || w < 0 {
			return 0
		}
		return w
	}
	// Edge pass: each cohort folds its own accepted gradients and sums its
	// own mass locally — T = Σ_s T_s associates per cohort, not as one
	// flat running total, because that is the only sum a real shard can
	// compute without seeing its siblings.
	partials := make([]gradvec.Vector, len(cohorts))
	coefs := make([]float64, len(rr.Grads))
	total := 0.0
	lo := 0
	for s, size := range cohorts {
		survivor := false
		mass := 0.0
		for i := lo; i < lo+size; i++ {
			g := rr.Grads[i]
			if g == nil || (accept != nil && !accept[i]) {
				continue
			}
			w := weight(i)
			coefs[i] = w * float64(rr.Samples[i])
			mass += coefs[i]
			survivor = survivor || w > 0
		}
		if survivor {
			partials[s] = gradvec.Zeros(len(e.ParamsRef()))
			partials[s].AddWeighted(rr.Grads[lo:lo+size], coefs[lo:lo+size])
		}
		total += mass
		lo += size
	}
	if total == 0 {
		return nil, nil
	}
	// Root pass: normalize the partials. Empty cohorts are skipped rather
	// than folded as zero vectors — adding 0.0 would flip a -0.0 element.
	norm := make([]float64, len(partials))
	for s, p := range partials {
		if p != nil {
			norm[s] = 1 / total
		}
	}
	out := gradvec.Zeros(len(e.ParamsRef()))
	out.AddWeighted(partials, norm)
	return out, nil
}

// runOutcome captures everything the differential test compares bitwise.
type runOutcome struct {
	params  []float64
	reps    []float64
	rewards []float64
	ledger  []byte
	reports []*core.RoundReport
}

const (
	diffWorkers = 6
	diffServers = 2
	diffRounds  = 5
	diffSeed    = 4242
)

// diffFaults plants the same deterministic faults in both arms of a
// differential run: rewrite tampers with a worker's every upload, crash
// takes a worker down for one round (worker → round), and quorum is the
// commit threshold, fl.WithQuorum on the flat engine and NewBridge's on
// the sharded root.
type diffFaults struct {
	rewrite map[int]func(gradvec.Vector) gradvec.Vector
	crash   map[int]int
	quorum  int
}

// buildDiffWorkers constructs one arm's federation. Each arm rebuilds its
// own workers from the same seed — worker RNG streams are split by worker
// ID, and crashes are self-inflicted (faults.Faulty), so both arms train
// and fail identically no matter which engine hosts the worker.
func buildDiffWorkers(src *rng.Source, f diffFaults) ([]fl.Worker, nn.Builder) {
	build := nn.NewMLP(diffSeed, 28*28, []int{8}, 10)
	data := dataset.SynthDigits(src.Split("train"), diffWorkers*120)
	parts := data.PartitionIID(src.Split("parts"), diffWorkers)
	lc := fl.LocalConfig{K: 1, BatchSize: 64, LR: 0.05}
	workers := make([]fl.Worker, diffWorkers)
	for i := range workers {
		workers[i] = fl.NewHonestWorker(i, parts[i], build, lc, src)
		if fn := f.rewrite[i]; fn != nil {
			workers[i] = tamperedWorker{Worker: workers[i], rewrite: fn}
		}
		if r, ok := f.crash[i]; ok {
			workers[i] = crashedWorker{Worker: workers[i], round: r}
		}
	}
	return workers, build
}

// crashedWorker is down for one round: its upload never arrives.
type crashedWorker struct {
	fl.Worker
	round int
}

func (w crashedWorker) FaultAt(round int) faults.Fault {
	if round == w.round {
		return faults.FaultCrash
	}
	return faults.FaultNone
}

// tamperedWorker rewrites an honest worker's upload before it leaves.
type tamperedWorker struct {
	fl.Worker
	rewrite func(gradvec.Vector) gradvec.Vector
}

func (w tamperedWorker) LocalTrain(round int, global []float64) gradvec.Vector {
	return w.rewrite(w.Worker.LocalTrain(round, global))
}

func diffCoordinatorConfig() core.CoordinatorConfig {
	return core.CoordinatorConfig{
		Detection:      core.Detector{Threshold: 0.02},
		Reputation:     core.DefaultReputationConfig(),
		Contribution:   core.ContributionConfig{BaselineWorker: -1, Clamp: 10, SmoothBH: 0.2},
		RewardPerRound: 1,
		RecordToLedger: true,
	}
}

func captureOutcome(t *testing.T, coord *core.Coordinator, engine *fl.Engine, reports []*core.RoundReport) runOutcome {
	t.Helper()
	var buf bytes.Buffer
	if err := coord.Ledger.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	return runOutcome{
		params:  engine.Params(),
		reps:    coord.Rep.Reputations(),
		rewards: coord.CumulativeRewards(),
		ledger:  buf.Bytes(),
		reports: reports,
	}
}

// runFlatBlocked runs the flat arm over the given cohort partition.
func runFlatBlocked(t *testing.T, cohorts []int, f diffFaults) runOutcome {
	t.Helper()
	ctx := testCtx(t)
	src := rng.New(diffSeed)
	workers, build := buildDiffWorkers(src, f)
	engine, err := fl.NewEngine(fl.Config{Servers: diffServers, GlobalLR: 0.05}, build, workers, src, fl.WithQuorum(f.quorum))
	if err != nil {
		t.Fatal(err)
	}
	coord, err := core.NewCoordinator(diffCoordinatorConfig(), engine, []int{0, 1},
		core.WithCollector(&blockedFlatSource{engine: engine, cohorts: cohorts}))
	if err != nil {
		t.Fatal(err)
	}
	reports := make([]*core.RoundReport, diffRounds)
	for r := 0; r < diffRounds; r++ {
		if reports[r], err = coord.RunRoundContext(ctx, r); err != nil {
			t.Fatalf("flat round %d: %v", r, err)
		}
	}
	return captureOutcome(t, coord, engine, reports)
}

// cohortSizes splits n workers into s near-equal contiguous cohorts.
func cohortSizes(n, s int) []int {
	out := make([]int, s)
	base, extra := n/s, n%s
	for i := range out {
		out[i] = base
		if i < extra {
			out[i]++
		}
	}
	return out
}

// runSharded runs the sharded arm for the given number of rounds: cohort
// engines under edge aggregators, a virtual-worker root engine behind the
// bridge, every frame through the codec via the link that linkFor returns.
func runSharded(t *testing.T, rounds int, cohorts []int, f diffFaults, linkFor func(*core.Coordinator, *ShardHub) RootLink) runOutcome {
	t.Helper()
	return runShardedVia(t, rounds, cohorts, f, func(coord *core.Coordinator, hub *ShardHub) (RootLink, roundRunner) {
		return linkFor(coord, hub), coord.RunRoundContext
	})
}

// roundRunner runs one root round: the coordinator itself, or the root
// server that retains its report.
type roundRunner func(ctx context.Context, t int) (*core.RoundReport, error)

// runShardedVia is runSharded with the root's rounds run by the runner
// setup returns beside the link.
func runShardedVia(t *testing.T, rounds int, cohorts []int, f diffFaults, setup func(*core.Coordinator, *ShardHub) (RootLink, roundRunner)) runOutcome {
	t.Helper()
	ctx := testCtx(t)
	src := rng.New(diffSeed)
	workers, build := buildDiffWorkers(src, f)
	samples := make([]int, len(workers))
	for i, w := range workers {
		samples[i] = w.NumSamples()
	}

	hub, err := NewShardHub(diffWorkers, len(cohorts), nil)
	if err != nil {
		t.Fatal(err)
	}
	root, err := fl.NewEngine(fl.Config{Servers: diffServers, GlobalLR: 0.05}, build, VirtualWorkers(samples), src.Split("root"), fl.WithQuorum(f.quorum))
	if err != nil {
		t.Fatal(err)
	}
	bridge, err := NewBridge(hub, root, f.quorum)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := core.NewCoordinator(diffCoordinatorConfig(), root, []int{0, 1}, core.WithCollector(bridge))
	if err != nil {
		t.Fatal(err)
	}
	bridge.BindServers(coord.Servers)

	link, run := setup(coord, hub)
	errc := make(chan error, len(cohorts))
	lo := 0
	for s, size := range cohorts {
		cohort, err := fl.NewEngine(fl.Config{Servers: 1, GlobalLR: 0.05}, build, workers[lo:lo+size], src.SplitN("shard", s))
		if err != nil {
			t.Fatal(err)
		}
		agg, err := NewAggregator(s, lo, cohort, link)
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
		lo += size
	}
	if err := hub.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}

	reports := make([]*core.RoundReport, rounds)
	for r := 0; r < rounds; r++ {
		if reports[r], err = run(ctx, r); err != nil {
			t.Fatalf("sharded round %d: %v", r, err)
		}
	}
	if err := bridge.Finish(); err != nil {
		t.Fatal(err)
	}
	for range cohorts {
		if err := <-errc; err != nil {
			t.Fatalf("aggregator: %v", err)
		}
	}
	hub.Close()
	return captureOutcome(t, coord, root, reports)
}

// bitsEqual compares floats bitwise, treating every NaN payload as equal
// (the codec canonicalizes NaN on the wire).
func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.IsNaN(a[i]) && math.IsNaN(b[i]) {
			continue
		}
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func requireSameOutcome(t *testing.T, label string, flat, sharded runOutcome) {
	t.Helper()
	if !bitsEqual(flat.params, sharded.params) {
		t.Errorf("%s: final model parameters diverge", label)
	}
	if !bitsEqual(flat.reps, sharded.reps) {
		t.Errorf("%s: reputations diverge: flat %v, sharded %v", label, flat.reps, sharded.reps)
	}
	if !bitsEqual(flat.rewards, sharded.rewards) {
		t.Errorf("%s: cumulative rewards diverge: flat %v, sharded %v", label, flat.rewards, sharded.rewards)
	}
	if !bytes.Equal(flat.ledger, sharded.ledger) {
		t.Errorf("%s: ledger bytes diverge (%d vs %d bytes)", label, len(flat.ledger), len(sharded.ledger))
	}
	for r := range flat.reports {
		fr, sr := flat.reports[r], sharded.reports[r]
		if !bitsEqual(fr.Detection.Scores, sr.Detection.Scores) {
			t.Errorf("%s round %d: detection scores diverge:\nflat    %v\nsharded %v", label, r, fr.Detection.Scores, sr.Detection.Scores)
		}
		for i := range fr.Detection.Accept {
			if fr.Detection.Accept[i] != sr.Detection.Accept[i] {
				t.Errorf("%s round %d: accept[%d] diverges", label, r, i)
			}
		}
		if !bitsEqual(fr.Contributions.Dist, sr.Contributions.Dist) {
			t.Errorf("%s round %d: Eq. 13 distances diverge", label, r)
		}
		if !bitsEqual(fr.Shares, sr.Shares) {
			t.Errorf("%s round %d: reward shares diverge", label, r)
		}
		if !bitsEqual(fr.Global, sr.Global) {
			t.Errorf("%s round %d: global gradient diverges", label, r)
		}
		if len(fr.Servers) != len(sr.Servers) {
			t.Fatalf("%s round %d: server clusters diverge", label, r)
		}
		for i := range fr.Servers {
			if fr.Servers[i] != sr.Servers[i] {
				t.Errorf("%s round %d: server clusters diverge: flat %v, sharded %v", label, r, fr.Servers, sr.Servers)
			}
		}
	}
}

// TestShardedMatchesFlatFederation is the tentpole differential test: a
// sharded run — every frame round-tripped through the codec — is
// bit-identical to a flat federation aggregating in the same blocked
// association, across shard counts including the degenerate S = 1. The
// quorum row loses three of six uploads in round 1, so that round is
// degraded on both arms, and worker 1's upload in round 3, which still
// commits.
func TestShardedMatchesFlatFederation(t *testing.T) {
	for _, tc := range []struct {
		name   string
		shards int
		faults diffFaults
	}{
		{"shards=1", 1, diffFaults{}},
		{"shards=2", 2, diffFaults{}},
		{"shards=3", 3, diffFaults{}},
		{"shards=2,quorum=4", 2, diffFaults{quorum: 4, crash: map[int]int{2: 1, 3: 1, 5: 1, 1: 3}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cohorts := cohortSizes(diffWorkers, tc.shards)
			flat := runFlatBlocked(t, cohorts, tc.faults)
			sharded := runSharded(t, diffRounds, cohorts, tc.faults, func(_ *core.Coordinator, hub *ShardHub) RootLink {
				return DirectLink{Hub: hub}
			})
			requireSameOutcome(t, tc.name, flat, sharded)
			if tc.faults.quorum == 0 {
				return
			}
			for r, rep := range sharded.reports {
				if degraded := r == 1; rep.Committed == degraded || flat.reports[r].Committed == degraded {
					t.Fatalf("round %d: committed flat=%v sharded=%v, want %v", r, flat.reports[r].Committed, rep.Committed, !degraded)
				}
			}
		})
	}
}

// TestShardedRejectsWrongLengthLikeFlat plants wrong-length uploads and
// requires the edge aggregators to reach the flat path's verdicts bit for
// bit: rejected at -Inf, distance NaN, never folded into a partial, never
// forwarded for benchmark duty, and no panic on either side. The second
// scenario leaves the initial server cluster (workers 0 and 1) without a
// usable upload, so round 0 has no benchmark and accepts arrivals on trust
// — all but the malformed one.
func TestShardedRejectsWrongLengthLikeFlat(t *testing.T) {
	short := func(g gradvec.Vector) gradvec.Vector { return g[:len(g)-3] }
	long := func(g gradvec.Vector) gradvec.Vector { return append(g.Clone(), 1, 2, 3) }
	poison := func(g gradvec.Vector) gradvec.Vector { g[len(g)/2] = math.NaN(); return g }
	for name, rewrite := range map[string]map[int]func(gradvec.Vector) gradvec.Vector{
		"worker and server": {1: short, 4: long},
		"no benchmark":      {0: poison, 1: short, 4: long},
	} {
		t.Run(name, func(t *testing.T) {
			cohorts := cohortSizes(diffWorkers, 2)
			flat := runFlatBlocked(t, cohorts, diffFaults{rewrite: rewrite})
			sharded := runSharded(t, diffRounds, cohorts, diffFaults{rewrite: rewrite}, func(_ *core.Coordinator, hub *ShardHub) RootLink {
				return DirectLink{Hub: hub}
			})
			requireSameOutcome(t, name, flat, sharded)
			for r, rep := range sharded.reports {
				det, c := rep.Detection, rep.Contributions
				for victim := range rewrite {
					if det.Accept[victim] || det.Uncertain[victim] || !math.IsNaN(c.Dist[victim]) {
						t.Fatalf("round %d worker %d: accept=%v uncertain=%v dist=%v, want a rejection with distance NaN",
							r, victim, det.Accept[victim], det.Uncertain[victim], c.Dist[victim])
					}
				}
			}
			if det := sharded.reports[0].Detection; name == "no benchmark" && (det.Benchmark != nil || !det.Accept[2]) {
				t.Fatalf("round 0: benchmark %v accept[2]=%v, want no benchmark and usable arrivals accepted on trust", det.Benchmark != nil, det.Accept[2])
			}
		})
	}
}

// TestShardedMatchesFlatOverHTTP repeats the differential over the real
// HTTP transport: shard evidence POSTed to /v1/shard/submit, directives
// long-polled from /v1/shard/directive.
func TestShardedMatchesFlatOverHTTP(t *testing.T) {
	cohorts := cohortSizes(diffWorkers, 2)
	flat := runFlatBlocked(t, cohorts, diffFaults{})
	var ts *httptest.Server
	t.Cleanup(func() {
		if ts != nil {
			ts.Close()
		}
	})
	sharded := runSharded(t, diffRounds, cohorts, diffFaults{}, func(coord *core.Coordinator, hub *ShardHub) RootLink {
		srv, err := NewServer(coord, hub)
		if err != nil {
			t.Fatal(err)
		}
		ts = httptest.NewServer(srv.Handler())
		return HTTPLink{Base: ts.URL, Client: ts.Client(), PollWait: 250 * time.Millisecond}
	})
	requireSameOutcome(t, "http", flat, sharded)
}
