package fl

import (
	"context"
	"math"
	"testing"
	"time"

	"fifl/internal/dataset"
	"fifl/internal/gradvec"
	"fifl/internal/nn"
	"fifl/internal/rng"
)

// collect runs one context-first collection, failing the test on error.
func collect(t *testing.T, e *Engine, round int) *RoundResult {
	t.Helper()
	rr, err := e.CollectGradientsContext(context.Background(), round)
	if err != nil {
		t.Fatal(err)
	}
	return rr
}

// aggregate aggregates one collected round, failing the test on error.
func aggregate(t *testing.T, e *Engine, rr *RoundResult, accept []bool) gradvec.Vector {
	t.Helper()
	g, err := e.AggregateRound(rr, accept)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func testSetup(t *testing.T, n int, drop float64) (*Engine, *dataset.Dataset) {
	t.Helper()
	src := rng.New(100)
	build := nn.NewMLP(100, 28*28, []int{16}, 10)
	data := dataset.SynthDigits(src.Split("train"), n*60)
	test := dataset.SynthDigits(src.Split("test"), 100)
	parts := data.PartitionIID(src.Split("parts"), n)
	lc := LocalConfig{K: 1, BatchSize: 8, LR: 0.05}
	workers := make([]Worker, n)
	for i := range workers {
		workers[i] = NewHonestWorker(i, parts[i], build, lc, src)
	}
	e, err := NewEngine(Config{Servers: 2, GlobalLR: 0.05, DropRate: drop}, build, workers, src)
	if err != nil {
		t.Fatal(err)
	}
	return e, test
}

func TestCollectGradientsShapes(t *testing.T) {
	e, _ := testSetup(t, 4, 0)
	rr := collect(t, e, 0)
	if len(rr.Grads) != 4 || len(rr.Samples) != 4 {
		t.Fatalf("result sizes %d/%d", len(rr.Grads), len(rr.Samples))
	}
	for i, g := range rr.Grads {
		if g == nil {
			t.Fatalf("worker %d dropped with DropRate 0", i)
		}
		if len(g) != len(e.Params()) {
			t.Fatalf("gradient length %d, want %d", len(g), len(e.Params()))
		}
		if rr.Samples[i] != 60 {
			t.Fatalf("samples[%d] = %d", i, rr.Samples[i])
		}
	}
}

func TestDropRate(t *testing.T) {
	e, _ := testSetup(t, 10, 0.5)
	dropped := 0
	total := 0
	for round := 0; round < 20; round++ {
		rr := collect(t, e, round)
		for i := range rr.Grads {
			total++
			if rr.Dropped(i) {
				dropped++
			}
		}
	}
	frac := float64(dropped) / float64(total)
	if frac < 0.35 || frac > 0.65 {
		t.Fatalf("drop fraction %v, want ≈0.5", frac)
	}
}

func TestAggregateWeights(t *testing.T) {
	e, _ := testSetup(t, 3, 0)
	rr := &RoundResult{
		Grads:   []gradvec.Vector{{1, 0}, {0, 1}, {1, 1}},
		Samples: []int{1, 1, 2},
	}
	// Force a two-parameter engine view by calling gradvec directly; the
	// engine only checks lengths against its own params, so build the
	// expected value manually instead.
	got := gradvec.WeightedSum(rr.Grads, []float64{0.25, 0.25, 0.5})
	want := gradvec.Vector{0.25 + 0.5, 0.25 + 0.5}
	if math.Abs(got[0]-want[0]) > 1e-12 || math.Abs(got[1]-want[1]) > 1e-12 {
		t.Fatalf("weighted sum = %v", got)
	}
	_ = e
}

func TestAggregateRespectsAcceptMask(t *testing.T) {
	e, _ := testSetup(t, 3, 0)
	rr := collect(t, e, 0)
	all := aggregate(t, e, rr, nil)
	masked := aggregate(t, e, rr, []bool{true, false, true})
	if all == nil || masked == nil {
		t.Fatal("aggregation returned nil")
	}
	// Rejecting a worker must change the aggregate (gradients differ).
	same := true
	for i := range all {
		if all[i] != masked[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("accept mask had no effect")
	}
	// Weights must renormalize: masked aggregate of equal-size workers is
	// the mean of the two accepted gradients.
	want := gradvec.Zeros(len(all))
	want.AddScaled(0.5, rr.Grads[0])
	want.AddScaled(0.5, rr.Grads[2])
	for i := range want {
		if math.Abs(masked[i]-want[i]) > 1e-12 {
			t.Fatal("masked aggregation weights wrong")
		}
	}
}

func TestAggregateAllRejectedNil(t *testing.T) {
	e, _ := testSetup(t, 2, 0)
	rr := collect(t, e, 0)
	if aggregate(t, e, rr, []bool{false, false}) != nil {
		t.Fatal("aggregate of nothing should be nil")
	}
}

func TestApplyGlobalMovesParams(t *testing.T) {
	e, _ := testSetup(t, 2, 0)
	before := append([]float64(nil), e.Params()...)
	rr := collect(t, e, 0)
	e.ApplyGlobal(aggregate(t, e, rr, nil))
	after := e.Params()
	changed := false
	for i := range before {
		if before[i] != after[i] {
			changed = true
			break
		}
	}
	if !changed {
		t.Fatal("ApplyGlobal did not move parameters")
	}
	// Nil gradient is a no-op.
	snapshot := append([]float64(nil), after...)
	e.ApplyGlobal(nil)
	for i := range snapshot {
		if e.Params()[i] != snapshot[i] {
			t.Fatal("ApplyGlobal(nil) must be a no-op")
		}
	}
}

func TestTrainingReducesLoss(t *testing.T) {
	e, test := testSetup(t, 4, 0)
	_, before := e.Evaluate(test, 64)
	for round := 0; round < 25; round++ {
		e.Step(round)
	}
	_, after := e.Evaluate(test, 64)
	if after >= before {
		t.Fatalf("federated training failed to reduce loss: %v -> %v", before, after)
	}
}

func TestLocalTrainStartsFromGlobal(t *testing.T) {
	// Two workers with the same data and RNG position must produce the
	// same gradient from the same global parameters (determinism), and a
	// different global must change the gradient.
	src := rng.New(200)
	build := nn.NewMLP(200, 28*28, []int{8}, 10)
	data := dataset.SynthDigits(src.Split("d"), 50)
	lc := LocalConfig{K: 2, BatchSize: 4, LR: 0.05}
	w1 := NewHonestWorker(0, data, build, lc, rng.New(7))
	w2 := NewHonestWorker(0, data, build, lc, rng.New(7))
	global := build().ParamsVector()
	g1 := w1.LocalTrain(0, global)
	g2 := w2.LocalTrain(0, global)
	for i := range g1 {
		if g1[i] != g2[i] {
			t.Fatal("identical workers must produce identical gradients")
		}
	}
	// K>1 must not equal a single-step gradient (the local trajectory
	// advances between steps).
	lc1 := lc
	lc1.K = 1
	w3 := NewHonestWorker(0, data, build, lc1, rng.New(7))
	g3 := w3.LocalTrain(0, global)
	same := true
	for i := range g1 {
		if g1[i] != g3[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("K=2 gradient should differ from K=1 gradient")
	}
}

func TestEngineDeterminism(t *testing.T) {
	run := func() []float64 {
		e, _ := testSetup(t, 3, 0.2)
		for round := 0; round < 5; round++ {
			e.Step(round)
		}
		return append([]float64(nil), e.Params()...)
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("engine runs with the same seed must be bit-identical")
		}
	}
}

func TestNewEngineRejectsBadInputs(t *testing.T) {
	build := nn.NewMLP(1, 4, nil, 2)
	cases := []struct {
		name string
		run  func() (*Engine, error)
	}{
		{"zero servers", func() (*Engine, error) {
			return NewEngine(Config{Servers: 0}, build, nil, rng.New(1))
		}},
		{"bad drop rate", func() (*Engine, error) {
			return NewEngine(Config{Servers: 1, DropRate: 1.5}, build, nil, rng.New(1))
		}},
		{"nil builder", func() (*Engine, error) {
			return NewEngine(Config{Servers: 1}, nil, nil, rng.New(1))
		}},
		{"nil source", func() (*Engine, error) {
			return NewEngine(Config{Servers: 1}, build, nil, nil)
		}},
		{"negative quorum", func() (*Engine, error) {
			return NewEngine(Config{Servers: 1}, build, nil, rng.New(1), WithQuorum(-1))
		}},
		{"negative retries", func() (*Engine, error) {
			return NewEngine(Config{Servers: 1}, build, nil, rng.New(1), WithRetry(-1, 0))
		}},
		{"negative timeout", func() (*Engine, error) {
			return NewEngine(Config{Servers: 1}, build, nil, rng.New(1), WithWorkerTimeout(-time.Second))
		}},
	}
	for _, tc := range cases {
		if _, err := tc.run(); err == nil {
			t.Fatalf("%s: expected an error", tc.name)
		}
	}
}

func TestSetParamsLengthMismatchErrors(t *testing.T) {
	e, _ := testSetup(t, 2, 0)
	if err := e.SetParams([]float64{1, 2, 3}); err == nil {
		t.Fatal("SetParams with a mismatched vector must error")
	}
	ok := append([]float64(nil), e.Params()...)
	if err := e.SetParams(ok); err != nil {
		t.Fatalf("SetParams with a matching vector errored: %v", err)
	}
}

func TestParamsReturnsACopy(t *testing.T) {
	// Params is handed to user code (custom Scorers, experiment
	// harnesses); mutating the result must not move the global model.
	e, _ := testSetup(t, 2, 0)
	p := e.Params()
	before := append([]float64(nil), e.ParamsRef()...)
	for i := range p {
		p[i] = 1e9
	}
	after := e.ParamsRef()
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("mutating a Params() result moved the global model")
		}
	}
	// ParamsRef is the documented zero-copy alias for internal paths.
	ref := e.ParamsRef()
	if &ref[0] != &after[0] {
		t.Fatal("ParamsRef must alias the live parameter vector")
	}
	if &p[0] == &ref[0] {
		t.Fatal("Params must not alias the live parameter vector")
	}
}

func TestCollectedGradientsLiveInReusedArena(t *testing.T) {
	e, _ := testSetup(t, 3, 0)
	rr0 := collect(t, e, 0)
	first := make([]gradvec.Vector, len(rr0.Grads))
	copy(first, rr0.Grads)
	// Rows must be disjoint views of one arena: same stride apart, and a
	// write to one row must not show in another.
	if &first[0][0] == &first[1][0] {
		t.Fatal("workers share a gradient row")
	}
	rr1 := collect(t, e, 1)
	for i := range rr1.Grads {
		if &rr1.Grads[i][0] != &first[i][0] {
			t.Fatalf("worker %d: round 1 gradient not in the reused arena row", i)
		}
	}
}

func TestAggregateRoundMaskMismatchErrors(t *testing.T) {
	e, _ := testSetup(t, 3, 0)
	rr := collect(t, e, 0)
	if _, err := e.AggregateRound(rr, []bool{true}); err == nil {
		t.Fatal("AggregateRound with a short accept mask must error")
	}
}
