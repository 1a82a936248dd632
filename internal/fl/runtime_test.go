package fl

import (
	"context"
	"reflect"
	"runtime"
	"testing"
	"time"

	"fifl/internal/dataset"
	"fifl/internal/faults"
	"fifl/internal/gradvec"
	"fifl/internal/nn"
	"fifl/internal/rng"
)

// runtimeSetup builds a small federation with the given runtime options.
func runtimeSetup(t *testing.T, n int, drop float64, opts ...Option) *Engine {
	t.Helper()
	src := rng.New(100)
	build := nn.NewMLP(100, 28*28, []int{16}, 10)
	data := dataset.SynthDigits(src.Split("train"), n*60)
	parts := data.PartitionIID(src.Split("parts"), n)
	lc := LocalConfig{K: 1, BatchSize: 8, LR: 0.05}
	workers := make([]Worker, n)
	for i := range workers {
		workers[i] = NewHonestWorker(i, parts[i], build, lc, src)
	}
	e, err := NewEngine(Config{Servers: 2, GlobalLR: 0.05, DropRate: drop}, build, workers, src, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestDeterministicAcrossPoolSizes: the same seed with DropRate = 0 must
// produce a bit-identical RoundResult across runs and across scheduler
// pool sizes (GOMAXPROCS) — the failure schedule and every local gradient
// are fixed by the seed, not by scheduling.
func TestDeterministicAcrossPoolSizes(t *testing.T) {
	collect := func(procs int) *RoundResult {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		e := runtimeSetup(t, 6, 0)
		rr, err := e.CollectGradientsContext(context.Background(), 0)
		if err != nil {
			t.Fatal(err)
		}
		return rr
	}
	ref := collect(1)
	for _, procs := range []int{1, 2, 4} {
		got := collect(procs)
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("RoundResult differs between GOMAXPROCS 1 and %d", procs)
		}
	}
	for i, s := range ref.Status {
		if s != faults.StatusOK {
			t.Fatalf("worker %d status %v with DropRate 0", i, s)
		}
	}
	if !ref.Committed || ref.Arrived != 6 {
		t.Fatalf("clean round not committed: arrived=%d committed=%v", ref.Arrived, ref.Committed)
	}
}

// TestRetryDeterministicForFixedSeed: retry and drop decisions for a lossy
// federation are identical across runs with the same seed — the whole
// failure schedule is drawn from the engine's stream before fan-out.
func TestRetryDeterministicForFixedSeed(t *testing.T) {
	run := func() ([]faults.UploadStatus, []int) {
		e := runtimeSetup(t, 10, 0.5, WithRetry(3, 10*time.Millisecond))
		var status []faults.UploadStatus
		var retries []int
		for round := 0; round < 8; round++ {
			rr, err := e.CollectGradientsContext(context.Background(), round)
			if err != nil {
				t.Fatal(err)
			}
			status = append(status, rr.Status...)
			retries = append(retries, rr.Retries...)
		}
		return status, retries
	}
	s1, r1 := run()
	s2, r2 := run()
	if !reflect.DeepEqual(s1, s2) || !reflect.DeepEqual(r1, r2) {
		t.Fatal("retry/drop schedule must be deterministic for a fixed seed")
	}
	// With 50% loss and 3 retries some uploads must be retried and the
	// schedule must contain successes after retransmission.
	retried, dropped := 0, 0
	for i, s := range s1 {
		switch s {
		case faults.StatusRetried:
			retried++
			if r1[i] == 0 {
				t.Fatal("retried upload with zero retry count")
			}
		case faults.StatusDropped:
			dropped++
		case faults.StatusOK:
			if r1[i] != 0 {
				t.Fatal("clean upload with non-zero retry count")
			}
		}
	}
	if retried == 0 {
		t.Fatal("expected at least one successful retransmission at 50% loss")
	}
	// 4 attempts at 50% each: complete losses are rare but present over 80
	// worker-rounds with probability 1-(1-1/16)^80 ≈ 99.4%; don't assert.
	_ = dropped
}

// TestRetryRecoversThroughput: with retries enabled, strictly more uploads
// arrive than under the same loss without retries.
func TestRetryRecoversThroughput(t *testing.T) {
	arrivals := func(opts ...Option) int {
		e := runtimeSetup(t, 10, 0.4, opts...)
		total := 0
		for round := 0; round < 10; round++ {
			rr, err := e.CollectGradientsContext(context.Background(), round)
			if err != nil {
				t.Fatal(err)
			}
			total += rr.Arrived
		}
		return total
	}
	plain := arrivals()
	retrying := arrivals(WithRetry(4, time.Millisecond))
	if retrying <= plain {
		t.Fatalf("retries did not improve arrivals: %d vs %d", retrying, plain)
	}
}

// TestRetryBackoffRespectsDeadline: a retransmission schedule whose
// virtual backoff runs past the worker deadline gives up with TimedOut —
// no wall clock involved.
func TestRetryBackoffRespectsDeadline(t *testing.T) {
	// Injector drops every attempt for worker 0 only; backoff 40ms with
	// deadline 50ms allows exactly one retransmission (40ms), not two
	// (40+80ms). All attempts lost => TimedOut after exhausting the
	// deadline-bounded schedule.
	e := runtimeSetup(t, 2, 0,
		WithFaultInjector(worker0Dropper{}),
		WithRetry(5, 40*time.Millisecond),
		WithWorkerTimeout(50*time.Millisecond))
	rr, err := e.CollectGradientsContext(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Status[0] != faults.StatusTimedOut {
		t.Fatalf("worker 0 status %v, want timed_out", rr.Status[0])
	}
	if rr.Retries[0] != 1 {
		t.Fatalf("worker 0 retries %d, want 1 (second retransmission exceeds the deadline)", rr.Retries[0])
	}
	if rr.Status[1] != faults.StatusOK {
		t.Fatalf("worker 1 status %v, want ok", rr.Status[1])
	}
}

// worker0Dropper loses every transmission attempt of worker 0.
type worker0Dropper struct{}

func (worker0Dropper) Fault(round, worker, attempt int, src *rng.Source) faults.Fault {
	if worker == 0 {
		return faults.FaultDrop
	}
	return faults.FaultNone
}

// slowWorker blocks until released; it stands in for a straggling device.
type slowWorker struct {
	id      int
	dim     int
	release chan struct{}
}

func (w *slowWorker) ID() int         { return w.id }
func (w *slowWorker) NumSamples() int { return 1 }
func (w *slowWorker) LocalTrain(round int, global []float64) gradvec.Vector {
	<-w.release
	return gradvec.Zeros(w.dim)
}

// TestStragglerCutoff: a worker that exceeds the per-worker deadline is
// recorded as TimedOut while the rest of the round completes normally.
func TestStragglerCutoff(t *testing.T) {
	src := rng.New(41)
	build := nn.NewMLP(41, 28*28, []int{8}, 10)
	data := dataset.SynthDigits(src.Split("train"), 120)
	parts := data.PartitionIID(src.Split("parts"), 2)
	lc := LocalConfig{K: 1, BatchSize: 8, LR: 0.05}
	release := make(chan struct{})
	defer close(release) // let the abandoned goroutine finish
	workers := []Worker{
		NewHonestWorker(0, parts[0], build, lc, src),
		&slowWorker{id: 1, dim: 28 * 28, release: release},
	}
	e, err := NewEngine(Config{Servers: 1, GlobalLR: 0.05}, build, workers, src,
		WithWorkerTimeout(50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	workers[1].(*slowWorker).dim = len(e.Params())
	rr, err := e.CollectGradientsContext(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Status[0] != faults.StatusOK || rr.Grads[0] == nil {
		t.Fatalf("fast worker: status %v, grad nil=%v", rr.Status[0], rr.Grads[0] == nil)
	}
	if rr.Status[1] != faults.StatusTimedOut || rr.Grads[1] != nil {
		t.Fatalf("straggler: status %v, grad nil=%v", rr.Status[1], rr.Grads[1] == nil)
	}
	if rr.Arrived != 1 {
		t.Fatalf("arrived = %d, want 1", rr.Arrived)
	}
}

// TestQuorumCommit: rounds below the quorum are flagged uncommitted and
// refuse aggregation; rounds at or above it commit.
func TestQuorumCommit(t *testing.T) {
	// Drop everything: 0 arrivals < quorum 2.
	e := runtimeSetup(t, 4, 1, WithQuorum(2))
	rr, err := e.CollectGradientsContext(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Committed || rr.Arrived != 0 {
		t.Fatalf("lossy round committed: arrived=%d", rr.Arrived)
	}
	g, err := e.AggregateRound(rr, nil)
	if err != nil || g != nil {
		t.Fatalf("uncommitted round aggregated: g=%v err=%v", g, err)
	}
	// A Step on an uncommitted round must leave the model unchanged.
	before := append([]float64(nil), e.Params()...)
	e.Step(1)
	for i := range before {
		if e.Params()[i] != before[i] {
			t.Fatal("uncommitted round moved the global model")
		}
	}

	// Clean round: 4 arrivals >= quorum 2.
	e2 := runtimeSetup(t, 4, 0, WithQuorum(2))
	rr2, err := e2.CollectGradientsContext(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !rr2.Committed || rr2.Quorum != 2 {
		t.Fatalf("clean round not committed: %+v", rr2)
	}
	if g, err := e2.AggregateRound(rr2, nil); err != nil || g == nil {
		t.Fatalf("committed round failed to aggregate: %v", err)
	}
}

// TestCollectGradientsContextCancellation: a cancelled context surfaces as
// an error, not a panic or a partial result.
func TestCollectGradientsContextCancellation(t *testing.T) {
	e := runtimeSetup(t, 2, 0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.CollectGradientsContext(ctx, 0); err == nil {
		t.Fatal("cancelled context must error")
	}
}

// TestFaultyWorkerInterface: a worker implementing faults.Faulty drives
// its own failure schedule through the runtime.
type faultyWorker struct {
	Worker
	fault faults.Fault
	from  int
}

func (w *faultyWorker) FaultAt(round int) faults.Fault {
	if round >= w.from {
		return w.fault
	}
	return faults.FaultNone
}

func TestFaultyWorkerCrash(t *testing.T) {
	src := rng.New(42)
	build := nn.NewMLP(42, 28*28, []int{8}, 10)
	data := dataset.SynthDigits(src.Split("train"), 120)
	parts := data.PartitionIID(src.Split("parts"), 2)
	lc := LocalConfig{K: 1, BatchSize: 8, LR: 0.05}
	workers := []Worker{
		NewHonestWorker(0, parts[0], build, lc, src),
		&faultyWorker{Worker: NewHonestWorker(1, parts[1], build, lc, src), fault: faults.FaultCrash, from: 2},
	}
	e, err := NewEngine(Config{Servers: 1, GlobalLR: 0.05}, build, workers, src)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 4; round++ {
		rr, err := e.CollectGradientsContext(context.Background(), round)
		if err != nil {
			t.Fatal(err)
		}
		want := faults.StatusOK
		if round >= 2 {
			want = faults.StatusCrashed
		}
		if rr.Status[1] != want {
			t.Fatalf("round %d: status %v, want %v", round, rr.Status[1], want)
		}
	}
}
