package transport

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"fifl/internal/core"
	"fifl/internal/faults"
	"fifl/internal/fl"
	"fifl/internal/gradvec"
	"fifl/internal/metrics"
	"fifl/internal/rng"
)

// asyncHub builds a 3-worker hub in async mode with every worker
// registered and round 0 broadcast, ready to accept any-time submissions.
func asyncHub(t *testing.T, bound int) *Hub {
	t.Helper()
	hub, err := NewHub(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := hub.EnableAsync(bound); err != nil {
		t.Fatal(err)
	}
	for id := 0; id < 3; id++ {
		if err := hub.hello(id, 10); err != nil {
			t.Fatal(err)
		}
	}
	hub.publish(0, []float64{0, 0, 0, 0})
	return hub
}

func mustSubmit(t *testing.T, hub *Hub, round, id int, g gradvec.Vector) {
	t.Helper()
	if _, err := hub.submit(round, id, 10, g); err != nil {
		t.Fatal(err)
	}
}

// TestTakePendingPaths drives Hub.takePending through its four resolution
// paths — min reached, deadline firing below min, hub close and context
// cancel — with the waker racing the waiter (the tier-1 -race leg runs
// this under the race detector).
func TestTakePendingPaths(t *testing.T) {
	grad := gradvec.Vector{1, 2, 3, 4}
	cases := []struct {
		name    string
		min     int
		maxWait time.Duration
		drive   func(t *testing.T, hub *Hub) // concurrent with takePending
		want    int
		wantErr bool
	}{
		{
			name: "min-reached",
			min:  2,
			drive: func(t *testing.T, hub *Hub) {
				mustSubmit(t, hub, 0, 0, grad)
				mustSubmit(t, hub, 0, 1, grad)
			},
			want: 2,
		},
		{
			name:    "deadline-fires-below-min",
			min:     3,
			maxWait: 30 * time.Millisecond,
			drive: func(t *testing.T, hub *Hub) {
				mustSubmit(t, hub, 0, 2, grad)
			},
			want: 1,
		},
		{
			name: "hub-close",
			min:  1,
			drive: func(t *testing.T, hub *Hub) {
				time.Sleep(10 * time.Millisecond)
				hub.Close()
			},
			wantErr: true,
		},
		{
			name:    "context-cancel",
			min:     1,
			wantErr: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			hub := asyncHub(t, 2)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			done := make(chan struct{})
			go func() {
				defer close(done)
				if tc.drive != nil {
					tc.drive(t, hub)
				}
				if tc.name == "context-cancel" {
					time.Sleep(10 * time.Millisecond)
					cancel()
				}
			}()
			taken, err := hub.takePending(ctx, tc.min, tc.maxWait)
			<-done
			if tc.wantErr {
				if err == nil {
					t.Fatalf("takePending returned %d submissions, want error", len(taken))
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(taken) != tc.want {
				t.Fatalf("takePending returned %d submissions, want %d", len(taken), tc.want)
			}
			// The drain must leave the queue empty.
			if left := hub.peekPending(); len(left) != 0 {
				t.Fatalf("queue holds %d submissions after drain", len(left))
			}
		})
	}
}

// TestNewAsyncCollectorRejectsUnsatisfiableAdvance pins the typed
// construction error: a count trigger above the federation size with the
// timer disabled can never fire, so the collector must refuse to build
// instead of hanging the first advance window forever.
func TestNewAsyncCollectorRejectsUnsatisfiableAdvance(t *testing.T) {
	recipe := Recipe{Seed: 3, Workers: 2, SamplesPerWorker: 20}
	build, err := recipe.Builder()
	if err != nil {
		t.Fatal(err)
	}
	hub, err := NewHub(recipe.Workers)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := fl.NewEngine(fl.Config{Servers: 1, GlobalLR: 0.05}, build, hub.Workers(), rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	_, err = NewAsyncCollector(hub, engine, AsyncConfig{MaxStaleness: 1, AdvanceEvery: 3})
	var unsat *UnsatisfiableAdvanceError
	if !errors.As(err, &unsat) {
		t.Fatalf("NewAsyncCollector error = %v, want *UnsatisfiableAdvanceError", err)
	}
	if unsat.AdvanceEvery != 3 || unsat.Workers != 2 {
		t.Fatalf("error carries AdvanceEvery=%d Workers=%d, want 3 and 2", unsat.AdvanceEvery, unsat.Workers)
	}
	// The same trigger is satisfiable once a time cadence exists.
	if _, err := NewAsyncCollector(hub, engine, AsyncConfig{
		MaxStaleness: 1, AdvanceEvery: 3, AdvanceInterval: time.Second,
	}); err != nil {
		t.Fatalf("NewAsyncCollector with AdvanceInterval: %v", err)
	}
	// Every window commits, so an engine with a quorum is refused.
	quorate, err := fl.NewEngine(fl.Config{Servers: 1, GlobalLR: 0.05}, build, hub.Workers(), rng.New(3), fl.WithQuorum(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewAsyncCollector(hub, quorate, AsyncConfig{MaxStaleness: 1, AdvanceEvery: 1}); err == nil || !strings.Contains(err.Error(), "quorum") {
		t.Fatalf("NewAsyncCollector over a quorum-2 engine: error %v, want one naming the quorum", err)
	}
}

// TestAsyncStaleAndSupersededAccounting pins the window bookkeeping: a
// StatusStale rejection zeroes the row's sample weight (it delivered no
// gradient), and a same-window dominated submission is counted under
// fifl_async_superseded_total.
func TestAsyncStaleAndSupersededAccounting(t *testing.T) {
	recipe := Recipe{Seed: 5, Workers: 3, SamplesPerWorker: 20}
	build, err := recipe.Builder()
	if err != nil {
		t.Fatal(err)
	}
	hub, err := NewHub(recipe.Workers)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.New()
	engine, err := fl.NewEngine(fl.Config{Servers: 1, GlobalLR: 0.05}, build, hub.Workers(), rng.New(5),
		fl.WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	col, err := NewAsyncCollector(hub, engine, AsyncConfig{MaxStaleness: 1, AdvanceEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < recipe.Workers; id++ {
		if err := hub.hello(id, recipe.SamplesPerWorker); err != nil {
			t.Fatal(err)
		}
	}
	dim := len(engine.Params())
	gradFor := func(round int) gradvec.Vector {
		g := make(gradvec.Vector, dim)
		g[0] = float64(round + 1)
		return g
	}
	// Broadcast rounds 0 and 1 so worker 0 can queue two submissions into
	// the same window (round 1 dominates round 0), and worker 1 a round-0
	// submission that will be over the bound by the time the window folds.
	hub.publish(0, engine.Params())
	mustSubmitN(t, hub, 0, 0, recipe.SamplesPerWorker, gradFor(0))
	mustSubmitN(t, hub, 0, 1, recipe.SamplesPerWorker, gradFor(0))
	hub.publish(1, engine.Params())
	mustSubmitN(t, hub, 1, 0, recipe.SamplesPerWorker, gradFor(1))

	rr, err := col.CollectRound(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	// Worker 0: the round-1 submission wins (staleness 1, folded), the
	// round-0 one is superseded.
	if rr.Status[0] != faults.StatusOK || rr.Staleness[0] != 1 {
		t.Fatalf("worker 0 status=%v staleness=%d, want OK/1", rr.Status[0], rr.Staleness[0])
	}
	if rr.Samples[0] != recipe.SamplesPerWorker {
		t.Fatalf("worker 0 samples=%d, want %d", rr.Samples[0], recipe.SamplesPerWorker)
	}
	// Worker 1: round-0 at t=2 is staleness 2 > bound 1 — stale, no
	// gradient, and crucially no sample weight.
	if rr.Status[1] != faults.StatusStale {
		t.Fatalf("worker 1 status=%v, want StatusStale", rr.Status[1])
	}
	if rr.Grads[1] != nil {
		t.Fatal("stale worker 1 carries a gradient")
	}
	if rr.Samples[1] != 0 {
		t.Fatalf("stale worker 1 samples=%d, want 0", rr.Samples[1])
	}
	// Worker 2 never submitted: pending, keeps its registered samples.
	if rr.Status[2] != faults.StatusPending || rr.Samples[2] != recipe.SamplesPerWorker {
		t.Fatalf("worker 2 status=%v samples=%d, want pending with %d samples",
			rr.Status[2], rr.Samples[2], recipe.SamplesPerWorker)
	}
	snap := reg.Snapshot()
	if got := snap.CounterValue("fifl_async_superseded_total"); got != 1 {
		t.Fatalf("fifl_async_superseded_total=%d, want 1", got)
	}
	if got := snap.CounterValue("fifl_async_submissions_total", "staleness", "over"); got != 1 {
		t.Fatalf("over-bound submission counter=%d, want 1", got)
	}
}

func mustSubmitN(t *testing.T, hub *Hub, round, id, samples int, g gradvec.Vector) {
	t.Helper()
	if _, err := hub.submit(round, id, samples, g); err != nil {
		t.Fatal(err)
	}
}

// recordingCollector keeps the last RoundResult its collector returned,
// so a test can read the folded rows the coordinator assessed.
type recordingCollector struct {
	core.Collector
	last *fl.RoundResult
}

func (r *recordingCollector) CollectRound(ctx context.Context, t int) (*fl.RoundResult, error) {
	rr, err := r.Collector.CollectRound(ctx, t)
	r.last = rr
	return rr, err
}

// departedAsyncNet builds a 3-worker async federation behind a Server,
// every worker registered and round 0 broadcast, whose collector folds
// each window on the first arrival.
func departedAsyncNet(t *testing.T) (*Server, *Hub, *recordingCollector, int) {
	t.Helper()
	recipe := Recipe{Seed: 5, Workers: 3, SamplesPerWorker: 20}
	build, err := recipe.Builder()
	if err != nil {
		t.Fatal(err)
	}
	hub, err := NewHub(recipe.Workers)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := fl.NewEngine(fl.Config{Servers: 1, GlobalLR: 0.05}, build, hub.Workers(), rng.New(5),
		fl.WithWorkerTimeout(time.Second), fl.WithMetrics(metrics.New()))
	if err != nil {
		t.Fatal(err)
	}
	col, err := NewAsyncCollector(hub, engine, AsyncConfig{MaxStaleness: 1, AdvanceEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	rec := &recordingCollector{Collector: col}
	coord, err := core.NewCoordinator(coordConfig(), engine, []int{0}, core.WithCollector(rec))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(coord, hub)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	for id := 0; id < recipe.Workers; id++ {
		if err := hub.hello(id, recipe.SamplesPerWorker); err != nil {
			t.Fatal(err)
		}
	}
	hub.publish(0, engine.Params())
	return srv, hub, rec, len(engine.Params())
}

// TestAsyncDepartedWorkerFoldsBySlot: the async window is indexed by
// cohort slot, not worker ID. After worker 1 leaves a 3-worker
// federation, worker 2 sits in slot 1 — its upload must fold there
// (indexing the 2-slot round by ID 2 would panic the coordinator), and
// an upload worker 1 queued before leaving must not be folded at all.
func TestAsyncDepartedWorkerFoldsBySlot(t *testing.T) {
	ctx := context.Background()
	t.Run("later-id-submits", func(t *testing.T) {
		srv, hub, rec, dim := departedAsyncNet(t)
		if err := srv.DepartWorker(1); err != nil {
			t.Fatal(err)
		}
		g := make(gradvec.Vector, dim)
		for i := range g {
			g[i] = 1e-3 * float64(i%7-3)
		}
		mustSubmitN(t, hub, 0, 2, 20, g)
		rep, err := srv.RunRound(ctx, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Committed || len(rep.WorkerIDs) != 2 || rep.WorkerIDs[0] != 0 || rep.WorkerIDs[1] != 2 {
			t.Fatalf("round committed=%v over worker IDs %v, want committed over [0 2]", rep.Committed, rep.WorkerIDs)
		}
		if rep.Statuses[1] != faults.StatusOK || rep.Staleness[1] != 0 {
			t.Fatalf("slot 1 status=%v staleness=%d, want OK/0", rep.Statuses[1], rep.Staleness[1])
		}
		if !gradBitsEqual(rec.last.Grads[1], g) {
			t.Fatal("slot 1 does not hold worker 2's gradient")
		}
		if rep.Statuses[0] != faults.StatusPending {
			t.Fatalf("slot 0 status=%v, want pending", rep.Statuses[0])
		}
	})
	t.Run("departed-upload-dropped", func(t *testing.T) {
		srv, hub, rec, dim := departedAsyncNet(t)
		mustSubmitN(t, hub, 0, 1, 20, make(gradvec.Vector, dim))
		if err := srv.DepartWorker(1); err != nil {
			t.Fatal(err)
		}
		rep, err := srv.RunRound(ctx, 0)
		if err != nil {
			t.Fatal(err)
		}
		if rec.last.Arrived != 0 {
			t.Fatalf("%d uploads folded, want none", rec.last.Arrived)
		}
		for slot, st := range rep.Statuses {
			if st != faults.StatusPending || rec.last.Grads[slot] != nil {
				t.Fatalf("slot %d (worker %d) status=%v, want pending with no gradient", slot, rep.WorkerIDs[slot], st)
			}
		}
	})
}

// TestNewAsyncCollectorOverChurnedCohort: a coordinator restarted from a
// checkpoint taken after a leave builds its engine over
// hub.WorkersFor(activeCohort), fewer stubs than the hub has IDs. The
// collector accepts that cohort, sizes the unsatisfiable-advance check by
// it, and refuses a stub whose ID the hub does not cover.
func TestNewAsyncCollectorOverChurnedCohort(t *testing.T) {
	build, err := Recipe{Seed: 3, Workers: 3, SamplesPerWorker: 20}.Builder()
	if err != nil {
		t.Fatal(err)
	}
	engineFor := func(hub *Hub, ids []int) *fl.Engine {
		t.Helper()
		stubs, err := hub.WorkersFor(ids)
		if err != nil {
			t.Fatal(err)
		}
		engine, err := fl.NewEngine(fl.Config{Servers: 1, GlobalLR: 0.05}, build, stubs, rng.New(3))
		if err != nil {
			t.Fatal(err)
		}
		return engine
	}
	newHub := func(n int) *Hub {
		t.Helper()
		hub, err := NewHub(n)
		if err != nil {
			t.Fatal(err)
		}
		return hub
	}

	hub := newHub(3)
	if _, err := NewAsyncCollector(hub, engineFor(hub, []int{0, 2}), AsyncConfig{MaxStaleness: 1, AdvanceEvery: 2}); err != nil {
		t.Fatalf("collector over cohort [0 2] of a 3-ID hub: %v", err)
	}

	hub = newHub(3)
	_, err = NewAsyncCollector(hub, engineFor(hub, []int{0, 2}), AsyncConfig{MaxStaleness: 1, AdvanceEvery: 3})
	var unsat *UnsatisfiableAdvanceError
	if !errors.As(err, &unsat) || unsat.Workers != 2 {
		t.Fatalf("AdvanceEvery 3 over 2 seated workers: error %v, want *UnsatisfiableAdvanceError for 2 workers", err)
	}

	if _, err := NewAsyncCollector(newHub(3), engineFor(newHub(6), []int{0, 5}), AsyncConfig{MaxStaleness: 1, AdvanceEvery: 1}); err == nil {
		t.Fatal("collector accepted a stub for worker 5 on a 3-ID hub")
	}
}
