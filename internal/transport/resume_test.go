package transport

import (
	"bytes"
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"fifl/internal/core"
	"fifl/internal/fl"
	"fifl/internal/persist"
	"fifl/internal/rng"
)

// model returns the hub's current broadcast state.
func (h *Hub) model() (round int, params []float64, done bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.round, h.params, h.done
}

// TestHubCloseUnderConcurrentLongPolls is the -race regression for the
// waitModel close path: pollers blocked on an unreachable round read
// h.round when the hub closes, while a publisher is still mutating it.
// The old code read the field without the lock; the race detector flags
// that version of this test.
func TestHubCloseUnderConcurrentLongPolls(t *testing.T) {
	hub, err := NewHub(1)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// after is unreachable, so only Close can end this poll.
			round, _, done, status := hub.waitModel(context.Background(), 1<<30, 10*time.Second)
			if status != waitNews || !done {
				t.Errorf("long poll ended without done: round=%d done=%v status=%d", round, done, status)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; r < 200; r++ {
			hub.publish(r, []float64{float64(r)})
		}
		hub.Close()
	}()
	wg.Wait()
}

// TestHubRestore covers the checkpoint-resume seeding of a fresh hub:
// known workers are pre-registered, the restored round becomes the
// broadcast, the reconnection window admits next-round submissions, and a
// hub with history refuses to be rewritten.
func TestHubRestore(t *testing.T) {
	hub, err := NewHub(3)
	if err != nil {
		t.Fatal(err)
	}
	params := []float64{1, 2, 3, 4}
	// Worker 2 never registered before the checkpoint (samples 0).
	if err := hub.Restore(&persist.Snapshot{NextRound: 3, Params: params, Samples: []int{10, 20, 0}}); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if round, p, done := hub.model(); round != 2 || done || len(p) != 4 {
		t.Fatalf("restored broadcast = (%d, %v, %v)", round, p, done)
	}

	// The two known workers are registered; re-hello is idempotent, a
	// conflicting re-hello is not.
	if err := hub.hello(0, 10); err != nil {
		t.Fatalf("re-hello after restore: %v", err)
	}
	if err := hub.hello(0, 99); err == nil {
		t.Fatal("conflicting re-hello after restore accepted")
	}

	// WaitReady still waits for the never-seen worker…
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	if err := hub.WaitReady(ctx); err == nil {
		t.Fatal("WaitReady returned with worker 2 still missing")
	}
	cancel()
	// …and unblocks once it arrives.
	if err := hub.hello(2, 30); err != nil {
		t.Fatal(err)
	}
	if err := hub.WaitReady(context.Background()); err != nil {
		t.Fatalf("WaitReady after full registration: %v", err)
	}

	// Current-round and next-round (reconnection window) submissions are
	// accepted; anything else is not.
	if _, err := hub.submit(2, 0, 10, make([]float64, 4)); err != nil {
		t.Fatalf("current-round submission after restore: %v", err)
	}
	if _, err := hub.submit(3, 1, 20, make([]float64, 4)); err != nil {
		t.Fatalf("reconnection-window submission: %v", err)
	}
	if _, err := hub.submit(4, 0, 10, make([]float64, 4)); err == nil {
		t.Fatal("submission two rounds ahead accepted")
	}
	if _, err := hub.submit(1, 0, 10, make([]float64, 4)); err == nil {
		t.Fatal("stale submission accepted")
	}

	// The early round-3 submission is already in the mailbox when the
	// engine re-publishes the round.
	hub.publish(3, params)
	if g := hub.await(3, 1); len(g) != 4 {
		t.Fatalf("await(3,1) after early submission returned %v", g)
	}

	// History cannot be rewritten.
	if err := hub.Restore(&persist.Snapshot{NextRound: 6, Params: params, Samples: []int{10, 20, 30}}); err == nil {
		t.Fatal("second Restore accepted")
	}

	// Shape and state errors.
	if h2, _ := NewHub(2); true {
		if err := h2.Restore(&persist.Snapshot{NextRound: 1, Params: params, Samples: []int{1}}); err == nil {
			t.Fatal("Restore with wrong sample-count length accepted")
		}
		if err := h2.Restore(&persist.Snapshot{NextRound: 1, Params: params, Samples: []int{-1, 1}}); err == nil {
			t.Fatal("Restore with negative samples accepted")
		}
		if err := h2.Restore(&persist.Snapshot{NextRound: -4, Params: params, Samples: []int{1, 1}}); err == nil {
			t.Fatal("Restore with negative round accepted")
		}
		h2.publish(0, params)
		if err := h2.Restore(&persist.Snapshot{NextRound: 2, Params: params, Samples: []int{1, 1}}); err == nil {
			t.Fatal("Restore after a live publish accepted")
		}
	}
	if h3, _ := NewHub(1); true {
		h3.Close()
		if err := h3.Restore(&persist.Snapshot{NextRound: 1, Params: params, Samples: []int{1}}); err == nil {
			t.Fatal("Restore on a closed hub accepted")
		}
	}

	// An empty-run checkpoint (no round yet) only seeds registrations:
	// submissions stay rejected until a real broadcast.
	h4, _ := NewHub(2)
	if err := h4.Restore(&persist.Snapshot{Samples: []int{5, 5}}); err != nil {
		t.Fatalf("empty-state Restore: %v", err)
	}
	if err := h4.WaitReady(context.Background()); err != nil {
		t.Fatalf("WaitReady after empty-state Restore: %v", err)
	}
	if _, err := h4.submit(0, 0, 5, make([]float64, 4)); err == nil {
		t.Fatal("submission before any broadcast accepted after empty-state Restore")
	}
}

// TestHubRestoreSeatsActiveCohort: a churned checkpoint seats a subset of
// the identities it knows. Restore marks the rest inactive, so readiness
// waits only on the seated cohort and an unseated identity's hello is
// refused until it rejoins.
func TestHubRestoreSeatsActiveCohort(t *testing.T) {
	hub, err := NewHub(4)
	if err != nil {
		t.Fatal(err)
	}
	// Worker 1 departed; worker 3 joined but never registered here.
	snap := &persist.Snapshot{NextRound: 2, Params: []float64{1}, Samples: []int{10, 0, 30, 0}, ActiveCohort: []int{0, 3, 2}}
	if err := hub.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if err := hub.hello(1, 20); err == nil {
		t.Fatal("hello from an unseated identity accepted after restore")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := hub.WaitReady(ctx); err == nil {
		t.Fatal("WaitReady returned with seated worker 3 still missing")
	}
	if err := hub.hello(3, 40); err != nil {
		t.Fatal(err)
	}
	if err := hub.WaitReady(context.Background()); err != nil {
		t.Fatalf("WaitReady once the seated cohort registered: %v", err)
	}

	h2, _ := NewHub(2)
	if err := h2.Restore(&persist.Snapshot{Samples: []int{1, 1}, ActiveCohort: []int{0, 2}}); err == nil {
		t.Fatal("Restore seating an identity outside the hub accepted")
	}
}

// TestLoopbackKillAndResume is the transport half of the durability
// guarantee: a networked 6-round federation whose coordinator "dies"
// between rounds 3 and 4 — its server torn down, workers' requests
// failing — and restarts from the checkpoint finishes bit-identically
// (reputations, cumulative rewards, model params, ledger bytes) to an
// uninterrupted networked run. The workers ride through the outage on
// their HTTP retry schedule and long-poll straight into the resumed
// round; they are never restarted and never told anything happened.
func TestLoopbackKillAndResume(t *testing.T) {
	const (
		nWorkers = 3
		nRounds  = 6
		killAt   = 3 // rounds completed before the crash
		deadline = 3 * time.Second
	)
	recipe := Recipe{Seed: 7, Workers: nWorkers, SamplesPerWorker: 60}
	engCfg := fl.Config{Servers: 2, GlobalLR: 0.05}
	initialServers := []int{0, 1}

	newServer := func() (*Server, *core.Coordinator, *Hub) {
		t.Helper()
		build, err := recipe.Builder()
		if err != nil {
			t.Fatal(err)
		}
		hub, err := NewHub(nWorkers)
		if err != nil {
			t.Fatal(err)
		}
		engine, err := fl.NewEngine(engCfg, build, hub.Workers(), rng.New(recipe.Seed).Split("netfed"),
			fl.WithWorkerTimeout(deadline))
		if err != nil {
			t.Fatal(err)
		}
		coord, err := core.NewCoordinator(coordConfig(), engine, initialServers)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := NewServer(coord, hub)
		if err != nil {
			t.Fatal(err)
		}
		return srv, coord, hub
	}

	runClients := func(ctx context.Context, baseURL string) (*sync.WaitGroup, []int, []error) {
		t.Helper()
		var wg sync.WaitGroup
		trained := make([]int, nWorkers)
		errs := make([]error, nWorkers)
		for i := 0; i < nWorkers; i++ {
			w, err := recipe.Worker(i)
			if err != nil {
				t.Fatal(err)
			}
			c, err := DialWorker(ctx, ClientConfig{
				BaseURL:  baseURL,
				Worker:   w,
				PollWait: 300 * time.Millisecond,
				// Enough retry budget to ride through the outage window.
				RetryAttempts: 50,
				RetryBackoff:  10 * time.Millisecond,
			})
			if err != nil {
				t.Fatalf("dialing worker %d: %v", i, err)
			}
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				trained[i], errs[i] = c.Run(ctx)
			}(i)
		}
		return &wg, trained, errs
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// Reference arm: the same federation, never interrupted.
	refSrv, refCoord, _ := newServer()
	refTS := httptest.NewServer(refSrv.Handler())
	defer refTS.Close()
	defer refSrv.Close()
	refWG, refTrained, refErrs := runClients(ctx, refTS.URL)
	if err := refSrv.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < nRounds; r++ {
		if _, err := refSrv.RunRound(ctx, r); err != nil {
			t.Fatalf("reference round %d: %v", r, err)
		}
	}
	refSrv.MarkDone()
	refWG.Wait()
	for i, err := range refErrs {
		if err != nil {
			t.Fatalf("reference client %d: %v", i, err)
		}
	}

	// Interrupted arm. The clients talk to a stable URL behind which the
	// coordinator can be replaced — the HTTP analogue of a process that is
	// SIGKILLed and restarted on the same address.
	srv1, coord1, _ := newServer()
	defer srv1.Close()
	var handlerMu sync.Mutex
	live := srv1.Handler()
	outage := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "coordinator down", http.StatusServiceUnavailable)
	})
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		handlerMu.Lock()
		h := live
		handlerMu.Unlock()
		h.ServeHTTP(w, r)
	}))
	defer proxy.Close()

	wg, trained, errs := runClients(ctx, proxy.URL)
	if err := srv1.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < killAt; r++ {
		if _, err := srv1.RunRound(ctx, r); err != nil {
			t.Fatalf("pre-crash round %d: %v", r, err)
		}
	}

	// Crash between rounds: checkpoint what a -checkpoint-every run would
	// have on disk, then take the coordinator away mid-federation.
	snap, err := coord1.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	handlerMu.Lock()
	live = outage
	handlerMu.Unlock()
	// Let in-flight long polls drain on the dead server before rebuilding,
	// so every client is in its retry loop against 503s.
	time.Sleep(500 * time.Millisecond)

	// Restart: fresh hub and engine from the shared recipe, coordinator
	// restored from the checkpoint, hub seeded so the known workers are
	// already registered and the restored model is the current broadcast.
	build2, err := recipe.Builder()
	if err != nil {
		t.Fatal(err)
	}
	hub2, err := NewHub(nWorkers)
	if err != nil {
		t.Fatal(err)
	}
	engine2, err := fl.NewEngine(engCfg, build2, hub2.Workers(), rng.New(recipe.Seed).Split("netfed"),
		fl.WithWorkerTimeout(deadline))
	if err != nil {
		t.Fatal(err)
	}
	restored, err := core.RestoreCoordinatorSnapshot(snap, coordConfig(), engine2)
	if err != nil {
		t.Fatalf("restoring coordinator: %v", err)
	}
	srv2, err := NewServer(restored, hub2)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if err := hub2.Restore(snap); err != nil {
		t.Fatalf("restoring hub: %v", err)
	}
	if err := srv2.WaitReady(ctx); err != nil {
		t.Fatalf("restarted coordinator not ready: %v", err)
	}
	handlerMu.Lock()
	live = srv2.Handler()
	handlerMu.Unlock()

	if restored.NextRound() != killAt {
		t.Fatalf("restored coordinator resumes at round %d, want %d", restored.NextRound(), killAt)
	}
	for r := restored.NextRound(); r < nRounds; r++ {
		if _, err := srv2.RunRound(ctx, r); err != nil {
			t.Fatalf("post-resume round %d: %v", r, err)
		}
	}
	srv2.MarkDone()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	for i := 0; i < nWorkers; i++ {
		if trained[i] != nRounds || refTrained[i] != nRounds {
			t.Fatalf("worker %d trained %d rounds (reference %d), want %d", i, trained[i], refTrained[i], nRounds)
		}
	}

	// Bit-identical final state across the crash.
	for i := 0; i < nWorkers; i++ {
		if math.Float64bits(refCoord.Rep.Reputation(i)) != math.Float64bits(restored.Rep.Reputation(i)) {
			t.Fatalf("worker %d reputation diverged: %v vs %v", i, restored.Rep.Reputation(i), refCoord.Rep.Reputation(i))
		}
	}
	refCum, gotCum := refCoord.CumulativeRewards(), restored.CumulativeRewards()
	for i := range refCum {
		if math.Float64bits(refCum[i]) != math.Float64bits(gotCum[i]) {
			t.Fatalf("worker %d cumulative reward diverged: %v vs %v", i, gotCum[i], refCum[i])
		}
	}
	refParams, gotParams := refCoord.Engine.Params(), restored.Engine.Params()
	for i := range refParams {
		if math.Float64bits(refParams[i]) != math.Float64bits(gotParams[i]) {
			t.Fatalf("global parameter %d diverged across the crash", i)
		}
	}
	var refLedger, gotLedger bytes.Buffer
	if err := refCoord.Ledger.WriteBinary(&refLedger); err != nil {
		t.Fatal(err)
	}
	if err := restored.Ledger.WriteBinary(&gotLedger); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(refLedger.Bytes(), gotLedger.Bytes()) {
		t.Fatalf("ledger bytes diverged across the crash (%d vs %d bytes)", gotLedger.Len(), refLedger.Len())
	}
}
