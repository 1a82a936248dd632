package transport

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"fifl/internal/chain"
	"fifl/internal/core"
	"fifl/internal/faults"
	"fifl/internal/fl"
	"fifl/internal/metrics"
	"fifl/internal/rng"
	"fifl/internal/transport/codec"
)

// TestAsyncLoopbackFederationWithStraggler is the tentpole's wire
// acceptance test: a 3-worker federation over real HTTP in async mode,
// where workers 0 and 1 submit promptly while worker 2 trains against the
// round-0 broadcast and delivers its upload only after the model has
// advanced past the staleness bound. The late upload must be accepted at
// the door (any-time submit), rejected by the bounded-staleness rule
// (StatusStale), priced as a negative reputation event on the ledger, and
// the fresh workers must keep converging and earning.
func TestAsyncLoopbackFederationWithStraggler(t *testing.T) {
	const (
		nWorkers     = 3
		nRounds      = 5
		maxStaleness = 1
	)
	recipe := Recipe{Seed: 13, Workers: nWorkers, SamplesPerWorker: 60}
	build, err := recipe.Builder()
	if err != nil {
		t.Fatal(err)
	}
	hub, err := NewHub(nWorkers)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := fl.NewEngine(fl.Config{Servers: 2, GlobalLR: 0.05}, build, hub.Workers(),
		rng.New(recipe.Seed).Split("asyncfed"),
		fl.WithWorkerTimeout(2*time.Second), fl.WithMetrics(metrics.New()))
	if err != nil {
		t.Fatal(err)
	}
	col, err := NewAsyncCollector(hub, engine, AsyncConfig{
		MaxStaleness:    maxStaleness,
		AdvanceEvery:    2, // workers 0 and 1 drive the cadence
		AdvanceInterval: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	coord, err := core.NewCoordinator(coordConfig(), engine, []int{0, 1}, core.WithCollector(col))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(coord, hub)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	clients := make([]*Client, nWorkers)
	for i := 0; i < nWorkers; i++ {
		w, err := recipe.Worker(i)
		if err != nil {
			t.Fatal(err)
		}
		clients[i], err = DialWorker(ctx, ClientConfig{BaseURL: ts.URL, Worker: w, PollWait: 500 * time.Millisecond})
		if err != nil {
			t.Fatalf("dialing worker %d: %v", i, err)
		}
	}
	if err := srv.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	clientErr := make([]error, nWorkers)
	// The prompt workers start only once the straggler holds the round-0
	// model (pulled), and the driver holds the last advance back until the
	// straggler's submit has returned (posted): the test then does not
	// depend on how the goroutines are scheduled.
	pulled, posted := make(chan struct{}), make(chan struct{})
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			select {
			case <-pulled:
				_, clientErr[i] = clients[i].Run(ctx)
			case <-ctx.Done():
				clientErr[i] = ctx.Err()
			}
		}(i)
	}
	// Worker 2 is the injected straggler: it pulls the round-0 model,
	// trains honestly, then sits on the finished upload until the
	// federation has advanced past the staleness bound.
	pullModel := func() (codec.Model, error) {
		resp, err := http.Get(ts.URL + "/v1/model?after=-1&wait=10000")
		if err != nil {
			return codec.Model{}, err
		}
		body := new(bytes.Buffer)
		_, err = body.ReadFrom(resp.Body)
		resp.Body.Close()
		if err != nil {
			return codec.Model{}, err
		}
		return codec.DecodeModel(body.Bytes())
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(posted)
		m, err := pullModel()
		close(pulled)
		if err != nil {
			clientErr[2] = err
			return
		}
		if m.Round != 0 {
			clientErr[2] = fmt.Errorf("straggler pulled the round-%d model, want round 0", m.Round)
			return
		}
		w, err := recipe.Worker(2)
		if err != nil {
			clientErr[2] = err
			return
		}
		grad := w.LocalTrain(m.Round, m.Params)
		for {
			if r, _, _ := hub.model(); r >= m.Round+maxStaleness+2 {
				break
			}
			select {
			case <-ctx.Done():
				clientErr[2] = ctx.Err()
				return
			case <-time.After(5 * time.Millisecond):
			}
		}
		frame, err := codec.EncodeUpload(codec.Upload{
			Round: m.Round, Worker: 2, Samples: w.NumSamples(), Grad: grad,
		}, codec.CompressionNone)
		if err != nil {
			clientErr[2] = err
			return
		}
		post, err := http.Post(ts.URL+"/v1/round/submit", "application/octet-stream", bytes.NewReader(frame))
		if err != nil {
			clientErr[2] = err
			return
		}
		post.Body.Close()
		if post.StatusCode != http.StatusNoContent {
			clientErr[2] = errStatus(post.StatusCode)
		}
	}()

	initial := append([]float64(nil), engine.Params()...)
	reports := make([]*core.RoundReport, nRounds)
	for i := 0; i < nRounds; i++ {
		if i == nRounds-1 {
			// The straggler submits once the model round passes the bound,
			// where the earlier advances have already taken it; without
			// this wait the remaining advances can all finish before its
			// POST lands.
			select {
			case <-posted:
			case <-ctx.Done():
				t.Fatalf("straggler never submitted: %v", ctx.Err())
			}
		}
		if reports[i], err = srv.RunRound(ctx, i); err != nil {
			t.Fatalf("async round %d: %v", i, err)
		}
	}
	srv.MarkDone()
	wg.Wait()
	for i, err := range clientErr {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}

	// Every advance committed, and worker 2 progressed from pending to a
	// rejected stale fold exactly once.
	staleRound := -1
	for r, rep := range reports {
		if !rep.Committed {
			t.Fatalf("advance %d did not commit", r)
		}
		if rep.Staleness == nil {
			t.Fatalf("advance %d carries no staleness metadata", r)
		}
		switch rep.Statuses[2] {
		case faults.StatusPending:
		case faults.StatusStale:
			if staleRound >= 0 {
				t.Fatalf("worker 2 stale in advances %d and %d, want once", staleRound, r)
			}
			staleRound = r
			if s := rep.Staleness[2]; s <= maxStaleness {
				t.Fatalf("advance %d: worker 2 rejected at staleness %d <= bound %d", r, s, maxStaleness)
			}
		default:
			t.Fatalf("advance %d: worker 2 status %v, want pending or stale", r, rep.Statuses[2])
		}
	}
	if staleRound < 0 {
		t.Fatal("the over-bound upload was never folded as stale")
	}

	// The rejection is an Eq. 8–10 negative event: the stale advance wrote
	// worker 2's reputation to the ledger, and its balance ends below the
	// prompt workers'.
	if recs := coord.Ledger.Query(chain.KindReputation, staleRound, 2); len(recs) == 0 {
		t.Fatalf("no reputation record on the ledger for worker 2 in advance %d", staleRound)
	}
	if rw := reports[staleRound].Rewards[2]; rw > 0 {
		t.Fatalf("rejected stale upload was paid %v", rw)
	}
	// Eq. 8–10 event classes: the stale advance is a negative event
	// (arrived but rejected, not uncertain); the pending advances before it
	// are uncertain events, exactly like sync-mode timeouts.
	det := reports[staleRound].Detection
	if det.Accept[2] || det.Uncertain[2] {
		t.Fatalf("stale upload classified accept=%v uncertain=%v, want a negative event", det.Accept[2], det.Uncertain[2])
	}
	for r := 0; r < staleRound; r++ {
		if !reports[r].Detection.Uncertain[2] {
			t.Fatalf("pending advance %d not classified as an uncertain event", r)
		}
	}

	// The prompt workers kept training: the global model moved.
	moved := false
	for i, p := range engine.Params() {
		if p != initial[i] {
			moved = true
			break
		}
	}
	if !moved {
		t.Fatal("global parameters never advanced")
	}
	if err := coord.Ledger.Verify(); err != nil {
		t.Fatalf("async ledger failed verification: %v", err)
	}
}

// errStatus converts an unexpected HTTP status into an error.
type errStatus int

func (e errStatus) Error() string { return "unexpected HTTP status " + http.StatusText(int(e)) }
