package transport

import (
	"bytes"
	"context"
	"errors"
	"net/http/httptest"
	"testing"
	"time"

	"fifl/internal/chain"
	"fifl/internal/core"
	"fifl/internal/fl"
	"fifl/internal/persist"
	"fifl/internal/rng"
)

// waitPending polls until at least n membership requests are queued on
// the server — the test's stand-in for "the handshake reached the wire".
func waitPending(t *testing.T, srv *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		srv.mu.Lock()
		pending := len(srv.joins) + len(srv.leaves)
		srv.mu.Unlock()
		if pending >= n {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("membership queue never reached %d requests", n)
}

// elasticNet assembles a loopback federation whose recipe reserves extra
// partitions for joiners: nActive workers are live, recipe.Workers bounds
// the identities the data supports.
type elasticNet struct {
	recipe Recipe
	hub    *Hub
	coord  *core.Coordinator
	srv    *Server
	ts     *httptest.Server
}

func newElasticNet(t *testing.T, nActive, nTotal int) *elasticNet {
	t.Helper()
	recipe := Recipe{Seed: 11, Workers: nTotal, SamplesPerWorker: 60}
	build, err := recipe.Builder()
	if err != nil {
		t.Fatal(err)
	}
	hub, err := NewHub(nActive)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := fl.NewEngine(fl.Config{Servers: 2, GlobalLR: 0.05}, build, hub.Workers(),
		rng.New(recipe.Seed).Split("netfed"), fl.WithWorkerTimeout(3*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	coord, err := core.NewCoordinator(coordConfig(), engine, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(coord, hub)
	if err != nil {
		t.Fatal(err)
	}
	n := &elasticNet{recipe: recipe, hub: hub, coord: coord, srv: srv, ts: httptest.NewServer(srv.Handler())}
	t.Cleanup(func() {
		n.srv.Close()
		n.ts.Close()
	})
	return n
}

func (n *elasticNet) dial(t *testing.T, ctx context.Context, id int) *Client {
	t.Helper()
	w, err := n.recipe.Worker(id)
	if err != nil {
		t.Fatal(err)
	}
	c, err := DialWorker(ctx, ClientConfig{BaseURL: n.ts.URL, Worker: w, PollWait: 500 * time.Millisecond})
	if err != nil {
		t.Fatalf("dialing worker %d: %v", id, err)
	}
	return c
}

// TestElasticMembershipOverHTTP drives a join and a leave end to end over
// real HTTP: a fourth worker joins after round 1 via the /v1/join
// handshake and is paid from round 2 on; worker 1 leaves after round 3
// and rounds 4–5 run over the shrunk cohort.
func TestElasticMembershipOverHTTP(t *testing.T) {
	const rounds = 6
	net := newElasticNet(t, 3, 4)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	clients := make([]*Client, 3)
	for i := range clients {
		clients[i] = net.dial(t, ctx, i)
	}
	if err := net.srv.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}
	runErrs := make([]chan error, 4)
	w1ctx, w1cancel := context.WithCancel(ctx)
	defer w1cancel()
	for i, c := range clients {
		c, cctx := c, ctx
		if i == 1 {
			cctx = w1ctx
		}
		runErrs[i] = make(chan error, 1)
		ch := runErrs[i]
		go func() {
			_, err := c.Run(cctx)
			ch <- err
		}()
	}

	reports := make([]*core.RoundReport, rounds)
	run := func(r int) {
		t.Helper()
		rep, err := net.srv.RunRound(ctx, r)
		if err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		reports[r] = rep
	}
	run(0)
	run(1)

	// A fourth participant joins over the wire between rounds 1 and 2.
	type joinOutcome struct {
		id  int
		err error
	}
	joined := make(chan joinOutcome, 1)
	runErrs[3] = make(chan error, 1)
	go func() {
		id, err := JoinFederation(ctx, net.ts.URL, net.recipe.SamplesPerWorker)
		joined <- joinOutcome{id: id, err: err}
		if err != nil {
			runErrs[3] <- nil
			return
		}
		c := net.dial(t, ctx, id)
		_, err = c.Run(ctx)
		runErrs[3] <- err
	}()
	waitPending(t, net.srv, 1)
	if got := net.srv.ProcessMembership(); got != 1 {
		t.Fatalf("ProcessMembership applied %d changes, want 1", got)
	}
	jo := <-joined
	if jo.err != nil {
		t.Fatalf("join handshake: %v", jo.err)
	}
	if jo.id != 3 {
		t.Fatalf("joiner assigned worker ID %d, want 3", jo.id)
	}
	run(2)
	run(3)

	// Worker 1 leaves over the wire between rounds 3 and 4: its run loop
	// stops, then the leave handshake blocks until the boundary.
	w1cancel()
	<-runErrs[1]
	leaveDone := make(chan error, 1)
	go func() { leaveDone <- clients[1].Leave(ctx) }()
	waitPending(t, net.srv, 1)
	if got := net.srv.ProcessMembership(); got != 1 {
		t.Fatalf("ProcessMembership applied %d changes, want 1", got)
	}
	if err := <-leaveDone; err != nil {
		t.Fatalf("leave handshake: %v", err)
	}
	run(4)
	run(5)
	net.srv.Close()
	for _, i := range []int{0, 2, 3} {
		if err := <-runErrs[i]; err != nil {
			t.Fatalf("worker %d run loop: %v", i, err)
		}
	}

	wantIDs := map[int][]int{0: {0, 1, 2}, 2: {0, 1, 2, 3}, 4: {0, 2, 3}}
	for r, want := range wantIDs {
		got := reports[r].WorkerIDs
		if len(got) != len(want) {
			t.Fatalf("round %d cohort %v, want %v", r, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("round %d cohort %v, want %v", r, got, want)
			}
		}
	}
	// The joiner's assessments reached the ledger under its stable ID.
	if recs := net.coord.Ledger.Query(chain.KindReward, 2, 3); len(recs) != 1 {
		t.Fatalf("joiner has %d reward records for round 2, want 1", len(recs))
	}
	// The leaver's identity (and its rewards) survive its departure.
	if got := len(net.coord.CumulativeRewards()); got != 4 {
		t.Fatalf("cumulative rewards cover %d identities, want 4", got)
	}
	if st, _ := net.coord.Members().State(1); st != core.StateDeparted {
		t.Fatalf("leaver state %v, want departed", st)
	}
}

// TestBannedWorkerRefusedOverHTTP is satellite 3's wire half, including
// the checkpoint leg: an identity evicted before the kill must be refused
// re-admission with 403/ErrBanned both on the live server and on a server
// restored from the checkpoint.
func TestBannedWorkerRefusedOverHTTP(t *testing.T) {
	net := newElasticNet(t, 4, 5)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	clients := make([]*Client, 4)
	for i := range clients {
		clients[i] = net.dial(t, ctx, i)
	}
	if err := net.srv.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}
	ctxs := make([]context.CancelFunc, 4)
	runDone := make([]chan error, 4)
	for i, c := range clients {
		c := c
		cctx, ccancel := context.WithCancel(ctx)
		ctxs[i] = ccancel
		runDone[i] = make(chan error, 1)
		ch := runDone[i]
		go func() {
			_, err := c.Run(cctx)
			ch <- err
		}()
	}
	if _, err := net.srv.RunRound(ctx, 0); err != nil {
		t.Fatal(err)
	}

	// Evict worker 3 between rounds; its submissions and rejoin attempts
	// are refused from here on.
	ctxs[3]()
	<-runDone[3]
	if err := net.srv.EvictWorker(3); err != nil {
		t.Fatal(err)
	}
	if _, err := net.srv.RunRound(ctx, 1); err != nil {
		t.Fatal(err)
	}
	rejoinDone := make(chan error, 1)
	go func() {
		rejoinDone <- RejoinFederation(ctx, net.ts.URL, 3, net.recipe.SamplesPerWorker)
	}()
	waitPending(t, net.srv, 1)
	if got := net.srv.ProcessMembership(); got != 0 {
		t.Fatalf("banned rejoin applied %d changes, want 0", got)
	}
	if err := <-rejoinDone; !errors.Is(err, core.ErrBanned) {
		t.Fatalf("banned rejoin over HTTP: %v, want ErrBanned", err)
	}

	// Checkpoint, tear the federation down, restore a fresh server from
	// the snapshot, and prove the ban carried over the kill.
	var ckpt bytes.Buffer
	if err := net.coord.Checkpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	net.srv.Close()
	for _, i := range []int{0, 1, 2} {
		<-runDone[i]
	}
	net.ts.Close()

	snap, err := persist.Read(bytes.NewReader(ckpt.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	hub2, err := NewHub(len(snap.Reputations))
	if err != nil {
		t.Fatal(err)
	}
	if err := hub2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	stubs, err := hub2.WorkersFor(snap.ActiveCohort)
	if err != nil {
		t.Fatal(err)
	}
	build, err := net.recipe.Builder()
	if err != nil {
		t.Fatal(err)
	}
	engine2, err := fl.NewEngine(fl.Config{Servers: 2, GlobalLR: 0.05}, build, stubs,
		rng.New(net.recipe.Seed).Split("netfed"), fl.WithWorkerTimeout(3*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	coord2, err := core.RestoreCoordinatorSnapshot(snap, coordConfig(), engine2)
	if err != nil {
		t.Fatal(err)
	}
	srv2, err := NewServer(coord2, hub2)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	defer srv2.Close()
	if st, _ := coord2.Members().State(3); st != core.StateBanned {
		t.Fatalf("restored state for the evicted worker is %v, want banned", st)
	}
	rejoinDone2 := make(chan error, 1)
	go func() {
		rejoinDone2 <- RejoinFederation(ctx, ts2.URL, 3, net.recipe.SamplesPerWorker)
	}()
	waitPending(t, srv2, 1)
	if got := srv2.ProcessMembership(); got != 0 {
		t.Fatalf("banned rejoin after restore applied %d changes, want 0", got)
	}
	if err := <-rejoinDone2; !errors.Is(err, core.ErrBanned) {
		t.Fatalf("banned rejoin after restore: %v, want ErrBanned", err)
	}
	// A brand-new identity is still welcome on the restored server.
	joinDone := make(chan error, 1)
	go func() {
		id, err := JoinFederation(ctx, ts2.URL, net.recipe.SamplesPerWorker)
		if err == nil && id != len(snap.Reputations) {
			err = errors.New("unexpected joiner ID")
		}
		joinDone <- err
	}()
	waitPending(t, srv2, 1)
	if got := srv2.ProcessMembership(); got != 1 {
		t.Fatalf("fresh join after restore applied %d changes, want 1", got)
	}
	if err := <-joinDone; err != nil {
		t.Fatalf("fresh join after restore: %v", err)
	}
}
