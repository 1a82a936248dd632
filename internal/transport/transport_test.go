package transport

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"fifl/internal/core"
	"fifl/internal/faults"
	"fifl/internal/fl"
	"fifl/internal/gradvec"
	"fifl/internal/metrics"
	"fifl/internal/netsim"
	"fifl/internal/rng"
	"fifl/internal/transport/codec"
)

// coordConfig is the shared FIFL configuration of both arms of the
// equivalence test.
func coordConfig() core.CoordinatorConfig {
	return core.CoordinatorConfig{
		Detection:      core.Detector{Threshold: 0.02},
		Reputation:     core.DefaultReputationConfig(),
		Contribution:   core.ContributionConfig{BaselineWorker: -1},
		RewardPerRound: 1,
		RecordToLedger: true,
	}
}

// TestLoopbackFederationMatchesInProcess is the transport's acceptance
// test: a 3-worker federation over real HTTP (httptest loopback), with
// worker 2 going dark after round 0, must produce bit-identical
// reputations, rewards, statuses, global parameters and ledger to the
// in-process engine on the same seed — the in-process arm modelling the
// outage with the equivalent simulated fault (a permanent straggler from
// round 1, which the runtime also records as StatusTimedOut).
func TestLoopbackFederationMatchesInProcess(t *testing.T) {
	const (
		nWorkers = 3
		nRounds  = 3
		quorum   = 2
		deadline = 1500 * time.Millisecond
	)
	recipe := Recipe{Seed: 7, Workers: nWorkers, SamplesPerWorker: 60}
	build, err := recipe.Builder()
	if err != nil {
		t.Fatal(err)
	}
	engCfg := fl.Config{Servers: 2, GlobalLR: 0.05}
	initialServers := []int{0, 1}

	// In-process reference arm.
	refWorkers, err := recipe.AllWorkers()
	if err != nil {
		t.Fatal(err)
	}
	refEngine, err := fl.NewEngine(engCfg, build, refWorkers, rng.New(recipe.Seed).Split("netfed"),
		fl.WithQuorum(quorum),
		fl.WithFaultInjector(faults.Straggle{Worker: 2, From: 1}))
	if err != nil {
		t.Fatal(err)
	}
	refCoord, err := core.NewCoordinator(coordConfig(), refEngine, initialServers)
	if err != nil {
		t.Fatal(err)
	}
	refReports := make([]*core.RoundReport, nRounds)
	for i := 0; i < nRounds; i++ {
		if refReports[i], err = refCoord.RunRoundContext(context.Background(), i); err != nil {
			t.Fatal(err)
		}
	}

	// Networked arm: same seed, workers behind real HTTP.
	hub, err := NewHub(nWorkers)
	if err != nil {
		t.Fatal(err)
	}
	netEngine, err := fl.NewEngine(engCfg, build, hub.Workers(), rng.New(recipe.Seed).Split("netfed"),
		fl.WithQuorum(quorum),
		fl.WithWorkerTimeout(deadline))
	if err != nil {
		t.Fatal(err)
	}
	netCoord, err := core.NewCoordinator(coordConfig(), netEngine, initialServers)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(netCoord, hub)
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
		clients[i], err = DialWorker(ctx, ClientConfig{
			BaseURL:  ts.URL,
			Worker:   w,
			PollWait: 500 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("dialing worker %d: %v", i, err)
		}
	}
	if err := srv.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	trained := make([]int, nWorkers)
	clientErr := make([]error, nWorkers)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			trained[i], clientErr[i] = clients[i].Run(ctx)
		}(i)
	}
	// Worker 2's injected outage: it participates in round 0, then goes
	// dark — no goodbye, no crash report, just silence on the wire.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			ok, done, err := clients[2].RunRound(ctx)
			if err != nil || done {
				clientErr[2] = err
				return
			}
			if ok {
				trained[2] = 1
				return
			}
		}
	}()

	netReports := make([]*core.RoundReport, nRounds)
	for i := 0; i < nRounds; i++ {
		if netReports[i], err = srv.RunRound(ctx, i); err != nil {
			t.Fatalf("network round %d: %v", i, err)
		}
	}
	srv.MarkDone()
	wg.Wait()
	for i, err := range clientErr {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	if trained[0] != nRounds || trained[1] != nRounds || trained[2] != 1 {
		t.Fatalf("trained rounds = %v, want [%d %d 1]", trained, nRounds, nRounds)
	}

	// Bit-identical assessments, round by round.
	for r := 0; r < nRounds; r++ {
		ref, net := refReports[r], netReports[r]
		if ref.Committed != net.Committed {
			t.Fatalf("round %d: committed %v vs %v", r, net.Committed, ref.Committed)
		}
		for i := 0; i < nWorkers; i++ {
			if ref.Statuses[i] != net.Statuses[i] {
				t.Fatalf("round %d worker %d: status %v over the wire, %v in process", r, i, net.Statuses[i], ref.Statuses[i])
			}
			if math.Float64bits(ref.Reputations[i]) != math.Float64bits(net.Reputations[i]) {
				t.Fatalf("round %d worker %d: reputation %v over the wire, %v in process", r, i, net.Reputations[i], ref.Reputations[i])
			}
			if math.Float64bits(ref.Rewards[i]) != math.Float64bits(net.Rewards[i]) {
				t.Fatalf("round %d worker %d: reward %v over the wire, %v in process", r, i, net.Rewards[i], ref.Rewards[i])
			}
		}
	}
	// The outage must actually have surfaced as a timeout from round 1 on.
	if netReports[1].Statuses[2] != faults.StatusTimedOut || netReports[2].Statuses[2] != faults.StatusTimedOut {
		t.Fatalf("worker 2 statuses = %v, %v; want timed_out", netReports[1].Statuses[2], netReports[2].Statuses[2])
	}

	// Bit-identical global model.
	refParams, netParams := refEngine.Params(), netEngine.Params()
	for i := range refParams {
		if math.Float64bits(refParams[i]) != math.Float64bits(netParams[i]) {
			t.Fatalf("global parameter %d diverged: %v vs %v", i, netParams[i], refParams[i])
		}
	}

	// Bit-identical audit ledgers, and a clean wire-side audit.
	var refLedger, netLedger bytes.Buffer
	if err := refCoord.Ledger.WriteBinary(&refLedger); err != nil {
		t.Fatal(err)
	}
	if err := netCoord.Ledger.WriteBinary(&netLedger); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(refLedger.Bytes(), netLedger.Bytes()) {
		t.Fatal("ledger exports differ between the wire and in-process runs")
	}
	blocks, err := clients[0].VerifyLedger(ctx)
	if err != nil {
		t.Fatalf("wire-side ledger audit: %v", err)
	}
	if blocks != refCoord.Ledger.Len() {
		t.Fatalf("wire-side audit saw %d blocks, want %d", blocks, refCoord.Ledger.Len())
	}

	// The report endpoint serves the same assessment the coordinator
	// computed.
	rep, err := clients[0].FetchReport(ctx, nRounds-1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nWorkers; i++ {
		if math.Float64bits(rep.Reputations[i]) != math.Float64bits(refReports[nRounds-1].Reputations[i]) {
			t.Fatalf("report endpoint reputation %d = %v, want %v", i, rep.Reputations[i], refReports[nRounds-1].Reputations[i])
		}
		if rep.Statuses[i] != refReports[nRounds-1].Statuses[i] {
			t.Fatalf("report endpoint status %d = %v, want %v", i, rep.Statuses[i], refReports[nRounds-1].Statuses[i])
		}
	}
	if !rep.Committed {
		t.Fatal("report endpoint lost the committed flag")
	}

	// Measured wire bytes match netsim's analytic model: payload plus
	// bounded framing overhead, per worker per round.
	up, down := srv.WorkerTraffic()
	cost := netsim.Analyze(netsim.Params{Workers: nWorkers, Servers: 1, ModelDim: len(netParams)})
	for _, w := range []int{0, 1} {
		if err := checkMeasured(cost, up[w]/nRounds, down[w]/nRounds, 64); err != nil {
			t.Fatalf("worker %d traffic: %v", w, err)
		}
	}
	// Worker 2 moved exactly one round's traffic before going dark.
	if err := checkMeasured(cost, up[2], down[2], 64); err != nil {
		t.Fatalf("worker 2 traffic: %v", err)
	}
}

// TestLoopbackFloat32Mode: the negotiated compression mode halves vector
// payloads and still completes a federation (lossy, so no bit-identity —
// just a sane run).
func TestLoopbackFloat32Mode(t *testing.T) {
	recipe := Recipe{Seed: 11, Workers: 2, SamplesPerWorker: 40}
	build, err := recipe.Builder()
	if err != nil {
		t.Fatal(err)
	}
	hub, err := NewHub(2)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := fl.NewEngine(fl.Config{Servers: 1, GlobalLR: 0.05}, build, hub.Workers(),
		rng.New(recipe.Seed).Split("f32"), fl.WithWorkerTimeout(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	coord, err := core.NewCoordinator(coordConfig(), engine, []int{0})
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
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		w, err := recipe.Worker(i)
		if err != nil {
			t.Fatal(err)
		}
		c, err := DialWorker(ctx, ClientConfig{BaseURL: ts.URL, Worker: w, PollWait: 500 * time.Millisecond, Compression: codec.CompressionF32})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = c.Run(ctx)
		}(i)
	}
	rep, err := srv.RunRound(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	srv.MarkDone()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	for i, s := range rep.Statuses {
		if s != faults.StatusOK {
			t.Fatalf("worker %d status %v under float32 mode", i, s)
		}
		if math.IsNaN(rep.Reputations[i]) {
			t.Fatalf("worker %d reputation is NaN", i)
		}
	}
	up, down := srv.WorkerTraffic()
	dim := int64(len(engine.Params()))
	for i := 0; i < 2; i++ {
		if up[i] >= dim*8 || down[i] >= dim*8 {
			t.Fatalf("worker %d float32 traffic (%d up / %d down) not below the float64 payload %d", i, up[i], down[i], dim*8)
		}
	}
}

// loopbackResult captures everything a compressed loopback run produces
// that the assertions below care about.
type loopbackResult struct {
	reports  []*core.RoundReport
	params   []float64
	ledger   []byte
	up, down []int64

	denseIn, wireIn   int64
	denseOut, wireOut int64
}

// runCompressedLoopback drives a 2-worker, nRounds-round federation over
// httptest loopback with the given negotiated compression and audit
// cadence, against a private metrics registry, and returns the run's
// observable state.
func runCompressedLoopback(t *testing.T, mode codec.Compression, auditEvery, nRounds int) loopbackResult {
	t.Helper()
	const nWorkers = 2
	recipe := Recipe{Seed: 11, Workers: nWorkers, SamplesPerWorker: 40}
	build, err := recipe.Builder()
	if err != nil {
		t.Fatal(err)
	}
	hub, err := NewHub(nWorkers)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := fl.NewEngine(fl.Config{Servers: 1, GlobalLR: 0.05}, build, hub.Workers(),
		rng.New(recipe.Seed).Split("comp"), fl.WithWorkerTimeout(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	cfg := coordConfig()
	cfg.Metrics = metrics.New() // isolate the codec byte counters per run
	coord, err := core.NewCoordinator(cfg, engine, []int{0})
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
	var wg sync.WaitGroup
	errs := make([]error, nWorkers)
	for i := 0; i < nWorkers; i++ {
		w, err := recipe.Worker(i)
		if err != nil {
			t.Fatal(err)
		}
		c, err := DialWorker(ctx, ClientConfig{
			BaseURL:     ts.URL,
			Worker:      w,
			PollWait:    500 * time.Millisecond,
			Compression: mode,
			AuditEvery:  auditEvery,
		})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = c.Run(ctx)
		}(i)
	}
	res := loopbackResult{reports: make([]*core.RoundReport, nRounds)}
	for r := 0; r < nRounds; r++ {
		if res.reports[r], err = srv.RunRound(ctx, r); err != nil {
			t.Fatalf("round %d under %s: %v", r, mode, err)
		}
	}
	srv.MarkDone()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d under %s: %v", i, mode, err)
		}
	}
	res.params = append([]float64(nil), engine.Params()...)
	var buf bytes.Buffer
	if err := coord.Ledger.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	res.ledger = buf.Bytes()
	res.up, res.down = srv.WorkerTraffic()
	reg := coord.Metrics()
	res.denseIn = reg.Counter("fifl_codec_dense_bytes_total", "direction", "in").Value()
	res.wireIn = reg.Counter("fifl_codec_wire_bytes_total", "direction", "in").Value()
	res.denseOut = reg.Counter("fifl_codec_dense_bytes_total", "direction", "out").Value()
	res.wireOut = reg.Counter("fifl_codec_wire_bytes_total", "direction", "out").Value()
	return res
}

// TestLoopbackCompressedModes: each lossy frame format completes a real
// HTTP federation and moves strictly fewer wire bytes than the dense
// float64 equivalent the metrics record alongside — in both directions.
func TestLoopbackCompressedModes(t *testing.T) {
	for _, mode := range []codec.Compression{codec.CompressionTopK, codec.CompressionInt8, codec.CompressionInt16} {
		t.Run(mode.String(), func(t *testing.T) {
			res := runCompressedLoopback(t, mode, 0, 2)
			for _, rep := range res.reports {
				for i, s := range rep.Statuses {
					if s != faults.StatusOK {
						t.Fatalf("worker %d status %v under %s", i, s, mode)
					}
					if math.IsNaN(rep.Reputations[i]) {
						t.Fatalf("worker %d reputation is NaN under %s", i, mode)
					}
				}
			}
			if res.denseIn == 0 || res.denseOut == 0 {
				t.Fatalf("dense byte counters empty (in=%d out=%d) — metrics not wired", res.denseIn, res.denseOut)
			}
			if res.wireIn >= res.denseIn {
				t.Fatalf("%s uploads: wire bytes %d not below dense equivalent %d", mode, res.wireIn, res.denseIn)
			}
			if res.wireOut >= res.denseOut {
				t.Fatalf("%s model downloads: wire bytes %d not below dense equivalent %d", mode, res.wireOut, res.denseOut)
			}
			dim := int64(len(res.params))
			for i := range res.up {
				if res.up[i] >= 2*dim*8 || res.down[i] >= 2*dim*8 {
					t.Fatalf("worker %d %s traffic (%d up / %d down over 2 rounds) not below the float64 payload %d", i, mode, res.up[i], res.down[i], 2*dim*8)
				}
			}
		})
	}
}

// TestLoopbackAuditEscapeHatch: with AuditEvery=1 every round rides dense
// lossless frames regardless of the negotiated lossy mode, so the whole
// run — reputations, rewards, global model, ledger — is bit-identical to
// an uncompressed federation on the same seed. This is the audit escape
// hatch: flip one client knob and the wire introduces no arithmetic
// difference at all.
func TestLoopbackAuditEscapeHatch(t *testing.T) {
	const nRounds = 3
	dense := runCompressedLoopback(t, codec.CompressionNone, 0, nRounds)
	audited := runCompressedLoopback(t, codec.CompressionInt8, 1, nRounds)

	for r := 0; r < nRounds; r++ {
		ref, got := dense.reports[r], audited.reports[r]
		for i := range ref.Reputations {
			if math.Float64bits(ref.Reputations[i]) != math.Float64bits(got.Reputations[i]) {
				t.Fatalf("round %d worker %d: audit-round reputation %v, dense %v", r, i, got.Reputations[i], ref.Reputations[i])
			}
			if math.Float64bits(ref.Rewards[i]) != math.Float64bits(got.Rewards[i]) {
				t.Fatalf("round %d worker %d: audit-round reward %v, dense %v", r, i, got.Rewards[i], ref.Rewards[i])
			}
		}
	}
	for i := range dense.params {
		if math.Float64bits(dense.params[i]) != math.Float64bits(audited.params[i]) {
			t.Fatalf("global parameter %d diverged under the audit escape hatch: %v vs %v", i, audited.params[i], dense.params[i])
		}
	}
	if !bytes.Equal(dense.ledger, audited.ledger) {
		t.Fatal("audit ledger differs between the dense run and the AuditEvery=1 run")
	}
	// Dense frames carry framing overhead on top of the payload, so the
	// wire counters must not undercut the dense equivalent here.
	if audited.wireIn < audited.denseIn || audited.wireOut < audited.denseOut {
		t.Fatalf("audit rounds reported lossy savings (in %d/%d, out %d/%d) — they should be dense",
			audited.wireIn, audited.denseIn, audited.wireOut, audited.denseOut)
	}
}

// TestServerValidation: the server refuses configurations whose remote
// workers could block a round forever.
func TestServerValidation(t *testing.T) {
	recipe := Recipe{Seed: 3, Workers: 2, SamplesPerWorker: 20}
	build, err := recipe.Builder()
	if err != nil {
		t.Fatal(err)
	}
	hub, err := NewHub(2)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := fl.NewEngine(fl.Config{Servers: 1, GlobalLR: 0.05}, build, hub.Workers(), rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	coord, err := core.NewCoordinator(coordConfig(), engine, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewServer(coord, hub); err == nil {
		t.Fatal("NewServer accepted an engine without a worker timeout")
	}
	if _, err := NewServer(nil, hub); err == nil {
		t.Fatal("NewServer accepted a nil coordinator")
	}
	if _, err := NewHub(0); err == nil {
		t.Fatal("NewHub accepted an empty federation")
	}
}

// TestHubSubmissionHygiene: the hub rejects the whole taxonomy of bad
// submissions — each one simply never arrives, which the engine's
// deadline resolves to a timeout.
func TestHubSubmissionHygiene(t *testing.T) {
	hub, err := NewHub(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := hub.hello(5, 10); err == nil {
		t.Fatal("hello outside the federation accepted")
	}
	if err := hub.hello(0, 0); err == nil {
		t.Fatal("hello with zero samples accepted")
	}
	if err := hub.hello(0, 10); err != nil {
		t.Fatal(err)
	}
	if err := hub.hello(0, 10); err != nil {
		t.Fatalf("idempotent re-hello rejected: %v", err)
	}
	if err := hub.hello(0, 99); err == nil {
		t.Fatal("re-hello with different samples accepted")
	}
	if _, err := hub.submit(0, 0, 10, make([]float64, 4)); err == nil {
		t.Fatal("submission before any published round accepted")
	}
	hub.publish(0, []float64{1, 2, 3, 4})
	if _, err := hub.submit(0, 1, 10, make([]float64, 4)); err == nil {
		t.Fatal("submission before hello accepted")
	}
	if err := hub.hello(1, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := hub.submit(0, 0, 99, make([]float64, 4)); err == nil {
		t.Fatal("submission with inconsistent samples accepted")
	}
	if _, err := hub.submit(0, 0, 10, make([]float64, 3)); err == nil {
		t.Fatal("submission with wrong dimension accepted")
	}
	fresh, err := hub.submit(0, 0, 10, make([]float64, 4))
	if err != nil {
		t.Fatal(err)
	}
	if !fresh {
		t.Fatal("first submission not reported fresh")
	}
	fresh, err = hub.submit(0, 0, 10, make([]float64, 4))
	if err != nil {
		t.Fatalf("byte-identical duplicate rejected: %v", err)
	}
	if fresh {
		t.Fatal("idempotent replay reported fresh")
	}
	if _, err := hub.submit(0, 0, 10, []float64{9, 9, 9, 9}); err == nil {
		t.Fatal("conflicting duplicate submission accepted")
	}
	if g := hub.await(0, 0); len(g) != 4 {
		t.Fatalf("await returned %v", g)
	}
	hub.publish(1, []float64{1, 2, 3, 4})
	// The previous round's mailbox survives one round boundary so a client
	// that lost the 204 can still replay its accepted upload...
	if fresh, err := hub.submit(0, 0, 10, make([]float64, 4)); err != nil || fresh {
		t.Fatalf("cross-round idempotent replay: fresh=%v err=%v", fresh, err)
	}
	// ...but a genuinely new stale-round submission is still rejected.
	if _, err := hub.submit(0, 1, 10, make([]float64, 4)); err == nil {
		t.Fatal("stale-round submission accepted")
	}
	hub.publish(2, []float64{1, 2, 3, 4})
	hub.publish(3, []float64{1, 2, 3, 4})
	if _, err := hub.submit(0, 0, 10, make([]float64, 4)); err == nil {
		t.Fatal("replay two rounds stale accepted (mailbox should be dropped)")
	}
	hub.Close()
	if _, err := hub.submit(3, 0, 10, make([]float64, 4)); err == nil {
		t.Fatal("submission after close accepted")
	}
	if g := hub.await(1, 1); g != nil {
		t.Fatal("await after close should return nil")
	}
}

// TestAbandonedStubsReleasedOnPublish: workers that stay silent past the
// engine's deadline leave stubs behind, and each must be released when the
// next round is published — its goroutine, its wait entry and the round's
// parameter copy — instead of parking until Close. A stub that reaches
// await only after its round was superseded returns at once.
func TestAbandonedStubsReleasedOnPublish(t *testing.T) {
	const nWorkers, rounds = 2, 50
	recipe := Recipe{Seed: 3, Workers: nWorkers, SamplesPerWorker: 40}
	build, err := recipe.Builder()
	if err != nil {
		t.Fatal(err)
	}
	hub, err := NewHub(nWorkers)
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	for id := 0; id < nWorkers; id++ {
		if err := hub.hello(id, 40); err != nil {
			t.Fatal(err)
		}
	}
	engine, err := fl.NewEngine(fl.Config{Servers: 1, GlobalLR: 0.05}, build, hub.Workers(),
		rng.New(recipe.Seed).Split("silent"), fl.WithWorkerTimeout(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	for r := 0; r < rounds; r++ {
		rr, err := engine.CollectGradientsContext(context.Background(), r)
		if err != nil {
			t.Fatal(err)
		}
		for id, st := range rr.Status {
			if st != faults.StatusTimedOut {
				t.Fatalf("round %d: silent worker %d has status %s", r, id, st)
			}
		}
	}
	hub.mu.Lock()
	waits := len(hub.wait)
	hub.mu.Unlock()
	if waits > nWorkers {
		t.Fatalf("%d wait entries after %d silent rounds, want at most the last round's %d", waits, rounds, nWorkers)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base+nWorkers {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after %d silent rounds, started with %d", runtime.NumGoroutine(), rounds, base)
		}
		time.Sleep(5 * time.Millisecond)
	}

	done := make(chan gradvec.Vector)
	go func() { done <- hub.await(rounds-2, 0) }()
	select {
	case g := <-done:
		if g != nil {
			t.Fatalf("await on a superseded round returned %v", g)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("await on a superseded round blocked")
	}
}

// checkMeasured validates measured per-worker wire traffic against the
// analytic model: a real transport must move at least the analytic payload
// (the gradient up, the model down) and at most maxOverhead bytes more per
// direction (framing headers, length prefixes, checksums). Fed the
// coordinator's actual byte counters, it closes the loop between the
// traffic netsim predicts and the bytes a live federation moves.
func checkMeasured(c netsim.RoundCost, perWorkerUp, perWorkerDown, maxOverhead int64) error {
	if maxOverhead < 0 {
		return fmt.Errorf("netsim: negative overhead budget %d", maxOverhead)
	}
	if perWorkerUp < c.PerWorkerUp || perWorkerUp > c.PerWorkerUp+maxOverhead {
		return fmt.Errorf("netsim: measured upload of %d B/worker/round outside analytic range [%d, %d]",
			perWorkerUp, c.PerWorkerUp, c.PerWorkerUp+maxOverhead)
	}
	if perWorkerDown < c.PerWorkerDown || perWorkerDown > c.PerWorkerDown+maxOverhead {
		return fmt.Errorf("netsim: measured download of %d B/worker/round outside analytic range [%d, %d]",
			perWorkerDown, c.PerWorkerDown, c.PerWorkerDown+maxOverhead)
	}
	return nil
}

func TestCheckMeasured(t *testing.T) {
	c := netsim.Analyze(netsim.Params{Workers: 3, Servers: 1, ModelDim: 100})
	// Exact payload, and payload + framing overhead, both pass.
	if err := checkMeasured(c, c.PerWorkerUp, c.PerWorkerDown, 64); err != nil {
		t.Fatalf("exact payload rejected: %v", err)
	}
	if err := checkMeasured(c, c.PerWorkerUp+28, c.PerWorkerDown+20, 64); err != nil {
		t.Fatalf("framed payload rejected: %v", err)
	}
	// Less than the payload means bytes went missing.
	if err := checkMeasured(c, c.PerWorkerUp-1, c.PerWorkerDown, 64); err == nil {
		t.Fatal("under-measured upload accepted")
	}
	// More than payload + budget means the wire is wasting bandwidth.
	if err := checkMeasured(c, c.PerWorkerUp, c.PerWorkerDown+65, 64); err == nil {
		t.Fatal("over-measured download accepted")
	}
	if err := checkMeasured(c, c.PerWorkerUp, c.PerWorkerDown, -1); err == nil {
		t.Fatal("negative overhead budget accepted")
	}
}
