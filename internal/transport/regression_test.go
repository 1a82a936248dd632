package transport

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fifl/internal/core"
	"fifl/internal/faults"
	"fifl/internal/fl"
	"fifl/internal/metrics"
	"fifl/internal/rng"
)

// submitDropper is a RoundTripper that lets every request through to the
// server but "loses" the 204 of each distinct POST /v1/round/submit body
// the first time it is seen — the lost-acknowledgement failure: the server
// accepted the frame, the client never learned. Every submission is thus
// forced through one retry, which the hub must absorb as an idempotent
// replay.
type submitDropper struct {
	base http.RoundTripper

	mu    sync.Mutex
	seen  map[string]bool
	drops int
}

func newSubmitDropper(base http.RoundTripper) *submitDropper {
	return &submitDropper{base: base, seen: make(map[string]bool)}
}

func (d *submitDropper) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := d.base.RoundTrip(req)
	if err != nil || req.Method != http.MethodPost || req.URL.Path != "/v1/round/submit" ||
		resp.StatusCode != http.StatusNoContent || req.GetBody == nil {
		return resp, err
	}
	rc, berr := req.GetBody()
	if berr != nil {
		return resp, err
	}
	body, berr := io.ReadAll(rc)
	rc.Close()
	if berr != nil {
		return resp, err
	}
	d.mu.Lock()
	first := !d.seen[string(body)]
	d.seen[string(body)] = true
	if first {
		d.drops++
	}
	d.mu.Unlock()
	if first {
		resp.Body.Close()
		return nil, fmt.Errorf("synthetic fault: 204 lost on the wire")
	}
	return resp, nil
}

// loopbackRun is one complete 2-worker federation over httptest loopback.
type loopbackRun struct {
	reports []*core.RoundReport
	params  []float64
	up      []int64
	down    []int64
	reg     *metrics.Registry
	metaURL string // the test server's base URL, alive until test cleanup
}

// runLoopback drives a clean 2-worker, nRounds federation over real HTTP
// into its own metrics registry. wrap, when non-nil, replaces worker i's
// HTTP transport (the fault-injection hook).
func runLoopback(t *testing.T, seed uint64, nRounds int, wrap func(worker int, base http.RoundTripper) http.RoundTripper) *loopbackRun {
	t.Helper()
	const nWorkers = 2
	recipe := Recipe{Seed: seed, Workers: nWorkers, SamplesPerWorker: 40}
	build, err := recipe.Builder()
	if err != nil {
		t.Fatal(err)
	}
	hub, err := NewHub(nWorkers)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.New()
	engine, err := fl.NewEngine(fl.Config{Servers: 1, GlobalLR: 0.05}, build, hub.Workers(),
		rng.New(recipe.Seed).Split("regress"),
		fl.WithWorkerTimeout(10*time.Second), fl.WithMetrics(reg))
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
	t.Cleanup(ts.Close)
	t.Cleanup(srv.Close)

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	var wg sync.WaitGroup
	errs := make([]error, nWorkers)
	for i := 0; i < nWorkers; i++ {
		w, err := recipe.Worker(i)
		if err != nil {
			t.Fatal(err)
		}
		cfg := ClientConfig{BaseURL: ts.URL, Worker: w, PollWait: 500 * time.Millisecond, Metrics: reg}
		if wrap != nil {
			cfg.HTTPClient = &http.Client{Transport: wrap(i, http.DefaultTransport), Timeout: time.Minute}
		}
		c, err := DialWorker(ctx, cfg)
		if err != nil {
			t.Fatalf("dialing worker %d: %v", i, err)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = c.Run(ctx)
		}(i)
	}
	if err := srv.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}
	reports := make([]*core.RoundReport, nRounds)
	for r := 0; r < nRounds; r++ {
		if reports[r], err = srv.RunRound(ctx, r); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
	}
	srv.MarkDone()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	up, down := srv.WorkerTraffic()
	return &loopbackRun{
		reports: reports,
		params:  engine.Params(),
		up:      up,
		down:    down,
		reg:     reg,
		metaURL: ts.URL,
	}
}

// TestRetriedSubmitIdempotent: a client whose every submit acknowledgement
// is lost once (hello and all uploads) must complete the federation
// bit-identically to an undisturbed run on the same seed — replays are
// absorbed, never double-counted, and every status stays OK. This is the
// regression test for the duplicate-submission 409 on retry after a lost
// 204.
func TestRetriedSubmitIdempotent(t *testing.T) {
	const nRounds = 2
	clean := runLoopback(t, 21, nRounds, nil)

	var dropper *submitDropper
	lossy := runLoopback(t, 21, nRounds, func(worker int, base http.RoundTripper) http.RoundTripper {
		if worker != 0 {
			return base
		}
		dropper = newSubmitDropper(base)
		return dropper
	})

	// Worker 0 lost one hello ack and one ack per round's upload.
	dropper.mu.Lock()
	drops := dropper.drops
	dropper.mu.Unlock()
	if want := 1 + nRounds; drops != want {
		t.Fatalf("dropper lost %d acknowledgements, want %d", drops, want)
	}
	// The server saw each upload replay exactly once (hello replays are
	// absorbed by the hub's idempotent hello, not counted here).
	if got := lossy.reg.Snapshot().CounterValue("fifl_transport_submit_replays_total"); got != nRounds {
		t.Fatalf("replay counter = %d, want %d", got, nRounds)
	}

	for r := 0; r < nRounds; r++ {
		ref, got := clean.reports[r], lossy.reports[r]
		if ref.Committed != got.Committed {
			t.Fatalf("round %d: committed %v vs %v", r, got.Committed, ref.Committed)
		}
		for i := range ref.Statuses {
			if got.Statuses[i] != faults.StatusOK {
				t.Fatalf("round %d worker %d: status %v with lossy acks, want ok", r, i, got.Statuses[i])
			}
			if ref.Statuses[i] != got.Statuses[i] {
				t.Fatalf("round %d worker %d: status %v vs %v", r, i, got.Statuses[i], ref.Statuses[i])
			}
			if math.Float64bits(ref.Reputations[i]) != math.Float64bits(got.Reputations[i]) {
				t.Fatalf("round %d worker %d: reputation diverged under replays", r, i)
			}
			if math.Float64bits(ref.Rewards[i]) != math.Float64bits(got.Rewards[i]) {
				t.Fatalf("round %d worker %d: reward diverged under replays", r, i)
			}
		}
	}
	for i := range clean.params {
		if math.Float64bits(clean.params[i]) != math.Float64bits(lossy.params[i]) {
			t.Fatalf("global parameter %d diverged under replays", i)
		}
	}
	// Replays must not inflate the wire accounting.
	for i := range clean.up {
		if clean.up[i] != lossy.up[i] || clean.down[i] != lossy.down[i] {
			t.Fatalf("worker %d traffic with replays (%d up / %d down) != clean (%d / %d)",
				i, lossy.up[i], lossy.down[i], clean.up[i], clean.down[i])
		}
	}
}

// TestMetricsMatchTraffic: the registry's per-worker byte counters must
// equal Server.WorkerTraffic for the same run, the engine round counter
// must equal the rounds driven, and /v1/metrics must serve it all in the
// Prometheus text exposition format.
func TestMetricsMatchTraffic(t *testing.T) {
	const nRounds = 2
	run := runLoopback(t, 33, nRounds, nil)
	snap := run.reg.Snapshot()

	for i := range run.up {
		w := strconv.Itoa(i)
		if got := snap.CounterValue("fifl_transport_upload_bytes_total", "worker", w); got != run.up[i] {
			t.Fatalf("upload byte counter for worker %d = %d, WorkerTraffic says %d", i, got, run.up[i])
		}
		if got := snap.CounterValue("fifl_transport_model_bytes_total", "worker", w); got != run.down[i] {
			t.Fatalf("model byte counter for worker %d = %d, WorkerTraffic says %d", i, got, run.down[i])
		}
	}
	if got := snap.CounterValue("fifl_engine_rounds_total"); got != nRounds {
		t.Fatalf("engine round counter = %d, want %d", got, nRounds)
	}
	if got := snap.CounterValue("fifl_engine_rounds_committed_total"); got != nRounds {
		t.Fatalf("committed round counter = %d, want %d", got, nRounds)
	}
	// Every upload arrived first try: 2 workers × nRounds OK uploads.
	if got := snap.CounterValue("fifl_engine_uploads_total", "status", "ok"); got != 2*nRounds {
		t.Fatalf("ok upload counter = %d, want %d", got, 2*nRounds)
	}
	if got := snap.CounterValue("fifl_transport_submit_replays_total"); got != 0 {
		t.Fatalf("clean run recorded %d replays", got)
	}

	// The same numbers over the wire, in exposition format.
	resp, err := http.Get(run.metaURL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("metrics content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE fifl_http_requests_total counter\n",
		"# TYPE fifl_engine_round_phase_seconds histogram\n",
		fmt.Sprintf("fifl_engine_rounds_total %d\n", nRounds),
		fmt.Sprintf("fifl_transport_upload_bytes_total{worker=\"0\"} %d\n", run.up[0]),
		fmt.Sprintf("fifl_transport_upload_bytes_total{worker=\"1\"} %d\n", run.up[1]),
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/v1/metrics output missing %q; got:\n%s", want, text)
		}
	}
}

// TestDialWorkerValidation: garbage coordinator URLs must be rejected at
// dial time with a clear error, not after a full retry cycle against a
// nonsense address. Regression test for url.Parse accepting "not-a-url".
func TestDialWorkerValidation(t *testing.T) {
	recipe := Recipe{Seed: 1, Workers: 1, SamplesPerWorker: 20}
	w, err := recipe.Worker(0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, bad := range []string{
		"",
		"not-a-url",
		"127.0.0.1:7070",       // no scheme
		"http://",              // no host
		"ftp://127.0.0.1:7070", // wrong scheme
		"://missing",
	} {
		if _, err := DialWorker(ctx, ClientConfig{BaseURL: bad, Worker: w}); err == nil {
			t.Fatalf("DialWorker accepted BaseURL %q", bad)
		} else if !strings.Contains(err.Error(), "transport: DialWorker") {
			t.Fatalf("BaseURL %q failed with an unexpected error: %v", bad, err)
		}
	}
	if _, err := DialWorker(ctx, ClientConfig{BaseURL: "http://127.0.0.1:1"}); err == nil {
		t.Fatal("DialWorker accepted a nil worker")
	}
}

// TestRetryWaitClamp: the exponential backoff schedule must stay positive
// and bounded however large the attempt count or base — regression test
// for RetryBackoff << (attempt-1) overflowing into a negative sleep.
func TestRetryWaitClamp(t *testing.T) {
	base := 100 * time.Millisecond
	if got := retryWait(base, 1); got != base {
		t.Fatalf("attempt 1 wait = %v, want %v", got, base)
	}
	if got := retryWait(base, 3); got != 4*base {
		t.Fatalf("attempt 3 wait = %v, want %v", got, 4*base)
	}
	for _, attempt := range []int{10, 63, 64, 65, 1 << 20} {
		got := retryWait(base, attempt)
		if got <= 0 || got > maxRetryWait {
			t.Fatalf("attempt %d wait = %v, outside (0, %v]", attempt, got, maxRetryWait)
		}
	}
	if got := retryWait(time.Hour, 5); got != maxRetryWait {
		t.Fatalf("huge base wait = %v, want clamp to %v", got, maxRetryWait)
	}
}

// TestResponseLimitExplicitError: a response bigger than the client's
// budget must fail with an explicit limit error on the first attempt —
// not a silent truncation surfacing as a CRC mismatch, and not a retry
// storm (a bigger response will not fit next time either).
func TestResponseLimitExplicitError(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		_, _ = w.Write(make([]byte, 100))
	}))
	defer ts.Close()

	c := &Client{
		cfg: ClientConfig{
			BaseURL:          ts.URL,
			RetryAttempts:    3,
			RetryBackoff:     time.Millisecond,
			MaxResponseBytes: 16,
		},
		http:      ts.Client(),
		lastRound: noRound,
		cm:        newClientMetrics(metrics.New()),
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, err := c.get(ctx, "/v1/model")
	if err == nil {
		t.Fatal("oversized response accepted")
	}
	if !strings.Contains(err.Error(), "exceeds the 16-byte limit") {
		t.Fatalf("oversized response failed with %v, want an explicit limit error", err)
	}
	if got := hits.Load(); got != 1 {
		t.Fatalf("oversized response was requested %d times, want 1 (terminal, no retry)", got)
	}

	// Exactly at the limit is fine.
	c.cfg.MaxResponseBytes = 100
	out, err := c.get(ctx, "/v1/model")
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 100 {
		t.Fatalf("read %d bytes, want 100", len(out))
	}
}

// TestResponseLimitDefaults: the ledger endpoint gets its own much larger
// budget — a full-run chain export dwarfs a gradient frame — while
// everything else keeps the frame-size cap, and an explicit
// MaxResponseBytes overrides both.
func TestResponseLimitDefaults(t *testing.T) {
	c := &Client{cfg: ClientConfig{}}
	if got := c.responseLimit("/v1/model"); got != MaxFrameBytes {
		t.Fatalf("model budget = %d, want %d", got, int64(MaxFrameBytes))
	}
	if got := c.responseLimit("/v1/ledger"); got != maxLedgerBytes {
		t.Fatalf("ledger budget = %d, want %d", got, int64(maxLedgerBytes))
	}
	c.cfg.MaxResponseBytes = 512
	if got := c.responseLimit("/v1/ledger"); got != 512 {
		t.Fatalf("override budget = %d, want 512", got)
	}
}
