package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"fifl/internal/core"
	"fifl/internal/fl"
	"fifl/internal/gradvec"
	"fifl/internal/metrics"
	"fifl/internal/nn"
	"fifl/internal/rng"
	"fifl/internal/shard"
	"fifl/internal/transport"
	"fifl/internal/transport/codec"
)

// mode is how a workload's federation is wired.
type mode int

const (
	modeFlat    mode = iota // one in-process engine over fixed-gradient workers
	modeSharded             // two edge aggregators under a root, frames through the shard codec
	modeWire                // coordinator behind a real 127.0.0.1 listener, two training worker clients
)

// Federation constants shared by every workload.
const (
	servers      = 2   // server cluster size M
	shards       = 2   // edge cohorts of the sharded workload (= nproc aggregator goroutines)
	attackEvery  = 8   // every 8th worker uploads a sign-flipped, ×3 gradient
	fixedSamples = 100 // reported local dataset size of a fixed-gradient worker
	wireSamples  = 64  // SamplesPerWorker of the wire recipe
)

// coordConfig is the coordinator configuration of every workload: the
// repo's default screening, reputation and contribution settings, one
// budget unit per round, ledger on.
func coordConfig() core.CoordinatorConfig {
	return core.CoordinatorConfig{
		Detection:      core.Detector{Threshold: 0.02},
		Reputation:     core.DefaultReputationConfig(),
		Contribution:   core.ContributionConfig{BaselineWorker: -1, Clamp: 10, SmoothBH: 0.2},
		RewardPerRound: 1,
		RecordToLedger: true,
	}
}

// builderFor returns the model builder of a spec. The wire recipe owns its
// builder so that coordinator and workers agree on the initialisation.
func builderFor(sp spec, seed uint64) (nn.Builder, error) {
	switch sp.model {
	case modelToy:
		return nn.NewMLP(11, 24, []int{8}, 4), nil
	case modelResNet:
		return nn.NewMiniResNet(11), nil
	case modelWire:
		return wireRecipe(sp, seed).Builder()
	}
	return nil, fmt.Errorf("unknown model %q", sp.model)
}

func wireRecipe(sp spec, seed uint64) transport.Recipe {
	return transport.Recipe{Seed: seed, Workers: sp.workers, SamplesPerWorker: wireSamples}
}

// fixedWorker uploads a pre-computed gradient without training, so the
// round measures the coordinator's machinery and not SGD.
type fixedWorker struct {
	id   int
	grad gradvec.Vector
}

func (w *fixedWorker) ID() int         { return w.id }
func (w *fixedWorker) NumSamples() int { return fixedSamples }
func (w *fixedWorker) LocalTrain(int, []float64) gradvec.Vector {
	return w.grad
}

// isAttacker reports whether worker i is one of the planted attackers.
// Workers 0 and 1, the initial server cluster, are honest.
func isAttacker(i int) bool { return i%attackEvery == attackEvery-1 }

// fixedWorkers generates the synthetic cohort from the seed: one base
// direction, per-worker Gaussian noise at half its scale, and every 8th
// worker sign-flipped and scaled ×3. An honest upload has cosine ≈ 0.8
// with the server benchmark and an attacker ≈ -0.8, so screening has real
// work and one right answer.
func fixedWorkers(seed uint64, n, dim int) []fl.Worker {
	src := rng.New(seed)
	base := make([]float64, dim)
	src.Split("base").FillNormal(base, 0, 0.01)
	out := make([]fl.Worker, n)
	for i := range out {
		g := make(gradvec.Vector, dim)
		src.SplitN("worker", i).FillNormal(g, 0, 0.005)
		scale := 1.0
		if isAttacker(i) {
			scale = -3
		}
		for j := range g {
			g[j] = scale * (base[j] + g[j])
		}
		out[i] = &fixedWorker{id: i, grad: g}
	}
	return out
}

// tracedWorker records a span around every LocalTrain call.
type tracedWorker struct {
	fl.Worker
	tr *tracer
}

func (w tracedWorker) LocalTrain(round int, global []float64) gradvec.Vector {
	start := w.tr.now()
	g := w.Worker.LocalTrain(round, global)
	w.tr.add(spanLocalTrain, start, w.tr.now(), round)
	return g
}

// traceWorkers wraps every worker when tracing is on.
func traceWorkers(ws []fl.Worker, tr *tracer) []fl.Worker {
	if tr == nil {
		return ws
	}
	out := make([]fl.Worker, len(ws))
	for i, w := range ws {
		out[i] = tracedWorker{Worker: w, tr: tr}
	}
	return out
}

// federation is one assembled workload: the coordinator under test and the
// handles the benchmark needs around it.
type federation struct {
	coord *core.Coordinator
	// runRound drives one closed-loop round.
	runRound func(ctx context.Context, t int) (*core.RoundReport, error)
	// traffic reports the bytes moved so far towards the coordinator (from
	// workers or edge aggregators) and away from it.
	traffic func() (up, down int64)
	// freshEngine builds an engine of this federation's shape that has
	// run no round, as core.RestoreCoordinator requires.
	freshEngine func() (*fl.Engine, error)
	// replayWorkers returns the cohort as in-process workers, for the
	// flat replay engine of the traced run.
	replayWorkers func() ([]fl.Worker, error)
	build         nn.Builder
	// clientReg receives the wire clients' metrics; link is the sharded
	// workload's counting root link. Both nil elsewhere.
	clientReg *metrics.Registry
	link      *countingLink
	http      *countingTransport
	// close stops everything the federation started and waits for it.
	close func() error
}

// newEngine builds an engine over ws with a private registry, so two
// federations in one process never share counters.
func newEngine(build nn.Builder, ws []fl.Worker, seed uint64, opts ...fl.Option) (*fl.Engine, error) {
	opts = append([]fl.Option{fl.WithMetrics(metrics.New())}, opts...)
	return fl.NewEngine(fl.Config{Servers: servers, GlobalLR: 0.05}, build, ws, rng.New(seed).Split("engine"), opts...)
}

func traceOption(tr *tracer) []core.CoordinatorOption {
	if tr == nil {
		return nil
	}
	return []core.CoordinatorOption{core.WithStageTrace(func(st core.StageTrace) {
		tr.stage(st.Round, st.Stage, st.Elapsed)
	})}
}

// buildFederation assembles the workload. A non-nil tracer installs the
// benchmark's span wrappers; nil leaves every hook out.
func buildFederation(ctx context.Context, sp spec, seed uint64, tr *tracer) (*federation, error) {
	build, err := builderFor(sp, seed)
	if err != nil {
		return nil, err
	}
	switch sp.mode {
	case modeFlat:
		return buildFlat(sp, seed, build, tr)
	case modeSharded:
		return buildSharded(ctx, sp, seed, build, tr)
	case modeWire:
		return buildWire(ctx, sp, seed, build, tr)
	}
	return nil, fmt.Errorf("unknown mode %d", sp.mode)
}

func buildFlat(sp spec, seed uint64, build nn.Builder, tr *tracer) (*federation, error) {
	dim := build().NumParams()
	ws := fixedWorkers(seed, sp.workers, dim)
	engine, err := newEngine(build, traceWorkers(ws, tr), seed)
	if err != nil {
		return nil, err
	}
	coord, err := core.NewCoordinator(coordConfig(), engine, []int{0, 1}, traceOption(tr)...)
	if err != nil {
		return nil, err
	}
	rounds := 0
	return &federation{
		coord: coord,
		build: build,
		runRound: func(ctx context.Context, t int) (*core.RoundReport, error) {
			rounds++
			return coord.RunRoundContext(ctx, t)
		},
		// In process nothing is encoded: what moves is the payload
		// itself, n gradients up and n copies of the model down.
		traffic: func() (up, down int64) {
			b := int64(rounds) * int64(sp.workers) * int64(dim) * 8
			return b, b
		},
		freshEngine:   func() (*fl.Engine, error) { return newEngine(build, ws, seed) },
		replayWorkers: func() ([]fl.Worker, error) { return ws, nil },
		close:         func() error { return nil },
	}, nil
}

// countingLink is the benchmark's shard.RootLink. Like shard.DirectLink it
// round-trips every frame through the shard codec; it also counts the
// encoded frames and, when traced, records a span per call.
type countingLink struct {
	hub    *shard.ShardHub
	tr     *tracer
	frames atomic.Int64
	up     atomic.Int64 // evidence frame bytes
	down   atomic.Int64 // directive frame bytes
}

func (l *countingLink) Submit(_ context.Context, s codec.ShardSubmit) error {
	start := l.tr.now()
	b, err := codec.EncodeShardSubmit(s)
	if err != nil {
		return err
	}
	decoded, err := codec.DecodeShardSubmit(b)
	if err != nil {
		return err
	}
	l.frames.Add(1)
	l.up.Add(int64(len(b)))
	err = l.hub.Submit(&decoded)
	l.tr.add(spanLinkSubmit, start, l.tr.now(), s.Round)
	return err
}

func (l *countingLink) NextDirective(ctx context.Context, after int) (codec.ShardDirective, error) {
	start := l.tr.now()
	d, err := l.hub.NextDirective(ctx, after)
	if err != nil {
		return codec.ShardDirective{}, err
	}
	l.tr.add(spanLinkDirective, start, l.tr.now(), -1)
	b, err := codec.EncodeShardDirective(d)
	if err != nil {
		return codec.ShardDirective{}, err
	}
	l.frames.Add(1)
	l.down.Add(int64(len(b)))
	return codec.DecodeShardDirective(b)
}

func buildSharded(ctx context.Context, sp spec, seed uint64, build nn.Builder, tr *tracer) (*federation, error) {
	n := sp.workers
	dim := build().NumParams()
	ws := fixedWorkers(seed, n, dim)
	samples := make([]int, n)
	for i := range samples {
		samples[i] = fixedSamples
	}
	rootEngine := func() (*fl.Engine, error) { return newEngine(build, shard.VirtualWorkers(samples), seed) }
	root, err := rootEngine()
	if err != nil {
		return nil, err
	}
	hub, err := shard.NewShardHub(n, shards, root.Metrics())
	if err != nil {
		return nil, err
	}
	bridge, err := shard.NewBridge(hub, root, 0)
	if err != nil {
		return nil, err
	}
	opts := append(traceOption(tr), core.WithCollector(bridge))
	coord, err := core.NewCoordinator(coordConfig(), root, []int{0, 1}, opts...)
	if err != nil {
		return nil, err
	}
	bridge.BindServers(coord.Servers)

	link := &countingLink{hub: hub, tr: tr}
	actx, cancel := context.WithCancel(ctx)
	errc := make(chan error, shards) // one result per aggregator
	lo := 0
	for s := 0; s < shards; s++ {
		size := n / shards
		if s < n%shards {
			size++
		}
		eng, err := fl.NewEngine(fl.Config{Servers: 1, GlobalLR: 0.05}, build,
			traceWorkers(ws[lo:lo+size], tr), rng.New(seed).SplitN("shard", s), fl.WithMetrics(metrics.New()))
		if err != nil {
			cancel()
			return nil, err
		}
		agg, err := shard.NewAggregator(s, lo, eng, link)
		if err != nil {
			cancel()
			return nil, err
		}
		go func() {
			if err := agg.Hello(actx); err != nil {
				errc <- err
				return
			}
			errc <- agg.Run(actx)
		}()
		lo += size
	}
	if err := hub.WaitReady(actx); err != nil {
		cancel()
		return nil, err
	}
	return &federation{
		coord:         coord,
		build:         build,
		runRound:      coord.RunRoundContext,
		traffic:       func() (up, down int64) { return link.up.Load(), link.down.Load() },
		freshEngine:   rootEngine,
		replayWorkers: func() ([]fl.Worker, error) { return ws, nil },
		link:          link,
		close: func() error {
			err := bridge.Finish()
			for s := 0; s < shards; s++ {
				err = errors.Join(err, <-errc)
			}
			cancel()
			hub.Close()
			return err
		},
	}, nil
}

// countingTransport is the benchmark's http.RoundTripper for the worker
// clients: it counts requests and, when traced, records a span per
// request named after the endpoint.
type countingTransport struct {
	base     http.RoundTripper
	tr       *tracer
	requests atomic.Int64
}

func (c *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	c.requests.Add(1)
	start := c.tr.now()
	resp, err := c.base.RoundTrip(r)
	name := spanHTTPOther
	switch r.URL.Path {
	case "/v1/round/submit":
		name = spanHTTPSubmit
	case "/v1/model":
		name = spanHTTPModel
	}
	c.tr.add(name, start, c.tr.now(), -1)
	return resp, err
}

func buildWire(ctx context.Context, sp spec, seed uint64, build nn.Builder, tr *tracer) (*federation, error) {
	n := sp.workers
	recipe := wireRecipe(sp, seed)
	hubEngine := func() (*transport.Hub, *fl.Engine, error) {
		hub, err := transport.NewHub(n)
		if err != nil {
			return nil, nil, err
		}
		engine, err := newEngine(build, hub.Workers(), seed, fl.WithWorkerTimeout(30*time.Second))
		return hub, engine, err
	}
	hub, engine, err := hubEngine()
	if err != nil {
		return nil, err
	}
	coord, err := core.NewCoordinator(coordConfig(), engine, []int{0, 1}, traceOption(tr)...)
	if err != nil {
		return nil, err
	}
	srv, err := transport.NewServer(coord, hub)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("loopback listener: %w", err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()

	base := &http.Transport{MaxIdleConnsPerHost: 1}
	ct := &countingTransport{base: base, tr: tr}
	clientReg := metrics.New()
	cctx, cancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	stop := func() error {
		srv.MarkDone()
		wg.Wait()
		cancel()
		srv.Close()
		// Close the clients' pooled connections first: Shutdown waits five
		// seconds for a connection that was dialled and never used.
		base.CloseIdleConnections()
		sctx, scancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer scancel()
		err := hs.Shutdown(sctx)
		if serr := <-served; !errors.Is(serr, http.ErrServerClosed) {
			err = errors.Join(err, serr)
		}
		return err
	}
	for i := 0; i < n; i++ {
		w, err := recipe.Worker(i)
		if err != nil {
			return nil, errors.Join(err, stop())
		}
		c, err := transport.DialWorker(cctx, transport.ClientConfig{
			BaseURL:    "http://" + ln.Addr().String(),
			Worker:     traceWorkers([]fl.Worker{w}, tr)[0],
			HTTPClient: &http.Client{Transport: ct, Timeout: 35 * time.Second},
			PollWait:   time.Second,
			Metrics:    clientReg,
		})
		if err != nil {
			return nil, errors.Join(err, stop())
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = c.Run(cctx) // a failed client shows as timed-out uploads in the round reports
		}()
	}
	if err := srv.WaitReady(cctx); err != nil {
		return nil, errors.Join(err, stop())
	}
	return &federation{
		coord:    coord,
		build:    build,
		runRound: srv.RunRound,
		traffic: func() (up, down int64) {
			ups, downs := srv.WorkerTraffic()
			for i := range ups {
				up += ups[i]
				down += downs[i]
			}
			return up, down
		},
		freshEngine: func() (*fl.Engine, error) {
			_, e, err := hubEngine()
			return e, err
		},
		replayWorkers: recipe.AllWorkers,
		clientReg:     clientReg,
		http:          ct,
		close:         stop,
	}, nil
}
