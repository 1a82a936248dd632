// Package fifl is the public facade of this FIFL reproduction — a fair,
// attack-robust incentive mechanism for federated learning (Gao et al.,
// ICPP '21). It exports the names README.md and the examples/ programs
// use: a federation of workers on the fault-tolerant round runtime, the
// FIFL coordinator and the other reward mechanisms, asynchronous and
// sharded collection, the HTTP transport, checkpoints and metrics. The
// substrates behind them — the training engine, the attack workers, the
// robust aggregators, the audit ledger's analytics and the market
// simulation — stay under internal/ and drive the cmd/ binaries.
//
// # Quick start
//
// Build a federation, wrap it in a FIFL coordinator, and run rounds:
//
//	src := fifl.NewRNG(42)
//	build := fifl.NewMLP(42, 28*28, []int{64}, 10)
//	data := fifl.SynthDigits(src, 2000)
//	parts := data.PartitionIID(src, 4)
//	var workers []fifl.Worker
//	for i, p := range parts {
//		workers = append(workers, fifl.NewHonestWorker(i, p, build,
//			fifl.LocalConfig{K: 1, BatchSize: 16, LR: 0.05}, src))
//	}
//	engine, err := fifl.NewEngine(fifl.EngineConfig{Servers: 2, GlobalLR: 0.05},
//		build, workers, src,
//		fifl.WithQuorum(3), fifl.WithRetry(2, 50*time.Millisecond))
//	// handle err
//	coord, err := fifl.NewCoordinator(fifl.CoordinatorConfig{
//		Detection:      fifl.Detector{Threshold: 0.02},
//		Reputation:     fifl.DefaultReputationConfig(),
//		Contribution:   fifl.ContributionConfig{BaselineWorker: -1, Clamp: 10, SmoothBH: 0.2},
//		RewardPerRound: 1,
//	}, engine, []int{0, 1})
//	// handle err, then:
//	report, err := coord.RunRoundContext(ctx, 0)
//
// Every constructor and round entry point returns errors instead of
// panicking; rounds accept a context through RunRoundContext and
// CollectGradientsContext for cancellation.
//
// See examples/ for complete programs and internal/experiments for the
// code behind every figure of the paper.
package fifl

import (
	"context"
	"io"
	"time"

	"fifl/internal/core"
	"fifl/internal/dataset"
	"fifl/internal/faults"
	"fifl/internal/fl"
	"fifl/internal/metrics"
	"fifl/internal/nn"
	"fifl/internal/persist"
	"fifl/internal/rng"
	"fifl/internal/shard"
	"fifl/internal/transport"
	"fifl/internal/transport/codec"
)

// RNG re-exports the deterministic splittable random source every
// constructor consumes.
type RNG = rng.Source

// NewRNG returns a deterministic random source rooted at seed.
func NewRNG(seed uint64) *RNG { return rng.New(seed) }

// Dataset re-exports the labelled example set used for local training.
type Dataset = dataset.Dataset

// SynthDigits generates the MNIST stand-in dataset (28×28×1, ten classes).
func SynthDigits(src *RNG, n int) *Dataset { return dataset.SynthDigits(src, n) }

// ModelBuilder constructs identical model replicas for workers.
type ModelBuilder = nn.Builder

// NewMLP returns a small multi-layer perceptron builder over flat inputs.
func NewMLP(seed uint64, in int, hidden []int, out int) ModelBuilder {
	return nn.NewMLP(seed, in, hidden, out)
}

// Federated-learning runtime types.
type (
	// Worker is one federation participant.
	Worker = fl.Worker
	// LocalConfig controls worker-side training.
	LocalConfig = fl.LocalConfig
	// EngineConfig controls the federation runtime.
	EngineConfig = fl.Config
	// Engine orchestrates a federation.
	Engine = fl.Engine
	// EngineOption customizes the engine's fault-tolerant round runtime.
	EngineOption = fl.Option
	// UploadStatus classifies the fate of one worker's upload in one
	// round: OK, Retried, Dropped, TimedOut or Crashed.
	UploadStatus = faults.UploadStatus
	// FaultInjector is a pluggable failure model consulted for every
	// transmission attempt; see the faults package for crash, straggler
	// and bursty-link implementations.
	FaultInjector = faults.Injector
)

// Upload status values recorded by the fault-tolerant runtime.
const (
	// UploadOK marks an upload that arrived on the first attempt.
	UploadOK = faults.StatusOK
	// UploadRetried marks an upload that arrived after retransmission.
	UploadRetried = faults.StatusRetried
	// UploadDropped marks an upload lost despite every retry.
	UploadDropped = faults.StatusDropped
	// UploadTimedOut marks a worker cut off at the straggler deadline.
	UploadTimedOut = faults.StatusTimedOut
	// UploadCrashed marks a worker that crashed before uploading.
	UploadCrashed = faults.StatusCrashed
	// UploadStale marks an async submission rejected for training against
	// a model older than the staleness bound (negative reputation event).
	UploadStale = faults.StatusStale
	// UploadPending marks a worker still training when an async advance
	// window closed (uncertain reputation event, like a timeout).
	UploadPending = faults.StatusPending
)

// WithQuorum makes rounds commit only when at least k uploads arrive;
// rounds below the threshold degrade gracefully (no aggregation, uncertain
// events for everyone).
func WithQuorum(k int) EngineOption { return fl.WithQuorum(k) }

// WithWorkerTimeout sets the per-worker round deadline (straggler cutoff).
func WithWorkerTimeout(d time.Duration) EngineOption { return fl.WithWorkerTimeout(d) }

// WithRetry lets workers retransmit lost uploads up to n times with
// exponential backoff; decisions stay on the engine's deterministic
// random stream.
func WithRetry(n int, backoff time.Duration) EngineOption { return fl.WithRetry(n, backoff) }

// WithFaultInjector installs a simulated failure model for the federation.
func WithFaultInjector(inj FaultInjector) EngineOption { return fl.WithFaultInjector(inj) }

// NewHonestWorker builds a faithful worker over a local dataset.
func NewHonestWorker(id int, data *Dataset, build ModelBuilder, cfg LocalConfig, src *RNG) *fl.HonestWorker {
	return fl.NewHonestWorker(id, data, build, cfg, src)
}

// NewEngine builds a federation runtime. Options configure the
// fault-tolerant round runtime: WithQuorum, WithWorkerTimeout, WithRetry,
// WithFaultInjector and WithMetrics.
func NewEngine(cfg EngineConfig, build ModelBuilder, workers []Worker, src *RNG, opts ...EngineOption) (*Engine, error) {
	return fl.NewEngine(cfg, build, workers, src, opts...)
}

// FIFL mechanism types.
type (
	// Detector is the attack-detection module (§4.1).
	Detector = core.Detector
	// ReputationConfig parameterizes the reputation module (§4.2).
	ReputationConfig = core.ReputationConfig
	// ContributionConfig parameterizes the contribution module (§4.3).
	ContributionConfig = core.ContributionConfig
	// CoordinatorConfig parameterizes a FIFL federation run.
	CoordinatorConfig = core.CoordinatorConfig
	// Coordinator runs the complete FIFL mechanism.
	Coordinator = core.Coordinator
	// CoordinatorOption customizes a coordinator beyond its config.
	CoordinatorOption = core.CoordinatorOption
	// Mechanism is the reward-splitting strategy interface of the Reward
	// stage: FIFL's Eq. 15 scheme, the four §5 baselines and the sampled
	// Monte-Carlo Shapley estimator all implement it. Resolve one by
	// registry name with MechanismByName and install it with
	// WithMechanism; every mechanism runs through the full coordinator
	// path — detection, ledger, checkpointing, wire transport included.
	Mechanism = core.RewardMechanism
)

// DefaultReputationConfig mirrors the paper's reputation setup.
func DefaultReputationConfig() ReputationConfig { return core.DefaultReputationConfig() }

// NewCoordinator wraps an engine in the FIFL mechanism. Options swap the
// Reward stage's mechanism (WithMechanism) or its Collect stage
// (WithCollector).
func NewCoordinator(cfg CoordinatorConfig, engine *Engine, initialServers []int, opts ...CoordinatorOption) (*Coordinator, error) {
	return core.NewCoordinator(cfg, engine, initialServers, opts...)
}

// WithMechanism replaces FIFL's incentive module with another reward
// mechanism for the Reward stage — typically a baseline resolved with
// MechanismByName — while detection, reputation, aggregation, the ledger
// and server reselection run unchanged.
func WithMechanism(m Mechanism) CoordinatorOption { return core.WithMechanism(m) }

// Asynchronous federation: replace the synchronous collect-all barrier
// with bounded-staleness windows — workers submit whenever ready, tagged
// with the model round they trained against, and each advance folds what
// arrived with staleness weight 1/(1+s), rejecting s > MaxStaleness. Only
// the Collect stage changes; detection, reputation, contribution and
// rewards assess async windows unchanged (pending workers are uncertain
// events, over-bound submissions negative ones).
type (
	// Collector swaps the round pipeline's Collect stage; install one with
	// WithCollector. nil keeps the synchronous engine barrier. Its one
	// method returns a round ready for detection: an async collector
	// folds its window — staleness tags and weights included — itself.
	Collector = core.Collector
	// AsyncConfig parameterizes the in-process async collector.
	AsyncConfig = fl.AsyncConfig
	// AsyncCollector is the in-process bounded-staleness Collect stage: a
	// deterministic round-robin cohort submits each advance window, with a
	// deterministic lag schedule as the async failure model.
	AsyncCollector = fl.AsyncCollector
	// LagSchedule decides how stale each simulated submission is.
	LagSchedule = fl.LagSchedule
	// TransportAsyncConfig parameterizes the wire-side async collector.
	TransportAsyncConfig = transport.AsyncConfig
	// TransportAsyncCollector is the wire-side bounded-staleness Collect
	// stage: HTTP workers submit any time and advance windows drain the
	// hub's queue on a count/time cadence.
	TransportAsyncCollector = transport.AsyncCollector
)

// StalenessWeight is the bounded-staleness fold weight 1/(1+s) both async
// collectors stamp on each folded upload; non-finite or negative
// staleness weighs 0, and s > max is rejected (weight 0) when max >= 0.
func StalenessWeight(s float64, max int) float64 { return fl.StalenessWeight(s, max) }

// WithCollector replaces the pipeline's Collect stage — the synchronous
// engine barrier — with an alternative collector, typically an async one.
// Checkpoints taken with a resumable collector carry its state; restore
// with the same option.
func WithCollector(col Collector) CoordinatorOption { return core.WithCollector(col) }

// NewAsyncCollector builds the in-process bounded-staleness collector over
// an engine; install it with WithCollector.
func NewAsyncCollector(e *Engine, cfg AsyncConfig) (*AsyncCollector, error) {
	return fl.NewAsyncCollector(e, cfg)
}

// StaticLag builds a lag schedule from fixed per-worker lags.
func StaticLag(lags []int) LagSchedule { return fl.StaticLag(lags) }

// NewTransportAsyncCollector switches a hub into async any-time-submit
// mode and builds the wire-side collector over it; install it with
// WithCollector on the coordinator the hub serves.
func NewTransportAsyncCollector(hub *TransportHub, engine *Engine, cfg TransportAsyncConfig) (*TransportAsyncCollector, error) {
	return transport.NewAsyncCollector(hub, engine, cfg)
}

// MechanismByName resolves a registry name — today "fifl", "equal", "individual", "union", "shapley" and "shapley-mc"
// (case-insensitive) — to a freshly built Mechanism. The error for an
// unknown name lists every valid one. "shapley" is the exact
// exponential-time enumeration; "shapley-mc" is the seeded Monte-Carlo /
// truncated-permutation estimator that stays tractable at production
// federation sizes.
func MechanismByName(name string) (Mechanism, error) {
	return core.MechanismByName(name)
}

// NewMonteCarloShapleyMechanism builds the sampled Shapley estimator with
// explicit knobs: seed roots its private deterministic random stream (0 =
// the package default), rounds is the permutation sample budget (0 =
// 2000), and tolerance is the truncation threshold (<= 0 disables
// truncation). MechanismByName("shapley-mc") is the default-tuned
// spelling of this.
func NewMonteCarloShapleyMechanism(seed uint64, rounds int, tolerance float64) Mechanism {
	return core.NewMonteCarloMechanism(seed, rounds, tolerance)
}

// ValidateMechanismScale refuses mechanism/federation-size combinations
// that cannot finish in reasonable time (exact Shapley past
// core.MaxExactShapleyN workers), pointing at the tractable alternative.
func ValidateMechanismScale(m Mechanism, workers int) error {
	return core.ValidateMechanismScale(m, workers)
}

// Wire transport: run a federation across real processes over HTTP with
// the deterministic binary codec (see internal/transport and cmd/fifl-node).
type (
	// TransportHub bridges a coordinator-side engine to remote workers:
	// the engine trains against hub stubs while real HTTP submissions feed
	// them.
	TransportHub = transport.Hub
	// CoordinatorServer is a coordinator's HTTP endpoint: per-round
	// reports, ledger export, healthz and metrics, plus one wire protocol —
	// the workers' submit and model long poll (ServeCoordinator) or a
	// sharded root's directive stream (ServeShardRoot).
	CoordinatorServer = transport.Server
	// WorkerClient is a worker's connection to a coordinator: hello, then
	// poll-train-submit until done.
	WorkerClient = transport.Client
	// WorkerClientConfig configures DialWorker.
	WorkerClientConfig = transport.ClientConfig
)

// NewTransportHub creates the coordinator-side bridge for an n-worker
// federation; build the engine over hub.Workers() with WithWorkerTimeout.
func NewTransportHub(n int) (*TransportHub, error) { return transport.NewHub(n) }

// ServeCoordinator wraps a coordinator (whose engine runs over hub stubs)
// in the federation's HTTP API; serve its Handler with net/http or
// httptest.
func ServeCoordinator(coord *Coordinator, hub *TransportHub) (*CoordinatorServer, error) {
	return transport.NewServer(coord, hub)
}

// Compression selects a gradient-frame wire encoding, negotiated
// per-worker at dial time: dense float64 (none), lossy float32 (f32),
// top-k sparsification (topk) or linear quantization (int8 / int16).
// Lossy modes change training arithmetic; pair them with WithAuditEvery
// to carry periodic rounds bit-exactly for the audit trail.
type Compression = codec.Compression

// CompressionInt8 is the 8-bit linear-quantization wire mode.
const CompressionInt8 = codec.CompressionInt8

// WorkerClientOption adjusts a WorkerClientConfig before dialing.
type WorkerClientOption func(*WorkerClientConfig)

// WithCompression selects the wire encoding this worker negotiates for
// its gradient uploads and model downloads.
func WithCompression(c Compression) WorkerClientOption {
	return func(cfg *WorkerClientConfig) { cfg.Compression = c }
}

// WithAuditEvery forces every n-th round (round%n == 0) onto dense
// lossless frames regardless of the negotiated compression, so audit
// rounds stay bit-identical to an uncompressed run. n <= 0 disables the
// cadence; n == 1 makes every round dense.
func WithAuditEvery(n int) WorkerClientOption {
	return func(cfg *WorkerClientConfig) { cfg.AuditEvery = n }
}

// DialWorker registers a worker with a coordinator and returns the client
// that drives its poll-train-submit loop. Options mutate cfg before the
// dial; they win over the corresponding struct fields.
func DialWorker(ctx context.Context, cfg WorkerClientConfig, opts ...WorkerClientOption) (*WorkerClient, error) {
	for _, opt := range opts {
		opt(&cfg)
	}
	return transport.DialWorker(ctx, cfg)
}

// Hierarchical federation: a 1-level sharded topology where edge
// aggregators own contiguous worker cohorts, collect and screen locally
// against the root's broadcast benchmark, pre-aggregate the survivors and
// forward one evidence frame per phase over the shard wire protocol. The
// root's coordinator unfolds each shard's evidence into the same
// per-worker events — Eq. 8–10 reputation updates, Eq. 15 rewards, ledger
// records — a flat federation produces, so analytics and fairness audits
// work unchanged; an honest sharded run is bit-identical to a flat run
// aggregating in the same blocked association (per-cohort partials,
// normalized at the root).
type (
	// ShardHub is the root-side rendezvous: cohort registration, the
	// sequence-numbered directive stream and per-phase evidence waves.
	ShardHub = shard.ShardHub
	// ShardBridge adapts a hub to the coordinator's Collect stage and to
	// the three kernels that read gradients — screening, aggregation and
	// Eq. 13 distances — which the edge aggregators run; every other part
	// of the round runs at the root as in a flat federation. Install it
	// with WithCollector.
	ShardBridge = shard.Bridge
	// ShardAggregator is one edge sub-coordinator over a cohort engine.
	ShardAggregator = shard.Aggregator
	// ShardRootLink is an aggregator's connection to the root.
	ShardRootLink = shard.RootLink
	// ShardDirectLink couples an aggregator to an in-process hub, still
	// round-tripping every frame through the wire codec.
	ShardDirectLink = shard.DirectLink
	// ShardHTTPLink speaks to a sharded root's /v1/shard endpoints
	// (ServeShardRoot).
	ShardHTTPLink = shard.HTTPLink
)

// NewShardHub creates the root-side hub for an n-worker federation split
// into the given number of cohorts; reg receives the shard counters (nil =
// none).
func NewShardHub(n, shards int, reg *MetricsRegistry) (*ShardHub, error) {
	return shard.NewShardHub(n, shards, reg)
}

// NewShardBridge bridges a hub to the root engine (whose slots are the
// sample-count stand-ins of shard.VirtualWorkers); quorum > 0 degrades rounds with fewer arrivals,
// and must equal the engine's own WithQuorum.
func NewShardBridge(hub *ShardHub, engine *Engine, quorum int) (*ShardBridge, error) {
	return shard.NewBridge(hub, engine, quorum)
}

// NewShardAggregator builds the edge aggregator for cohort index s whose
// first worker holds global slot first; engine is the cohort-local engine.
func NewShardAggregator(s, first int, engine *Engine, link ShardRootLink) (*ShardAggregator, error) {
	return shard.NewAggregator(s, first, engine, link)
}

// ServeShardRoot serves the shard wire protocol for the root coordinator
// and its hub on the same CoordinatorServer a flat coordinator uses, so a
// sharded root also serves /v1/round/report, /v1/ledger, /v1/healthz and
// the instrumented /v1/metrics; its rounds go through the server's
// RunRound. Serve its Handler with net/http or httptest.
func ServeShardRoot(coord *Coordinator, hub *ShardHub) (*CoordinatorServer, error) {
	return shard.NewServer(coord, hub)
}

// Durability: checkpoint a federation between rounds and resume it after a
// crash or restart. A snapshot captures everything the mechanism
// accumulates across rounds — reputations with their SLM period counters,
// cumulative rewards, the banned set, the server cluster, the b_h
// smoother, the global model, the audit ledger and the deterministic
// random-stream positions — so a resumed run continues bit for bit
// identically to one that was never interrupted. Snapshots are CRC-framed
// and written atomically (see internal/persist); restores verify the
// embedded ledger's hash links, hashes and round seals and refuse
// checkpoints from a different federation.

// Checkpoint writes the coordinator's complete inter-round state to w.
// Call it only between rounds — after RunRoundContext returns and before
// the next one starts.
func Checkpoint(c *Coordinator, w io.Writer) error { return c.Checkpoint(w) }

// Resume reads a checkpoint and rebuilds a coordinator over a freshly
// constructed engine. The engine must come from the same federation recipe
// (seed, workers, model) as the checkpointed run and must not have
// executed any rounds yet; continue by running round coord.NextRound().
// Options (e.g. WithMechanism) must match the interrupted run's.
func Resume(r io.Reader, cfg CoordinatorConfig, engine *Engine, opts ...CoordinatorOption) (*Coordinator, error) {
	return core.RestoreCoordinator(r, cfg, engine, opts...)
}

// CheckpointToFile persists the coordinator's state to path atomically:
// a crash at any instant leaves either the previous complete checkpoint or
// the new one, never a torn file.
func CheckpointToFile(path string, c *Coordinator) error {
	s, err := c.Snapshot()
	if err != nil {
		return err
	}
	return persist.WriteFile(path, s)
}

// ResumeFromFile loads a checkpoint file written by CheckpointToFile and
// rebuilds a coordinator over a freshly constructed engine (see Resume).
func ResumeFromFile(path string, cfg CoordinatorConfig, engine *Engine, opts ...CoordinatorOption) (*Coordinator, error) {
	s, err := persist.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return core.RestoreCoordinatorSnapshot(s, cfg, engine, opts...)
}

// Observability: every layer — engine round phases, coordinator assessment,
// transport server/client, wire codec — records counters, gauges and
// latency histograms into a metrics registry. Metrics are observability-
// only and never feed a decision, so enabling them cannot change a run.
type (
	// MetricsRegistry is an allocation-light, concurrency-safe metric
	// store with a deterministic Prometheus text exposition
	// (WritePrometheus) and a structured Snapshot.
	MetricsRegistry = metrics.Registry
	// MetricsSnapshot is a point-in-time copy of every instrument.
	MetricsSnapshot = metrics.Snapshot
)

// NewMetricsRegistry returns an empty registry. Pass it to the engine with
// WithMetrics to isolate one federation's instruments; by default every
// component records into the process-wide registry read by Metrics.
func NewMetricsRegistry() *MetricsRegistry { return metrics.New() }

// Metrics snapshots the process-wide default registry — the one engines,
// coordinators and transports use unless overridden with WithMetrics.
func Metrics() MetricsSnapshot { return metrics.Default.Snapshot() }

// WithMetrics points the engine (and everything built on it: coordinator,
// transport server) at a specific metrics registry instead of the
// process-wide default.
func WithMetrics(reg *MetricsRegistry) EngineOption { return fl.WithMetrics(reg) }
