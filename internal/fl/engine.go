package fl

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"fifl/internal/dataset"
	"fifl/internal/faults"
	"fifl/internal/gradvec"
	"fifl/internal/metrics"
	"fifl/internal/nn"
	"fifl/internal/rng"
)

// Config controls one federation.
type Config struct {
	// Servers is M, the size of the server cluster. The paper's polycentric
	// architecture generalizes to centralized FL with M=1 and decentralized
	// FL with M=N.
	Servers int
	// GlobalLR is η in θ_{t+1} = θ_t − η·G̃_t (Eq. 3).
	GlobalLR float64
	// DropRate is the probability that a worker's upload is lost in
	// transit in a given round. Lost uploads are the paper's "uncertain
	// events" and feed the Su term of the reputation module. A positive
	// DropRate is shorthand for a faults.Bernoulli injector; richer
	// failure models (bursty links, crashes, stragglers) are installed
	// with WithFaultInjector.
	DropRate float64
}

// Validate reports whether the configuration describes a runnable
// federation. NewEngine calls it; callers constructing configurations
// programmatically can use it for early validation.
func (c Config) Validate() error {
	if c.Servers <= 0 {
		return fmt.Errorf("fl: Config.Servers must be positive, got %d", c.Servers)
	}
	if math.IsNaN(c.GlobalLR) || math.IsInf(c.GlobalLR, 0) {
		return fmt.Errorf("fl: Config.GlobalLR must be finite, got %v", c.GlobalLR)
	}
	if math.IsNaN(c.DropRate) || c.DropRate < 0 || c.DropRate > 1 {
		return fmt.Errorf("fl: Config.DropRate must be in [0,1], got %v", c.DropRate)
	}
	return nil
}

// RoundResult holds everything one communication iteration produced before
// aggregation: per-worker local gradients (nil for uploads that never
// arrived), the reported sample counts, and the fate of every upload in
// the shared failure vocabulary of internal/faults.
//
// The whole result — the struct and every slice in it — is engine-owned
// scratch that the NEXT CollectGradientsContext call on the same engine
// overwrites in place, keeping steady-state rounds allocation-free.
// Consumers that retain any of it past the round must copy what they keep
// (RunRoundContext's report does exactly that for Status and Retries).
type RoundResult struct {
	Round int
	// Grads holds the collected local gradients, indexed by worker
	// position; nil = no arrival, else a row of the model's length filed
	// by UploadRow, which no consumer re-checks. Non-nil entries are row
	// views into an engine-owned gradient arena (gradvec.Matrix) that the
	// NEXT CollectGradientsContext call on the same engine reuses —
	// callers that keep a gradient past the round must Clone it.
	Grads   []gradvec.Vector
	Samples []int
	// Status classifies each worker's upload: OK, Retried, Dropped,
	// TimedOut or Crashed, and in async windows Stale or Pending. A row
	// is non-nil only if Status[i].Arrived(), and in every collector but a
	// sharded root, which keeps only the server rows, non-nil iff it is.
	Status []faults.UploadStatus
	// Retries counts the retransmission attempts made for each worker
	// (0 for uploads that arrived — or were lost — first try).
	Retries []int
	// Arrived is the number of uploads that reached the servers.
	Arrived int
	// Quorum is the commit threshold that applied to this round
	// (0 = no quorum requirement).
	Quorum int
	// Committed reports whether the round met its quorum. An uncommitted
	// round must not be aggregated: the runtime degrades it gracefully
	// (every worker records an uncertain event, the model stays put).
	Committed bool
	// Staleness records, per worker, how many model advances old the
	// parameters this round's submission trained against were (0 = the
	// current broadcast); NoSubmission marks workers without a submission
	// in the window. Synchronous collection leaves it nil.
	Staleness []int
	// Weights holds optional per-worker aggregation weights multiplied
	// into the n_i sample weights — the async staleness discount. nil
	// means every arrival weighs 1, which is the synchronous path and is
	// bit-identical to aggregation before the field existed.
	Weights []float64
}

// NoSubmission is the Staleness marker for a worker that submitted
// nothing in an async advance window.
const NoSubmission = -1

// Usable reports whether worker i's upload can be screened and folded: it
// arrived and holds no NaN or ±Inf. An arrival that is not usable is
// rejected outright — a negative reputation event — never aggregated and
// never given benchmark duty.
func (r *RoundResult) Usable(i int) bool { return r.Grads[i] != nil && !r.Grads[i].HasNaN() }

// UploadRow is the length rule, applied where a gradient enters a round:
// the row a round files for upload g of a model with d parameters is g
// itself when g is nil or d long, else a fresh row of d NaNs, so a
// malformed upload is rejected exactly as a NaN-poisoned one.
func UploadRow(g gradvec.Vector, d int) gradvec.Vector {
	if g != nil && len(g) != d {
		g = make(gradvec.Vector, d)
		for i := range g {
			g[i] = math.NaN()
		}
	}
	return g
}

// Engine orchestrates a federation: it owns the global parameter vector, a
// global model replica for evaluation, and the worker set.
type Engine struct {
	Cfg     Config
	Workers []Worker

	global *nn.Sequential
	params []float64
	arena  *gradvec.Matrix // per-round gradient storage, reused across rounds
	src    *rng.Source
	opt    options
	reg    *metrics.Registry
	em     engineMetrics

	// Round-loop scratch, reused across rounds so steady-state collection
	// allocates nothing: the RoundResult with its per-worker slices, the
	// fault plan, and (only when no straggler can outlive the round) the
	// parameter snapshot handed to the workers.
	rr         *RoundResult
	planBuf    []workerPlan
	paramsSnap []float64
}

// NewEngine builds a federation. The global model is constructed from the
// builder; all workers are expected to have been built from the same seed
// so shapes agree. Options configure the fault-tolerant runtime: quorum
// commit (WithQuorum), straggler cutoff (WithWorkerTimeout), upload
// retransmission (WithRetry), simulated failures (WithFaultInjector) and
// instrumentation (WithMetrics).
func NewEngine(cfg Config, build nn.Builder, workers []Worker, src *rng.Source, opts ...Option) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if build == nil {
		return nil, errors.New("fl: NewEngine requires a model builder")
	}
	if src == nil {
		return nil, errors.New("fl: NewEngine requires a random source")
	}
	var o options
	for _, op := range opts {
		if op != nil {
			op(&o)
		}
	}
	if err := o.validate(len(workers)); err != nil {
		return nil, err
	}
	if o.injector == nil && cfg.DropRate > 0 {
		// Preserve the legacy DropRate semantics through the shared fault
		// vocabulary: one Bernoulli loss draw per upload attempt.
		o.injector = faults.Bernoulli{P: cfg.DropRate}
	}
	reg := o.metrics
	if reg == nil {
		reg = metrics.Default
	}
	g := build()
	return &Engine{
		Cfg:     cfg,
		Workers: workers,
		global:  g,
		params:  g.ParamsVector(),
		src:     src.Split("engine"),
		opt:     o,
		reg:     reg,
		em:      newEngineMetrics(reg),
	}, nil
}

// Metrics returns the registry this engine instruments itself into —
// metrics.Default unless WithMetrics installed a private one. The
// coordinator and the wire transport join the same registry so one
// /v1/metrics scrape covers every layer.
func (e *Engine) Metrics() *metrics.Registry { return e.reg }

// Params returns a copy of the current global parameter vector, like
// Servers and CumulativeRewards on the coordinator: mutating the result
// cannot move the global model. Engine-internal hot paths that want the
// live vector use ParamsRef.
func (e *Engine) Params() []float64 { return append([]float64(nil), e.params...) }

// ParamsRef returns the live global parameter vector without copying. It
// is the zero-copy path for engine-internal reads; callers must treat the
// slice as read-only — writes through it corrupt the global model.
func (e *Engine) ParamsRef() []float64 { return e.params }

// SetParams overwrites the global parameters (e.g. with a warm-started
// model) and refreshes the evaluation replica. It returns an error if the
// vector length does not match the model.
func (e *Engine) SetParams(v []float64) error {
	if len(v) != len(e.params) {
		return fmt.Errorf("fl: SetParams length %d, want %d", len(v), len(e.params))
	}
	copy(e.params, v)
	e.global.SetParamsVector(e.params)
	return nil
}

// GlobalModel returns the evaluation replica holding the current global
// parameters.
func (e *Engine) GlobalModel() *nn.Sequential { return e.global }

// NumServers returns M.
func (e *Engine) NumServers() int { return e.Cfg.Servers }

// Quorum returns the configured round-commit threshold (0 = none).
func (e *Engine) Quorum() int { return e.opt.quorum }

// WorkerTimeout returns the per-worker round deadline (0 = none). The
// network transport requires a positive deadline: a remote worker that
// never submits must resolve to StatusTimedOut instead of blocking the
// round forever.
func (e *Engine) WorkerTimeout() time.Duration { return e.opt.workerTimeout }

// RNGDraws reports how many raw steps the engine's private random stream
// (fault injection, retry jitter) has consumed. Together with the
// federation seed it pins the stream position for checkpointing.
func (e *Engine) RNGDraws() uint64 { return e.src.Draws() }

// DiscardRNG fast-forwards the engine's random stream to the position a
// checkpoint recorded. It refuses to rewind: the stream can only be
// advanced on a freshly built engine.
func (e *Engine) DiscardRNG(n uint64) error {
	if cur := e.src.Draws(); cur > n {
		return fmt.Errorf("fl: engine RNG already at %d draws, cannot rewind to %d", cur, n)
	}
	e.src.Discard(n - e.src.Draws())
	return nil
}

// AddWorker appends a worker to the round cohort (the last slot). Called
// only between rounds: the per-round scratch (gradient arena, RoundResult,
// fault-plan buffer) is sized per collection, so the next
// CollectGradientsContext absorbs the new cohort size automatically.
func (e *Engine) AddWorker(w Worker) error {
	if w == nil {
		return errors.New("fl: AddWorker with a nil worker")
	}
	e.Workers = append(e.Workers, w)
	return nil
}

// RemoveWorker deletes the worker at a cohort slot, preserving the order
// of the slots behind it. Like AddWorker it must only run between rounds.
// The caller (the coordinator's membership layer) is responsible for not
// shrinking the cohort below the server-cluster size or the quorum.
func (e *Engine) RemoveWorker(slot int) error {
	if slot < 0 || slot >= len(e.Workers) {
		return fmt.Errorf("fl: RemoveWorker slot %d outside cohort of %d", slot, len(e.Workers))
	}
	e.Workers = append(e.Workers[:slot], e.Workers[slot+1:]...)
	return nil
}

// AggregateRound computes the global gradient G̃ = Σ_i (w_i·n_i·r_i / Σ_j
// w_j·n_j·r_j)·G_i over the workers whose accept flag is true and whose
// upload arrived. Passing a nil accept slice accepts everyone (plain
// FedAvg). w_i comes from rr.Weights — the async staleness discount; a nil
// Weights slice weighs every arrival 1, bit-identical to the synchronous
// aggregation that predates the field. It returns (nil, nil) if no
// weighted gradient survives or the round failed its quorum, and an error
// if the accept mask or weight vector does not match the round.
func (e *Engine) AggregateRound(rr *RoundResult, accept []bool) (gradvec.Vector, error) {
	if rr == nil {
		return nil, errors.New("fl: AggregateRound on a nil round")
	}
	defer e.em.aggregateSec.ObserveSince(time.Now())
	if accept != nil && len(accept) != len(rr.Grads) {
		return nil, fmt.Errorf("fl: AggregateRound accept length %d, want %d", len(accept), len(rr.Grads))
	}
	if rr.Weights != nil && len(rr.Weights) != len(rr.Grads) {
		return nil, fmt.Errorf("fl: AggregateRound weights length %d, want %d", len(rr.Weights), len(rr.Grads))
	}
	if rr.Quorum > 0 && !rr.Committed {
		// Quorum unmet: the round is degraded and must not move the model.
		return nil, nil
	}
	weight := func(i int) float64 {
		if rr.Weights == nil {
			return 1
		}
		w := rr.Weights[i]
		if math.IsNaN(w) || math.IsInf(w, 0) || w < 0 {
			return 0
		}
		return w
	}
	total := 0.0
	for i, g := range rr.Grads {
		if g == nil || (accept != nil && !accept[i]) {
			continue
		}
		total += weight(i) * float64(rr.Samples[i])
	}
	if total == 0 {
		return nil, nil
	}
	// coefs[i] stays 0 for every worker the fold skips; a zero coefficient
	// folds nothing, which is what adding 0·G_i amounts to anyway.
	coefs := make([]float64, len(rr.Grads))
	for i, g := range rr.Grads {
		if g == nil || (accept != nil && !accept[i]) {
			continue
		}
		coefs[i] = weight(i) * float64(rr.Samples[i]) / total
	}
	out := gradvec.Zeros(len(e.params))
	out.AddWeighted(rr.Grads, coefs)
	return out, nil
}

// ApplyGlobal performs θ_{t+1} = θ_t − η·G̃ and refreshes the evaluation
// replica. A nil gradient (everyone rejected) leaves the model unchanged.
func (e *Engine) ApplyGlobal(g gradvec.Vector) {
	if g == nil {
		return
	}
	defer e.em.commitSec.ObserveSince(time.Now())
	for i := range e.params {
		e.params[i] -= e.Cfg.GlobalLR * g[i]
	}
	e.global.SetParamsVector(e.params)
}

// Step runs one undefended FedAvg iteration: collect, aggregate all
// arrivals, apply. Used by the attack-damage experiments (Figures 7, 8 and
// the "without detection" arm of Figure 10). Rounds that miss their quorum
// leave the model unchanged.
func (e *Engine) Step(round int) *RoundResult {
	// With a background context cancellation cannot fire, and a nil accept
	// mask cannot mismatch, so both errors are statically nil.
	rr, _ := e.CollectGradientsContext(context.Background(), round)
	g, _ := e.AggregateRound(rr, nil)
	e.ApplyGlobal(g)
	return rr
}

// Evaluate reports the global model's accuracy and loss on a test set.
func (e *Engine) Evaluate(test *dataset.Dataset, batchSize int) (acc, loss float64) {
	return nn.Evaluate(e.global, test.X, test.Labels, batchSize)
}
