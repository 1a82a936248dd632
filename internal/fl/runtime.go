package fl

import (
	"context"
	"fmt"
	"time"

	"fifl/internal/faults"
	"fifl/internal/gradvec"
	"fifl/internal/metrics"
	"fifl/internal/parallel"
)

// options collects the fault-tolerant runtime knobs installed by the
// functional options of NewEngine.
type options struct {
	quorum        int
	workerTimeout time.Duration
	maxRetries    int
	backoff       time.Duration
	injector      faults.Injector
	metrics       *metrics.Registry
}

// validate checks option values against the federation size.
func (o options) validate(workers int) error {
	if o.quorum < 0 {
		return fmt.Errorf("fl: quorum must be non-negative, got %d", o.quorum)
	}
	if workers > 0 && o.quorum > workers {
		return fmt.Errorf("fl: quorum %d exceeds federation size %d", o.quorum, workers)
	}
	if o.workerTimeout < 0 {
		return fmt.Errorf("fl: worker timeout must be non-negative, got %v", o.workerTimeout)
	}
	if o.maxRetries < 0 {
		return fmt.Errorf("fl: retry count must be non-negative, got %d", o.maxRetries)
	}
	if o.backoff < 0 {
		return fmt.Errorf("fl: retry backoff must be non-negative, got %v", o.backoff)
	}
	return nil
}

// Option customizes the fault-tolerant round runtime.
type Option func(*options)

// WithQuorum sets the round-commit threshold: a round succeeds iff at
// least k uploads arrive. Rounds below quorum degrade gracefully — no
// aggregation, an uncertain event for every worker — instead of moving
// the model on a sliver of the federation. k = 0 disables the check.
func WithQuorum(k int) Option {
	return func(o *options) { o.quorum = k }
}

// WithWorkerTimeout sets the per-worker round deadline (straggler
// cutoff). A worker still training when the deadline expires is recorded
// as TimedOut and its eventual result discarded; its goroutine is left to
// finish in the background, so worker implementations that coordinate
// with each other keep their liveness. The deadline also bounds the
// virtual retransmission schedule of WithRetry. d = 0 disables the
// cutoff.
func WithWorkerTimeout(d time.Duration) Option {
	return func(o *options) { o.workerTimeout = d }
}

// WithRetry lets a worker retransmit an upload lost in transit up to n
// times, with exponential backoff (the k-th retransmission waits
// backoff·2^(k−1)). Retransmission outcomes are decided by the engine's
// fault injector on the engine's deterministic random stream — no wall
// clock enters the decision path; the backoff is virtual time, charged
// against the WithWorkerTimeout deadline when one is set.
func WithRetry(n int, backoff time.Duration) Option {
	return func(o *options) {
		o.maxRetries = n
		o.backoff = backoff
	}
}

// WithFaultInjector installs a simulated failure model consulted for
// every transmission attempt. It replaces the Config.DropRate shorthand;
// combine models with faults.Compose.
func WithFaultInjector(inj faults.Injector) Option {
	return func(o *options) { o.injector = inj }
}

// WithMetrics routes the engine's instrumentation into reg instead of the
// process-wide metrics.Default — round phase durations, per-status upload
// counts, retry counts, commit/degrade tallies. Metrics are strictly
// observability-only: no value recorded here is ever read back by the
// runtime, so enabling them cannot perturb a deterministic run.
func WithMetrics(reg *metrics.Registry) Option {
	return func(o *options) { o.metrics = reg }
}

// workerPlan is the pre-drawn failure schedule for one worker in one
// round.
type workerPlan struct {
	status  faults.UploadStatus
	retries int
}

// faultPlan fixes every fault decision for the round before the parallel
// fan-out, drawing sequentially from the engine's random stream: ascending
// worker, then ascending transmission attempt. This is what makes the
// runtime deterministic for a fixed seed regardless of scheduling order,
// core count, or wall-clock jitter.
func (e *Engine) faultPlan(round int) []workerPlan {
	if cap(e.planBuf) < len(e.Workers) {
		e.planBuf = make([]workerPlan, len(e.Workers))
	}
	plan := e.planBuf[:len(e.Workers)]
	for i := range e.Workers {
		plan[i] = workerPlan{status: faults.StatusOK}
		f := faults.FaultNone
		if e.opt.injector != nil {
			f = e.opt.injector.Fault(round, i, 0, e.src)
		}
		if fw, ok := e.Workers[i].(faults.Faulty); ok {
			f = faults.Worst(f, fw.FaultAt(round))
		}
		switch f {
		case faults.FaultCrash:
			plan[i].status = faults.StatusCrashed
		case faults.FaultStraggle:
			// Simulated straggler: the deadline expires in virtual time,
			// no wall clock involved.
			plan[i].status = faults.StatusTimedOut
		case faults.FaultDrop:
			plan[i] = e.retrySchedule(round, i)
		}
	}
	return plan
}

// retrySchedule plays out the retransmission attempts for a worker whose
// first upload was lost. Each retransmission waits backoff·2^(k−1) of
// virtual time; when a worker deadline is configured, a schedule that
// would run past it gives up with TimedOut. Loss decisions come from the
// fault injector on the engine's stream, keeping them deterministic.
func (e *Engine) retrySchedule(round, worker int) workerPlan {
	p := workerPlan{status: faults.StatusDropped}
	var waited time.Duration
	for k := 1; k <= e.opt.maxRetries; k++ {
		waited += e.opt.backoff << (k - 1)
		if e.opt.workerTimeout > 0 && waited > e.opt.workerTimeout {
			p.status = faults.StatusTimedOut
			return p
		}
		p.retries = k
		f := faults.FaultNone
		if e.opt.injector != nil {
			f = e.opt.injector.Fault(round, worker, k, e.src)
		}
		if f == faults.FaultNone {
			p.status = faults.StatusRetried
			return p
		}
	}
	return p
}

// CollectGradientsContext runs local training across the federation with
// the fault-tolerant runtime: the failure schedule (drops, retries,
// crashes, simulated stragglers) is fixed deterministically up front, the
// workers train on one goroutine each, each is cut off at the
// WithWorkerTimeout deadline, and the result records a per-worker
// UploadStatus plus whether the round met its quorum.
//
// Workers whose upload is scheduled to fail are not trained — the servers
// never see their gradients, and skipping the compute keeps large
// simulated federations cheap. Workers cut off by the wall-clock deadline
// keep running in the background (their result is discarded on arrival),
// so coordinating worker groups retain liveness.
//
// Collected gradients land in an engine-owned flat arena (one n×d
// gradvec.Matrix reused round over round): RoundResult.Grads[i] is a row
// view, not a private allocation, so downstream consumers slice the
// backing buffer zero-copy and steady-state rounds allocate no gradient
// storage. The arena makes the result's gradients valid only until the
// next collection on this engine — Clone to retain.
//
// The returned error is non-nil only when ctx is cancelled; simulated
// failures are data, not errors.
func (e *Engine) CollectGradientsContext(ctx context.Context, round int) (*RoundResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("fl: collect round %d: %w", round, err)
	}
	start := time.Now()
	n := len(e.Workers)
	d := len(e.params)
	if e.arena == nil || e.arena.Rows() != n || e.arena.Dim() != d {
		e.arena = gradvec.NewMatrix(n, d)
	}
	arena := e.arena
	// The RoundResult is engine-owned scratch (see its doc): reuse the
	// struct and its slices whenever the federation size is unchanged.
	rr := e.rr
	if rr == nil || len(rr.Grads) != n {
		rr = &RoundResult{
			Grads:   make([]gradvec.Vector, n),
			Samples: make([]int, n),
			Status:  make([]faults.UploadStatus, n),
			Retries: make([]int, n),
		}
		e.rr = rr
	}
	for i := range rr.Grads {
		rr.Grads[i] = nil
	}
	rr.Round, rr.Quorum, rr.Arrived, rr.Committed = round, e.opt.quorum, 0, false
	plan := e.faultPlan(round)
	// Snapshot the parameters for the fan-out. With a worker deadline, a
	// straggler abandoned at the deadline may still be reading its copy
	// while a later ApplyGlobal writes e.params — or while a later round
	// refills a shared snapshot — so each timed round gets a private copy.
	// Without a deadline every worker finishes before this call returns,
	// and the snapshot buffer is reused round over round.
	var params []float64
	if e.opt.workerTimeout > 0 {
		params = append([]float64(nil), e.params...)
	} else {
		e.paramsSnap = append(e.paramsSnap[:0], e.params...)
		params = e.paramsSnap
	}

	// store files worker i's arrived gradient into its arena row, through
	// UploadRow: a wrong-length gradient lands as a row of NaNs, and a nil
	// one never reached the servers, so it is filed as dropped. Rows and
	// statuses are disjoint, so concurrent stores need no synchronization.
	// Abandoned stragglers never reach store: their result dies on the
	// buffered channel, so a goroutine finishing after the deadline cannot
	// scribble on a row the next round reuses.
	store := func(i int, g gradvec.Vector) {
		if g = UploadRow(g, d); g != nil {
			rr.Grads[i] = arena.SetRow(i, g)
		} else {
			rr.Status[i] = faults.StatusDropped
		}
	}

	parallel.Each(n, func(i int) {
		rr.Samples[i] = e.Workers[i].NumSamples()
		rr.Status[i] = plan[i].status
		rr.Retries[i] = plan[i].retries
		if !plan[i].status.Arrived() {
			return
		}
		if e.opt.workerTimeout <= 0 {
			store(i, e.Workers[i].LocalTrain(round, params))
			return
		}
		// Deadline-bounded training: the worker runs on its own goroutine
		// and delivers through a buffered channel, so an abandoned
		// straggler completes in the background without touching the
		// round's result.
		done := make(chan gradvec.Vector, 1)
		go func() {
			done <- e.Workers[i].LocalTrain(round, params)
		}()
		timer := time.NewTimer(e.opt.workerTimeout)
		defer timer.Stop()
		select {
		case g := <-done:
			store(i, g)
		case <-timer.C:
			rr.Status[i] = faults.StatusTimedOut
		case <-ctx.Done():
			rr.Status[i] = faults.StatusTimedOut
		}
	})
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("fl: collect round %d: %w", round, err)
	}
	for _, s := range rr.Status {
		if s.Arrived() {
			rr.Arrived++
		}
	}
	rr.Committed = rr.Quorum <= 0 || rr.Arrived >= rr.Quorum
	e.em.observeRound(rr)
	e.em.collectSec.ObserveSince(start)
	return rr, nil
}
