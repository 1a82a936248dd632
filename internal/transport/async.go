package transport

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"fifl/internal/faults"
	"fifl/internal/fl"
	"fifl/internal/gradvec"
	"fifl/internal/metrics"
	"fifl/internal/persist"
)

// AsyncConfig parameterizes the wire-side bounded-staleness collector.
type AsyncConfig struct {
	// MaxStaleness bounds how old a broadcast a submission may have trained
	// against: staleness s = current round - trained round contributes with
	// weight 1/(1+s) up to the bound; past it the upload is rejected
	// (faults.StatusStale) and penalized as a negative reputation event.
	MaxStaleness int
	// AdvanceEvery is the count cadence: the model advances once this many
	// submissions have been folded into the window. Must be >= 1.
	AdvanceEvery int
	// AdvanceInterval is the time cadence: a window that has waited this
	// long advances with whatever arrived, possibly nothing. 0 disables the
	// timer (count trigger only).
	AdvanceInterval time.Duration
}

// UnsatisfiableAdvanceError reports an async configuration whose advance
// trigger can never fire: the count cadence demands more submissions than
// the federation can deliver between advances (each worker submits once
// per broadcast, and the next broadcast only happens after an advance),
// and no time cadence exists to break the deadlock — Hub.takePending
// would block forever on a nil deadline channel.
type UnsatisfiableAdvanceError struct {
	// AdvanceEvery is the configured count trigger.
	AdvanceEvery int
	// Workers is the federation size the trigger can never be met by.
	Workers int
}

func (e *UnsatisfiableAdvanceError) Error() string {
	return fmt.Sprintf(
		"transport: AsyncConfig.AdvanceEvery=%d exceeds the federation size %d with no AdvanceInterval — the advance trigger can never fire",
		e.AdvanceEvery, e.Workers)
}

// Validate reports whether the configuration describes a runnable
// collector.
func (c AsyncConfig) Validate() error {
	if c.MaxStaleness < 0 {
		return fmt.Errorf("transport: AsyncConfig.MaxStaleness must be >= 0, got %d", c.MaxStaleness)
	}
	if c.AdvanceEvery < 1 {
		return fmt.Errorf("transport: AsyncConfig.AdvanceEvery must be >= 1, got %d", c.AdvanceEvery)
	}
	if c.AdvanceInterval < 0 {
		return fmt.Errorf("transport: AsyncConfig.AdvanceInterval must be >= 0, got %v", c.AdvanceInterval)
	}
	return nil
}

// AsyncCollector is the wire-side asynchronous Collect stage: workers
// submit over HTTP whenever they finish training — tagged with the
// broadcast round they trained against — and each advance window drains
// the hub's queue, folds the freshest submission per worker with
// staleness weight 1/(1+s), rejects anything past the bound, and leaves
// everyone else pending. The advance cadence is count (AdvanceEvery) or
// time (AdvanceInterval), whichever fires first.
type AsyncCollector struct {
	hub    *Hub
	engine *fl.Engine
	cfg    AsyncConfig

	// carry holds submissions reinstated from a checkpoint; the next
	// window folds them before draining live traffic.
	carry []pendingSub

	subs       []*metrics.Counter // per-staleness-bucket submission counters
	overSubs   *metrics.Counter
	superseded *metrics.Counter
}

// NewAsyncCollector switches the hub into async mode and builds the
// collector over it. The engine must be the coordinator's engine built
// over hub.Workers(); its synchronous runtime options (quorum, deadlines,
// fault injection) do not apply to async windows.
func NewAsyncCollector(hub *Hub, engine *fl.Engine, cfg AsyncConfig) (*AsyncCollector, error) {
	if hub == nil {
		return nil, fmt.Errorf("transport: NewAsyncCollector requires a hub")
	}
	if engine == nil {
		return nil, fmt.Errorf("transport: NewAsyncCollector requires an engine")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if got := len(engine.Workers); got != hub.n {
		return nil, fmt.Errorf("transport: engine has %d workers, hub expects %d", got, hub.n)
	}
	// With the timer disabled, the count trigger is the only way a window
	// advances — and between advances each worker submits at most once (it
	// has nothing new to train against until the next broadcast). A count
	// above the federation size therefore deadlocks takePending on its nil
	// deadline channel; reject it here instead of hanging the first round.
	if cfg.AdvanceInterval <= 0 && cfg.AdvanceEvery > hub.n {
		return nil, &UnsatisfiableAdvanceError{AdvanceEvery: cfg.AdvanceEvery, Workers: hub.n}
	}
	if err := hub.EnableAsync(cfg.MaxStaleness); err != nil {
		return nil, err
	}
	c := &AsyncCollector{hub: hub, engine: engine, cfg: cfg}
	reg := engine.Metrics()
	reg.Help("fifl_async_submissions_total",
		"Async submissions folded per advance window, bucketed by staleness; 'over' = past the bound and rejected.")
	c.subs = make([]*metrics.Counter, cfg.MaxStaleness+1)
	for s := range c.subs {
		c.subs[s] = reg.Counter("fifl_async_submissions_total", "staleness", strconv.Itoa(s))
	}
	c.overSubs = reg.Counter("fifl_async_submissions_total", "staleness", "over")
	reg.Help("fifl_async_superseded_total",
		"Async submissions dominated by a fresher same-worker submission in the same advance window and dropped unfolded.")
	c.superseded = reg.Counter("fifl_async_superseded_total")
	return c, nil
}

// MaxStaleness reports the collector's staleness bound.
func (c *AsyncCollector) MaxStaleness() int { return c.cfg.MaxStaleness }

// CollectRound runs one advance window: broadcast the round-t model, wait
// for the cadence to fire, and fold what arrived. Submissions race the
// window boundary by design — one that misses this drain is simply queued
// for the next, one staleness older.
func (c *AsyncCollector) CollectRound(ctx context.Context, t int) (*fl.RoundResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("transport: async round %d: %w", t, err)
	}
	if t < 0 {
		return nil, fmt.Errorf("transport: async round %d is negative", t)
	}
	c.hub.publish(t, c.engine.Params())
	need := c.cfg.AdvanceEvery - len(c.carry)
	if need < 0 {
		need = 0
	}
	taken, err := c.hub.takePending(ctx, need, c.cfg.AdvanceInterval)
	if err != nil {
		return nil, fmt.Errorf("transport: async round %d: %w", t, err)
	}
	window := append(c.carry, taken...)
	c.carry = nil

	n := len(c.engine.Workers)
	rr := &fl.RoundResult{
		Round:     t,
		Grads:     make([]gradvec.Vector, n),
		Samples:   make([]int, n),
		Status:    make([]faults.UploadStatus, n),
		Retries:   make([]int, n),
		Staleness: make([]int, n),
		Committed: true,
		Dim:       len(c.engine.ParamsRef()),
	}
	for i, w := range c.engine.Workers {
		rr.Samples[i] = w.NumSamples()
		rr.Status[i] = faults.StatusPending
		rr.Staleness[i] = fl.NoSubmission
	}
	// Freshest submission per worker wins; an older one it supersedes in
	// the same window is dominated and dropped without prejudice.
	best := make(map[int]pendingSub, len(window))
	for _, sub := range window {
		if prev, seen := best[sub.worker]; !seen || sub.round > prev.round {
			best[sub.worker] = sub
		}
	}
	if dropped := len(window) - len(best); dropped > 0 {
		c.superseded.Add(int64(dropped))
	}
	for w, sub := range best {
		s := t - sub.round
		if s < 0 {
			s = 0 // a same-window submission for the just-published round
		}
		rr.Staleness[w] = s
		if s > c.cfg.MaxStaleness {
			c.overSubs.Inc()
			rr.Status[w] = faults.StatusStale
			// The rejected upload contributes no gradient, so it carries no
			// sample weight either — the row must not claim NumSamples() it
			// never delivered.
			rr.Samples[w] = 0
			continue
		}
		c.subs[s].Inc()
		rr.Grads[w] = sub.grad
		rr.Samples[w] = sub.samples
		rr.Status[w] = faults.StatusOK
		rr.Arrived++
	}
	return rr, nil
}

// AsyncSnapshot captures the collector's inter-round state: the wire
// uploads queued (or carried) but not yet folded into any window. The
// queue is copied, not drained — checkpointing must not perturb the run.
func (c *AsyncCollector) AsyncSnapshot() (*persist.AsyncState, error) {
	queued := append(append([]pendingSub(nil), c.carry...), c.hub.peekPending()...)
	st := &persist.AsyncState{Pending: make([]persist.AsyncUpload, len(queued))}
	for i, sub := range queued {
		st.Pending[i] = persist.AsyncUpload{
			Worker:       sub.worker,
			TrainedRound: sub.round,
			Samples:      sub.samples,
			Grad:         append([]float64(nil), sub.grad...),
		}
	}
	return st, nil
}

// RestoreAsync reinstates checkpointed pending uploads into a collector
// that has not run any window yet; the next CollectRound folds them first.
func (c *AsyncCollector) RestoreAsync(st *persist.AsyncState) error {
	if st == nil {
		return fmt.Errorf("transport: checkpoint carries no async state — was it taken in sync mode?")
	}
	if len(st.HistRounds) > 0 {
		return fmt.Errorf("transport: checkpoint carries in-process model history — restore it with fl.AsyncCollector")
	}
	if len(c.carry) > 0 {
		return fmt.Errorf("transport: RestoreAsync on a collector already carrying %d uploads", len(c.carry))
	}
	dim := len(c.engine.Params())
	carry := make([]pendingSub, len(st.Pending))
	for i, u := range st.Pending {
		if u.Worker < 0 || u.Worker >= c.hub.n {
			return fmt.Errorf("transport: checkpointed upload %d is from worker %d, federation has %d", i, u.Worker, c.hub.n)
		}
		if len(u.Grad) != dim {
			return fmt.Errorf("transport: checkpointed upload %d has %d dims, model has %d", i, len(u.Grad), dim)
		}
		carry[i] = pendingSub{
			worker:  u.Worker,
			round:   u.TrainedRound,
			samples: u.Samples,
			grad:    append(gradvec.Vector(nil), u.Grad...),
		}
	}
	c.carry = carry
	return nil
}
