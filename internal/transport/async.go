package transport

import (
	"context"
	"fmt"
	"time"

	"fifl/internal/fl"
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
// the hub's queue and folds it with fl.FoldWindow: the freshest
// submission per seated worker at staleness weight 1/(1+s), anything
// past the bound rejected, everyone else pending. The advance cadence is
// count (AdvanceEvery) or time (AdvanceInterval), whichever fires first.
type AsyncCollector struct {
	hub    *Hub
	engine *fl.Engine
	cfg    AsyncConfig

	// carry holds submissions reinstated from a checkpoint; the next
	// window folds them before draining live traffic.
	carry []persist.AsyncUpload
}

// NewAsyncCollector switches the hub into async mode and builds the
// collector over it. The engine must be the coordinator's engine, built
// over stubs from hub.Workers() or hub.WorkersFor(cohort); its
// synchronous runtime options (deadlines, fault injection) do not apply
// to async windows, and an engine with a quorum is refused, since every
// window commits.
func NewAsyncCollector(hub *Hub, engine *fl.Engine, cfg AsyncConfig) (*AsyncCollector, error) {
	if hub == nil {
		return nil, fmt.Errorf("transport: NewAsyncCollector requires a hub")
	}
	if engine == nil {
		return nil, fmt.Errorf("transport: NewAsyncCollector requires an engine")
	}
	if q := engine.Quorum(); q > 0 {
		return nil, fmt.Errorf("transport: async windows always commit, so the engine's quorum %d would never apply", q)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	for slot, w := range engine.Workers {
		if id := w.ID(); id < 0 || id >= hub.n {
			return nil, fmt.Errorf("transport: engine slot %d holds worker %d, hub covers %d IDs", slot, id, hub.n)
		}
	}
	// With the timer disabled, the count trigger is the only way a window
	// advances — and between advances each seated worker submits at most
	// once (it has nothing new to train against until the next broadcast).
	// A count above the seated cohort therefore deadlocks takePending on
	// its nil deadline channel; reject it here instead of hanging the first
	// round.
	if seated := len(engine.Workers); cfg.AdvanceInterval <= 0 && cfg.AdvanceEvery > seated {
		return nil, &UnsatisfiableAdvanceError{AdvanceEvery: cfg.AdvanceEvery, Workers: seated}
	}
	if err := hub.EnableAsync(cfg.MaxStaleness); err != nil {
		return nil, err
	}
	return &AsyncCollector{hub: hub, engine: engine, cfg: cfg}, nil
}

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
	taken, err := c.hub.takePending(ctx, max(c.cfg.AdvanceEvery-len(c.carry), 0), c.cfg.AdvanceInterval)
	if err != nil {
		return nil, fmt.Errorf("transport: async round %d: %w", t, err)
	}
	window := append(c.carry, taken...)
	c.carry = nil
	return fl.FoldWindow(c.engine, t, c.cfg.MaxStaleness, window), nil
}

// AsyncSnapshot captures the collector's inter-round state: the wire
// uploads queued (or carried) but not yet folded into any window. The
// queue is copied, not drained — checkpointing must not perturb the run;
// the gradients are shared, as nothing mutates an accepted upload.
func (c *AsyncCollector) AsyncSnapshot() (*persist.AsyncState, error) {
	queued := c.hub.peekPending()
	pending := make([]persist.AsyncUpload, 0, len(c.carry)+len(queued))
	return &persist.AsyncState{Pending: append(append(pending, c.carry...), queued...)}, nil
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
	for i, u := range st.Pending {
		if u.Worker < 0 || u.Worker >= c.hub.n {
			return fmt.Errorf("transport: checkpointed upload %d is from worker %d, federation has %d", i, u.Worker, c.hub.n)
		}
		if len(u.Grad) != dim {
			return fmt.Errorf("transport: checkpointed upload %d has %d dims, model has %d", i, len(u.Grad), dim)
		}
	}
	c.carry = append([]persist.AsyncUpload(nil), st.Pending...)
	return nil
}
