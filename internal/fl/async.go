package fl

import (
	"context"
	"fmt"
	"strconv"

	"fifl/internal/faults"
	"fifl/internal/gradvec"
	"fifl/internal/metrics"
	"fifl/internal/persist"
)

// LagSchedule decides how stale worker w's submission is at advance t: it
// trained against the model of advance t-lag. 0 is fresh, anything past
// the collector's MaxStaleness is rejected as over-bound. Schedules must
// be deterministic — they are the async analogue of the fault injector
// and replay identically on resume.
type LagSchedule func(round, worker int) int

// StaticLag builds a schedule from fixed per-worker lags: lags[w] is
// worker w's lag in every window it submits; workers past the end of the
// slice are fresh.
func StaticLag(lags []int) LagSchedule {
	return func(round, worker int) int {
		if worker < len(lags) {
			return lags[worker]
		}
		return 0
	}
}

// AsyncConfig parameterizes the bounded-staleness asynchronous collector.
type AsyncConfig struct {
	// MaxStaleness bounds how old a model a submission may have trained
	// against: staleness s contributes with weight 1/(1+s) up to the
	// bound, and s > MaxStaleness is rejected (faults.StatusStale) and
	// penalized as a negative reputation event. Must be >= 0.
	MaxStaleness int
	// AdvanceEvery is the count cadence: each advance window folds this
	// many worker submissions (round-robin over the federation) and the
	// model advances once per window. Must be in [1, workers].
	AdvanceEvery int
	// Lag simulates non-lockstep participation: the staleness of each
	// submission in the schedule above. nil = everyone fresh.
	Lag LagSchedule
}

// Validate reports whether the configuration describes a runnable
// collector for a federation of n workers.
func (c AsyncConfig) Validate(n int) error {
	if c.MaxStaleness < 0 {
		return fmt.Errorf("fl: AsyncConfig.MaxStaleness must be >= 0, got %d", c.MaxStaleness)
	}
	if c.AdvanceEvery < 1 || c.AdvanceEvery > n {
		return fmt.Errorf("fl: AsyncConfig.AdvanceEvery must be in [1, %d], got %d", n, c.AdvanceEvery)
	}
	return nil
}

// AsyncCollector is the in-process asynchronous Collect stage: instead of
// the synchronous collect-all barrier, each advance window trains a
// round-robin cohort of AdvanceEvery workers, each against the model its
// lag schedule says it last pulled, and tags every submission with its
// staleness. Workers outside the window are pending (still training);
// submissions past the staleness bound arrive but are rejected. The
// deterministic rotation plus a deterministic lag schedule make async
// runs — and their kill-and-resume — exactly reproducible.
type AsyncCollector struct {
	engine *Engine
	cfg    AsyncConfig

	// histRounds/histParams retain the last MaxStaleness+1 advance models
	// so a lag-s submission can train against the parameters it actually
	// pulled.
	histRounds []int
	histParams [][]float64

	subs     []*metrics.Counter // per-staleness-bucket submission counters
	overSubs *metrics.Counter
}

// NewAsyncCollector builds a bounded-staleness collector over an engine.
// The engine's synchronous runtime options (quorum, deadlines, fault
// injection) do not apply to async windows: the lag schedule is the async
// failure model.
func NewAsyncCollector(e *Engine, cfg AsyncConfig) (*AsyncCollector, error) {
	if e == nil {
		return nil, fmt.Errorf("fl: NewAsyncCollector requires an engine")
	}
	if err := cfg.Validate(len(e.Workers)); err != nil {
		return nil, err
	}
	c := &AsyncCollector{engine: e, cfg: cfg}
	c.initMetrics(e.Metrics())
	return c, nil
}

// initMetrics resolves the per-staleness-bucket submission counters.
func (c *AsyncCollector) initMetrics(reg *metrics.Registry) {
	reg.Help("fifl_async_submissions_total",
		"Async submissions folded per advance window, bucketed by staleness; 'over' = past the bound and rejected.")
	c.subs = make([]*metrics.Counter, c.cfg.MaxStaleness+1)
	for s := range c.subs {
		c.subs[s] = reg.Counter("fifl_async_submissions_total", "staleness", strconv.Itoa(s))
	}
	c.overSubs = reg.Counter("fifl_async_submissions_total", "staleness", "over")
}

// MaxStaleness reports the collector's staleness bound.
func (c *AsyncCollector) MaxStaleness() int { return c.cfg.MaxStaleness }

// observe counts one submission into its staleness bucket.
func (c *AsyncCollector) observe(lag int) {
	if lag > c.cfg.MaxStaleness {
		c.overSubs.Inc()
	} else {
		c.subs[lag].Inc()
	}
}

// pushHistory records the model of advance t, trimming the window to the
// MaxStaleness+1 most recent advances.
func (c *AsyncCollector) pushHistory(t int, params []float64) {
	c.histRounds = append(c.histRounds, t)
	c.histParams = append(c.histParams, params)
	if keep := c.cfg.MaxStaleness + 1; len(c.histRounds) > keep {
		drop := len(c.histRounds) - keep
		c.histRounds = append(c.histRounds[:0], c.histRounds[drop:]...)
		c.histParams = append(c.histParams[:0], c.histParams[drop:]...)
	}
}

// paramsAt returns the retained model of advance t, or nil if it has
// rolled out of the history window.
func (c *AsyncCollector) paramsAt(t int) []float64 {
	for i, r := range c.histRounds {
		if r == t {
			return c.histParams[i]
		}
	}
	return nil
}

// CollectRound runs one advance window: the cohort (t·AdvanceEvery + j)
// mod n, j = 0..AdvanceEvery-1, submits — each with the staleness its lag
// schedule dictates — and every other worker stays pending. Rounds must
// be collected sequentially; the window's RoundResult is freshly
// allocated (async collection is not on the zero-alloc sync hot path).
func (c *AsyncCollector) CollectRound(ctx context.Context, t int) (*RoundResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("fl: async round %d: %w", t, err)
	}
	if t < 0 {
		return nil, fmt.Errorf("fl: async round %d is negative", t)
	}
	if last := len(c.histRounds) - 1; last >= 0 && c.histRounds[last] != t-1 {
		return nil, fmt.Errorf("fl: async round %d does not follow advance %d — async rounds are sequential", t, c.histRounds[last])
	}
	c.pushHistory(t, c.engine.Params())
	n := len(c.engine.Workers)
	rr := &RoundResult{
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
		rr.Staleness[i] = NoSubmission
	}
	for j := 0; j < c.cfg.AdvanceEvery; j++ {
		w := (t*c.cfg.AdvanceEvery + j) % n
		if rr.Staleness[w] != NoSubmission {
			continue // AdvanceEvery > n wrapped onto the same worker
		}
		lag := 0
		if c.cfg.Lag != nil {
			lag = c.cfg.Lag(t, w)
		}
		if lag < 0 {
			lag = 0
		}
		if lag > t {
			lag = t // nothing predates the first advance
		}
		rr.Staleness[w] = lag
		c.observe(lag)
		if lag > c.cfg.MaxStaleness {
			// Over-bound: the upload arrives but the bounded-staleness rule
			// rejects it — no training happens on our side of the
			// simulation, the detect stage prices the lateness.
			rr.Status[w] = faults.StatusStale
			continue
		}
		params := c.paramsAt(t - lag)
		if params == nil {
			return nil, fmt.Errorf("fl: async round %d: model of advance %d rolled out of the history window", t, t-lag)
		}
		g := c.engine.Workers[w].LocalTrain(t-lag, params)
		if g == nil {
			rr.Status[w] = faults.StatusDropped
			continue
		}
		rr.Grads[w] = g
		rr.Status[w] = faults.StatusOK
		rr.Arrived++
	}
	return rr, nil
}

// AsyncSnapshot captures the collector's inter-round state: the retained
// model history. The in-process collector holds no pending uploads
// between rounds — every window folds synchronously with its advance.
func (c *AsyncCollector) AsyncSnapshot() (*persist.AsyncState, error) {
	st := &persist.AsyncState{
		HistRounds: make([]int64, len(c.histRounds)),
		HistParams: make([][]float64, len(c.histParams)),
	}
	for i, r := range c.histRounds {
		st.HistRounds[i] = int64(r)
		st.HistParams[i] = append([]float64(nil), c.histParams[i]...)
	}
	return st, nil
}

// RestoreAsync reinstates checkpointed state into a collector that has
// not collected any round yet.
func (c *AsyncCollector) RestoreAsync(st *persist.AsyncState) error {
	if st == nil {
		return fmt.Errorf("fl: checkpoint carries no async state — was it taken in sync mode?")
	}
	if len(c.histRounds) > 0 {
		return fmt.Errorf("fl: RestoreAsync on a collector that already ran %d advances", len(c.histRounds))
	}
	if len(st.Pending) > 0 {
		return fmt.Errorf("fl: checkpoint carries %d pending wire uploads — restore it with the transport collector", len(st.Pending))
	}
	dim := len(c.engine.ParamsRef())
	for i, p := range st.HistParams {
		if len(p) != dim {
			return fmt.Errorf("fl: async history params %d have %d dims, model has %d", i, len(p), dim)
		}
	}
	c.histRounds = make([]int, len(st.HistRounds))
	c.histParams = make([][]float64, len(st.HistParams))
	for i, r := range st.HistRounds {
		c.histRounds[i] = int(r)
		c.histParams[i] = append([]float64(nil), st.HistParams[i]...)
	}
	return nil
}
