package fl

import (
	"context"
	"fmt"
	"math"
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

// StalenessWeight is the bounded-staleness aggregation discount for an
// async round: a submission that trained against a model s advances old
// contributes with weight 1/(1+s), so fresh work (s=0) keeps full weight
// and older work decays harmonically. Submissions past the bound — s >
// max, with max >= 0 — are rejected outright (weight 0), as are negative
// or non-finite staleness values. max < 0 disables the bound and only the
// harmonic decay applies.
func StalenessWeight(s float64, max int) float64 {
	if math.IsNaN(s) || math.IsInf(s, 0) || s < 0 {
		return 0
	}
	if max >= 0 && s > float64(max) {
		return 0
	}
	return 1 / (1 + s)
}

// FoldWindow turns one advance window of async uploads into round t's
// RoundResult over the engine's seated cohort — the one bounded-staleness
// rule both async collectors share. Each upload names its worker by
// stable ID and is placed in that worker's cohort slot; uploads from IDs
// no longer seated are dropped unfolded. The freshest upload per worker
// wins, and each one it displaces counts as superseded. Its staleness is
// s = max(t − TrainedRound, 0): past maxStaleness the row is StatusStale
// with no gradient and no sample weight, an in-bound nil gradient is
// StatusDropped, and anything else folds, filed through UploadRow, with
// weight StalenessWeight(s, maxStaleness). Workers without an upload stay
// pending. A negative bound folds as 0. The result is freshly allocated
// (async collection is not on the zero-alloc sync hot path).
func FoldWindow(e *Engine, t, maxStaleness int, window []persist.AsyncUpload) *RoundResult {
	maxStaleness = max(maxStaleness, 0)
	n := len(e.Workers)
	rr := &RoundResult{
		Round:     t,
		Grads:     make([]gradvec.Vector, n),
		Samples:   make([]int, n),
		Status:    make([]faults.UploadStatus, n),
		Retries:   make([]int, n),
		Staleness: make([]int, n),
		Weights:   make([]float64, n),
		Committed: true,
	}
	slotOf := make(map[int]int, n)
	best := make([]int, n) // window index of each slot's freshest upload, -1 = none
	for i, w := range e.Workers {
		slotOf[w.ID()] = i
		best[i] = -1
		rr.Samples[i] = w.NumSamples()
		rr.Status[i] = faults.StatusPending
		rr.Staleness[i] = NoSubmission
	}
	superseded := 0
	for i, u := range window {
		slot, seated := slotOf[u.Worker]
		if !seated {
			continue
		}
		if b := best[slot]; b >= 0 {
			superseded++
			if u.TrainedRound <= window[b].TrainedRound {
				continue
			}
		}
		best[slot] = i
	}

	reg := e.Metrics()
	reg.Help("fifl_async_submissions_total",
		"Async submissions folded per advance window, bucketed by staleness; 'over' = past the bound and rejected.")
	reg.Help("fifl_async_superseded_total",
		"Async submissions dominated by a fresher same-worker submission in the same advance window and dropped unfolded.")
	buckets := make([]*metrics.Counter, maxStaleness+1)
	for s := range buckets {
		buckets[s] = reg.Counter("fifl_async_submissions_total", "staleness", strconv.Itoa(s))
	}
	over := reg.Counter("fifl_async_submissions_total", "staleness", "over")
	reg.Counter("fifl_async_superseded_total").Add(int64(superseded))

	for slot, b := range best {
		if b < 0 {
			continue
		}
		u := window[b]
		s := max(t-u.TrainedRound, 0)
		rr.Staleness[slot] = s
		if s > maxStaleness {
			// The upload arrived but the bound rejects it: it contributes
			// no gradient, so it carries no sample weight either.
			over.Inc()
			rr.Status[slot] = faults.StatusStale
			rr.Samples[slot] = 0
			continue
		}
		buckets[s].Inc()
		rr.Samples[slot] = u.Samples
		if u.Grad == nil {
			rr.Status[slot] = faults.StatusDropped
			continue
		}
		rr.Grads[slot] = UploadRow(u.Grad, len(e.ParamsRef()))
		rr.Status[slot] = faults.StatusOK
		rr.Weights[slot] = StalenessWeight(float64(s), maxStaleness)
		rr.Arrived++
	}
	return rr
}

// AsyncCollector is the in-process asynchronous Collect stage: instead of
// the synchronous collect-all barrier, each advance window trains a
// round-robin cohort of AdvanceEvery workers, each against the model its
// lag schedule says it last pulled, and folds their uploads with
// FoldWindow. Workers outside the window are pending (still training);
// submissions past the staleness bound arrive but are rejected, and skip
// local training so the RNG stream stays aligned with a run where they
// were never asked. The deterministic rotation plus a deterministic lag
// schedule make async runs — and their kill-and-resume — exactly
// reproducible.
type AsyncCollector struct {
	engine *Engine
	cfg    AsyncConfig

	// histRounds/histParams retain the last MaxStaleness+1 advance models
	// so a lag-s submission can train against the parameters it actually
	// pulled.
	histRounds []int
	histParams [][]float64
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
	return &AsyncCollector{engine: e, cfg: cfg}, nil
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

// CollectRound runs one advance window: the cohort slots (t·AdvanceEvery
// + j) mod n, j = 0..AdvanceEvery-1, submit — each with the staleness its
// lag schedule dictates — and every other worker stays pending. Rounds
// must be collected sequentially.
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
	// A cadence above a cohort shrunk by departures wraps onto the same
	// slots; each slot submits at most once per window.
	window := make([]persist.AsyncUpload, 0, min(c.cfg.AdvanceEvery, n))
	for j := 0; j < c.cfg.AdvanceEvery && j < n; j++ {
		slot := (t*c.cfg.AdvanceEvery + j) % n
		w := c.engine.Workers[slot]
		lag := 0
		if c.cfg.Lag != nil {
			lag = c.cfg.Lag(t, slot)
		}
		lag = min(max(lag, 0), t) // nothing predates the first advance
		u := persist.AsyncUpload{Worker: w.ID(), TrainedRound: t - lag, Samples: w.NumSamples()}
		if lag <= c.cfg.MaxStaleness {
			params := c.paramsAt(t - lag)
			if params == nil {
				return nil, fmt.Errorf("fl: async round %d: model of advance %d rolled out of the history window", t, t-lag)
			}
			u.Grad = w.LocalTrain(t-lag, params)
		}
		window = append(window, u)
	}
	return FoldWindow(c.engine, t, c.cfg.MaxStaleness, window), nil
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
