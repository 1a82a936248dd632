package core

import (
	"fmt"
	"math"
)

// Event is the outcome of one worker's update in one iteration, as judged
// by the attack detection module (§4.2): positive for a useful gradient
// (r_i = 1), negative for a rejected gradient (r_i = 0), uncertain for
// transmission failures and unidentifiable gradients.
type Event int

// Event values.
const (
	EventPositive Event = iota
	EventNegative
	EventUncertain
)

// ReputationConfig parameterizes the reputation module.
type ReputationConfig struct {
	// Gamma is the time-decay factor γ of Eq. 10; larger values weight
	// recent events more heavily.
	Gamma float64
	// Initial is R_i(0); the paper's Figure 11 uses 0.
	Initial float64
	// AlphaT, AlphaN, AlphaU weight trust, distrust and uncertainty in the
	// period SLM score of Eq. 9.
	AlphaT, AlphaN, AlphaU float64
}

// DefaultReputationConfig mirrors the paper's setup: R(0) = 0, a moderate
// decay, and SLM weights that reward trust and penalize distrust and
// uncertainty equally.
func DefaultReputationConfig() ReputationConfig {
	return ReputationConfig{Gamma: 0.1, Initial: 0, AlphaT: 1, AlphaN: 1, AlphaU: 1}
}

// Validate reports whether the configuration is usable: the decay factor γ
// must lie in [0,1] for Eq. 10 to be a convex combination (Theorem 1's
// convergence argument depends on it).
func (c ReputationConfig) Validate() error {
	if math.IsNaN(c.Gamma) || c.Gamma < 0 || c.Gamma > 1 {
		return fmt.Errorf("core: ReputationConfig.Gamma must be in [0,1], got %v", c.Gamma)
	}
	if math.IsNaN(c.Initial) || math.IsInf(c.Initial, 0) {
		return fmt.Errorf("core: ReputationConfig.Initial must be finite, got %v", c.Initial)
	}
	return nil
}

// ReputationTracker maintains per-worker reputations with the paper's
// time-decayed update (Eq. 10) plus the period-based SLM counters
// (Eq. 8–9). Theorem 1: under a constant attack probability p, the decayed
// reputation converges in expectation to 1 − p.
type ReputationTracker struct {
	cfg ReputationConfig
	r   []float64
	pt  []int // positive event counts (SLM period counters)
	pn  []int // negative event counts
	pu  []int // uncertain event counts
}

// NewReputationTracker creates a tracker for n workers.
func NewReputationTracker(cfg ReputationConfig, n int) *ReputationTracker {
	t := &ReputationTracker{
		cfg: cfg,
		r:   make([]float64, n),
		pt:  make([]int, n),
		pn:  make([]int, n),
		pu:  make([]int, n),
	}
	for i := range t.r {
		t.r[i] = cfg.Initial
	}
	return t
}

// N returns the number of tracked workers.
func (t *ReputationTracker) N() int { return len(t.r) }

// Clone returns an independent deep copy of the tracker. The round
// pipeline stages its reputation update on a clone and swaps it in only
// at commit, so a stage error anywhere in the round leaves the live
// tracker untouched.
func (t *ReputationTracker) Clone() *ReputationTracker {
	return &ReputationTracker{
		cfg: t.cfg,
		r:   append([]float64(nil), t.r...),
		pt:  append([]int(nil), t.pt...),
		pn:  append([]int(nil), t.pn...),
		pu:  append([]int(nil), t.pu...),
	}
}

// UpdateIDs folds one round of events into the reputations of the
// assessed workers, event[k] applying to worker ids[k] in slice order:
// R_i(t+1) = (1−γ)·R_i(t) + γ·r_i(t+1). Uncertain events leave the decayed
// reputation unchanged (no evidence either way) but are counted for the
// SLM uncertainty mass Su. The round cohort may be a sparse subset of
// every identity the federation has ever known; workers outside ids are
// untouched (no event, no decay: they were not assessed this round).
// Malformed input is rejected before any state changes.
func (t *ReputationTracker) UpdateIDs(ids []int, events []Event) error {
	if len(events) != len(ids) {
		return fmt.Errorf("core: reputation update with %d events for %d cohort workers", len(events), len(ids))
	}
	for k, id := range ids {
		if id < 0 || id >= len(t.r) {
			return fmt.Errorf("core: reputation update for unknown worker %d (tracker knows %d)", id, len(t.r))
		}
		if e := events[k]; e != EventPositive && e != EventNegative && e != EventUncertain {
			return fmt.Errorf("core: unknown reputation event %d", e)
		}
	}
	g := t.cfg.Gamma
	for k, id := range ids {
		switch events[k] {
		case EventPositive:
			t.r[id] = (1-g)*t.r[id] + g
			t.pt[id]++
		case EventNegative:
			t.r[id] = (1 - g) * t.r[id]
			t.pn[id]++
		case EventUncertain:
			t.pu[id]++
		}
	}
	return nil
}

// Add grows the tracker by one worker with the given starting reputation
// and zeroed SLM counters — the Eq. 8–10 bootstrap a joiner receives: no
// trust, no distrust, full uncertainty until its first assessed round.
// The new worker's index is the tracker's previous N. Non-finite starts
// are rejected so a joiner cannot poison later folds.
func (t *ReputationTracker) Add(initial float64) (int, error) {
	if math.IsNaN(initial) || math.IsInf(initial, 0) {
		return 0, fmt.Errorf("core: Add with non-finite initial reputation %v", initial)
	}
	id := len(t.r)
	t.r = append(t.r, initial)
	t.pt = append(t.pt, 0)
	t.pn = append(t.pn, 0)
	t.pu = append(t.pu, 0)
	return id, nil
}

// Reputation returns worker i's current decayed reputation R_i(t).
func (t *ReputationTracker) Reputation(i int) float64 { return t.r[i] }

// Reputations returns a copy of all current reputations.
func (t *ReputationTracker) Reputations() []float64 {
	return append([]float64(nil), t.r...)
}

// SetReputation overrides worker i's reputation; used by the audit path
// when the task publisher restores a tampered value, and by checkpoint
// restore. A non-finite value would silently poison every later Eq. 10
// fold and Eq. 15 reward split, so it is rejected before any state
// changes, as is an out-of-range worker index.
func (t *ReputationTracker) SetReputation(i int, v float64) error {
	if i < 0 || i >= len(t.r) {
		return fmt.Errorf("core: SetReputation worker %d outside federation of %d", i, len(t.r))
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("core: SetReputation(%d) with non-finite value %v", i, v)
	}
	t.r[i] = v
	return nil
}

// PeriodCounts returns copies of the SLM period counters (positive,
// negative, uncertain event counts per worker, Eq. 8). Checkpoints
// persist them so a resumed run reproduces the same SLM triples.
func (t *ReputationTracker) PeriodCounts() (pt, pn, pu []int) {
	return append([]int(nil), t.pt...),
		append([]int(nil), t.pn...),
		append([]int(nil), t.pu...)
}

// SetPeriodCounts restores the SLM period counters from a checkpoint. All
// three slices must cover every worker and hold non-negative counts; the
// tracker is unchanged on error.
func (t *ReputationTracker) SetPeriodCounts(pt, pn, pu []int) error {
	n := len(t.r)
	if len(pt) != n || len(pn) != n || len(pu) != n {
		return fmt.Errorf("core: SetPeriodCounts with %d/%d/%d counters for %d workers",
			len(pt), len(pn), len(pu), n)
	}
	for i := 0; i < n; i++ {
		if pt[i] < 0 || pn[i] < 0 || pu[i] < 0 {
			return fmt.Errorf("core: SetPeriodCounts with negative counter for worker %d", i)
		}
	}
	copy(t.pt, pt)
	copy(t.pn, pn)
	copy(t.pu, pu)
	return nil
}
