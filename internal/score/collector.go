package score

import (
	"fmt"
	"io"
	"math"
	"sort"

	"fifl/internal/chain"
	"fifl/internal/core"
	"fifl/internal/faults"
	"fifl/internal/stats"
)

// Config tunes a Collector.
type Config struct {
	// Tolerance bounds the recorded-vs-recomputed reward disagreement
	// before a round is flagged (0 = 1e-9).
	Tolerance float64
	// MaxMismatches caps how many individual mismatches the report keeps;
	// the count keeps growing past the cap (0 = 20).
	MaxMismatches int
}

// Mismatch is one reward entry where the ledger disagrees with the
// recomputed Eq. 15 mechanism output beyond tolerance.
type Mismatch struct {
	Round      int
	Worker     int
	Recorded   float64
	Recomputed float64
}

// Report is the federation-level audit the collector folds alongside the
// per-worker signals.
type Report struct {
	Blocks  int
	Records int
	Rounds  int
	Workers int
	// Kinds counts records per kind.
	Kinds map[chain.RecordKind]int
	// Fairness is the offline Eq. 16 coefficient: the Pearson correlation
	// between per-worker cumulative contributions and cumulative rewards.
	// FairnessDefined is false when the correlation is undefined
	// (fewer than two workers, constant series).
	Fairness        float64
	FairnessDefined bool
	// RoundFairnessMean averages the per-round Eq. 16 coefficient over
	// the RoundFairnessN rounds where it is defined.
	RoundFairnessMean float64
	RoundFairnessN    int
	// Mismatches holds up to MaxMismatches flagged reward entries;
	// MismatchCount is the true total.
	Mismatches    []Mismatch
	MismatchCount int
	// UnauditedRounds counts rounds whose records were too incomplete to
	// recompute the mechanism (a worker missing its reputation,
	// contribution or reward entry).
	UnauditedRounds int
}

// WriteText renders the report for terminals and log files.
func (r *Report) WriteText(w io.Writer) error {
	fair := "undefined"
	if r.FairnessDefined {
		fair = fmt.Sprintf("%.9f", r.Fairness)
	}
	roundFair := "undefined"
	if r.RoundFairnessN > 0 {
		roundFair = fmt.Sprintf("%.9f over %d rounds", r.RoundFairnessMean, r.RoundFairnessN)
	}
	if _, err := fmt.Fprintf(w,
		"blocks %d, records %d, rounds %d, workers %d\n"+
			"fairness (Eq. 16, cumulative): %s\n"+
			"fairness (per-round mean): %s\n"+
			"reward audit: %d mismatches, %d unaudited rounds\n",
		r.Blocks, r.Records, r.Rounds, r.Workers, fair, roundFair,
		r.MismatchCount, r.UnauditedRounds); err != nil {
		return err
	}
	for _, m := range r.Mismatches {
		if _, err := fmt.Fprintf(w, "  round %d worker %d: recorded %g, recomputed %g\n",
			m.Round, m.Worker, m.Recorded, m.Recomputed); err != nil {
			return err
		}
	}
	if r.MismatchCount > len(r.Mismatches) {
		if _, err := fmt.Fprintf(w, "  (%d further mismatches elided)\n",
			r.MismatchCount-len(r.Mismatches)); err != nil {
			return err
		}
	}
	return nil
}

// roundEntry buffers one worker's records for the iteration currently
// being folded. logRound writes five kinds per worker per round; the
// presence bits let the audit skip rounds with holes instead of
// fabricating zeros.
type roundEntry struct {
	upload, verdict, rep, contrib, reward                          float64
	hasUpload, hasVerdict, hasRep, hasContrib, hasReward, observed bool
}

// Collector folds a ledger — streamed block by block or scanned in place —
// into per-worker signals and a federation report. Records must arrive in
// ledger order: iterations never decrease (the coordinator appends rounds
// in sequence), and a full round is folded once the next iteration's first
// record appears, so memory stays proportional to one round, not the
// chain.
type Collector struct {
	cfg     Config
	workers map[int]*WorkerSignals

	blocks    int
	records   int
	rounds    int
	kinds     map[chain.RecordKind]int
	lastHash  [32]byte
	haveBlock bool

	curIter int
	haveCur bool
	pending map[int]*roundEntry

	roundFairness stats.Running
	mismatches    []Mismatch
	mismatchCount int
	unaudited     int
}

// NewCollector returns an empty collector with defaults applied.
func NewCollector(cfg Config) *Collector {
	if cfg.Tolerance <= 0 {
		cfg.Tolerance = 1e-9
	}
	if cfg.MaxMismatches <= 0 {
		cfg.MaxMismatches = 20
	}
	return &Collector{
		cfg:     cfg,
		workers: make(map[int]*WorkerSignals),
		kinds:   make(map[chain.RecordKind]int),
		pending: make(map[int]*roundEntry),
	}
}

// AddBlock folds one chain block, verifying hash-chain continuity against
// the previous block it saw. Use this when streaming a binary export.
func (c *Collector) AddBlock(b chain.Block) error {
	if c.haveBlock && b.PrevHash != c.lastHash {
		return fmt.Errorf("score: block %d breaks the hash chain", b.Index)
	}
	c.lastHash = b.Hash
	c.haveBlock = true
	c.blocks++
	return c.AddRecord(b.Record)
}

// AddRecord folds one ledger record. Records must arrive with
// non-decreasing iterations.
func (c *Collector) AddRecord(r chain.Record) error {
	c.records++
	c.kinds[r.Kind]++
	if r.Kind == chain.KindElection {
		return nil // membership records carry no per-worker signal
	}
	if c.haveCur && r.Iteration < c.curIter {
		return fmt.Errorf("score: record for round %d after round %d — ledger out of order", r.Iteration, c.curIter)
	}
	if !c.haveCur || r.Iteration > c.curIter {
		if c.haveCur {
			c.flushRound()
		}
		c.curIter = r.Iteration
		c.haveCur = true
	}
	e := c.pending[r.WorkerID]
	if e == nil {
		e = &roundEntry{}
		c.pending[r.WorkerID] = e
	}
	e.observed = true
	switch r.Kind {
	case chain.KindUpload:
		e.upload, e.hasUpload = r.Value, true
	case chain.KindDetection:
		e.verdict, e.hasVerdict = r.Value, true
	case chain.KindReputation:
		e.rep, e.hasRep = r.Value, true
	case chain.KindContribution:
		e.contrib, e.hasContrib = r.Value, true
	case chain.KindReward:
		e.reward, e.hasReward = r.Value, true
	default:
		return fmt.Errorf("score: unknown record kind %q", r.Kind)
	}
	return nil
}

// FromStream folds a chain binary export without materializing it:
// constant memory in the chain length.
func (c *Collector) FromStream(r io.Reader) error {
	return chain.StreamBinary(r, c.AddBlock)
}

// flushRound folds the buffered iteration into the per-worker signals,
// audits its rewards against the recomputed mechanism, and clears the
// buffer.
func (c *Collector) flushRound() {
	ids := make([]int, 0, len(c.pending))
	for id := range c.pending {
		ids = append(ids, id)
	}
	sort.Ints(ids)

	// Majority verdict among arrived workers, for the consensus-distance
	// signal. Ties side with accept, matching the detector's benefit of
	// the doubt for uncertain workers.
	arrived, arrivedAccepts := 0, 0
	for _, id := range ids {
		e := c.pending[id]
		if e.hasUpload && e.hasVerdict && faults.UploadStatus(e.upload).Arrived() {
			arrived++
			if e.verdict >= 1 {
				arrivedAccepts++
			}
		}
	}
	majorityAccept := 2*arrivedAccepts >= arrived

	auditable := len(ids) > 0
	reps := make([]float64, 0, len(ids))
	contribs := make([]float64, 0, len(ids))
	rewards := make([]float64, 0, len(ids))
	for _, id := range ids {
		e := c.pending[id]
		w := c.worker(id)
		w.Rounds++
		if e.hasUpload {
			switch faults.UploadStatus(e.upload) {
			case faults.StatusOK:
				w.OK++
			case faults.StatusRetried:
				w.Retried++
			case faults.StatusDropped:
				w.Dropped++
			case faults.StatusTimedOut:
				w.TimedOut++
			case faults.StatusCrashed:
				w.Crashed++
			}
		}
		if e.hasVerdict {
			accept := e.verdict >= 1
			if accept {
				w.Accepts++
				w.curRejectStreak = 0
			} else {
				w.curRejectStreak++
				if w.curRejectStreak > w.LongestRejectStreak {
					w.LongestRejectStreak = w.curRejectStreak
				}
			}
			if w.haveVerdict && e.verdict != w.lastVerdict {
				w.Flips++
			}
			w.lastVerdict, w.haveVerdict = e.verdict, true
			if e.hasUpload && faults.UploadStatus(e.upload).Arrived() {
				w.ArrivedRounds++
				if accept != majorityAccept {
					w.ConsensusDisagrees++
				}
			}
		}
		if e.hasRep {
			if !w.seenRep {
				w.RepFirst, w.RepMin, w.RepMax = e.rep, e.rep, e.rep
				w.seenRep = true
			}
			w.RepLast = e.rep
			w.RepMin = math.Min(w.RepMin, e.rep)
			w.RepMax = math.Max(w.RepMax, e.rep)
			w.RepSum += e.rep
		}
		if e.hasContrib {
			if !w.seenContrib {
				w.ContribMin, w.ContribMax = e.contrib, e.contrib
				w.seenContrib = true
			}
			w.ContribTotal += e.contrib
			w.ContribMin = math.Min(w.ContribMin, e.contrib)
			w.ContribMax = math.Max(w.ContribMax, e.contrib)
			w.ContribN++
		}
		if e.hasReward {
			w.RewardTotal += e.reward
		}
		if e.hasRep && e.hasContrib && e.hasReward {
			reps = append(reps, e.rep)
			contribs = append(contribs, e.contrib)
			rewards = append(rewards, e.reward)
		} else {
			auditable = false
		}
	}

	if auditable {
		c.auditRound(ids, reps, contribs, rewards)
	} else if len(ids) > 0 {
		c.unaudited++
	}
	c.rounds++
	for id := range c.pending {
		delete(c.pending, id)
	}
}

// auditRound recomputes Eq. 15 from the round's recorded reputations and
// contributions and flags reward entries disagreeing beyond tolerance; it
// also folds the round's Eq. 16 coefficient when defined.
func (c *Collector) auditRound(ids []int, reps, contribs, rewards []float64) {
	want, err := core.RewardShares(reps, contribs)
	if err != nil {
		c.unaudited++
		return
	}
	for i := range want {
		diff := math.Abs(rewards[i] - want[i])
		if diff > c.cfg.Tolerance || math.IsNaN(diff) {
			c.mismatchCount++
			if len(c.mismatches) < c.cfg.MaxMismatches {
				c.mismatches = append(c.mismatches, Mismatch{
					Round: c.curIter, Worker: ids[i],
					Recorded: rewards[i], Recomputed: want[i],
				})
			}
		}
	}
	if r, err := stats.Pearson(contribs, rewards); err == nil {
		c.roundFairness.Add(r)
	}
}

// worker returns (creating if needed) the fold state for a worker ID.
func (c *Collector) worker(id int) *WorkerSignals {
	w := c.workers[id]
	if w == nil {
		w = &WorkerSignals{Worker: id}
		c.workers[id] = w
	}
	return w
}

// Finalize flushes the buffered round and returns the folded signal set
// and federation report. The collector must not be used afterwards; use
// Snapshot to observe a live fold mid-stream.
func (c *Collector) Finalize() (*SignalSet, *Report) {
	if c.haveCur {
		c.flushRound()
		c.haveCur = false
	}
	set := &SignalSet{
		Workers: make([]WorkerSignals, 0, len(c.workers)),
		Rounds:  c.rounds,
	}
	ids := make([]int, 0, len(c.workers))
	for id := range c.workers {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		w := *c.workers[id]
		set.Workers = append(set.Workers, w)
		set.TotalContribution += w.ContribTotal
		set.TotalReward += w.RewardTotal
	}

	rep := &Report{
		Blocks:          c.blocks,
		Records:         c.records,
		Rounds:          c.rounds,
		Workers:         len(set.Workers),
		Kinds:           make(map[chain.RecordKind]int, len(c.kinds)),
		Mismatches:      append([]Mismatch(nil), c.mismatches...),
		MismatchCount:   c.mismatchCount,
		UnauditedRounds: c.unaudited,
	}
	for k, n := range c.kinds {
		rep.Kinds[k] = n
	}
	rep.RoundFairnessMean = c.roundFairness.Mean()
	rep.RoundFairnessN = c.roundFairness.N()

	// Offline Eq. 16: correlation of cumulative contributions vs rewards
	// across workers, exactly what the in-run sums produce.
	xs := make([]float64, len(set.Workers))
	ys := make([]float64, len(set.Workers))
	for i, w := range set.Workers {
		xs[i] = w.ContribTotal
		ys[i] = w.RewardTotal
	}
	if r, err := stats.Pearson(xs, ys); err == nil {
		rep.Fairness, rep.FairnessDefined = r, true
	}
	return set, rep
}

// Snapshot clones the fold — including the partially buffered round — and
// finalizes the clone, so a follow-mode poller can report without
// disturbing the live collector.
func (c *Collector) Snapshot() (*SignalSet, *Report) {
	clone := NewCollector(c.cfg)
	clone.blocks, clone.records, clone.rounds = c.blocks, c.records, c.rounds
	clone.lastHash, clone.haveBlock = c.lastHash, c.haveBlock
	clone.curIter, clone.haveCur = c.curIter, c.haveCur
	clone.roundFairness = c.roundFairness
	clone.mismatches = append([]Mismatch(nil), c.mismatches...)
	clone.mismatchCount, clone.unaudited = c.mismatchCount, c.unaudited
	for k, n := range c.kinds {
		clone.kinds[k] = n
	}
	for id, w := range c.workers {
		cw := *w
		clone.workers[id] = &cw
	}
	for id, e := range c.pending {
		ce := *e
		clone.pending[id] = &ce
	}
	return clone.Finalize()
}
