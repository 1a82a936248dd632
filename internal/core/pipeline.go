package core

import (
	"context"
	"fmt"
	"time"

	"fifl/internal/fl"
	"fifl/internal/gradvec"
	"fifl/internal/metrics"
)

// RoundContext carries one round's state between pipeline stages. Stages
// communicate only through it: each stage reads the fields earlier stages
// filled and writes its own, and nothing touches durable coordinator
// state until the commit stages (Record, Reselect). The exported fields
// mirror RoundReport so custom mechanisms and trace hooks see the same
// view the report will.
type RoundContext struct {
	// Ctx is the round's cancellation context.
	Ctx context.Context
	// Round is the iteration index t.
	Round int
	// RR is the collected round (Collect).
	RR *fl.RoundResult
	// Servers is the cluster that executes this round (worker IDs),
	// snapshotted at collection time — reselection happens after the
	// report is sealed.
	Servers []int
	// ActiveIDs maps every cohort slot of this round to its stable worker
	// ID, snapshotted at collection time: membership changes land between
	// rounds, so one snapshot covers every stage. Identity [0..n-1] for a
	// federation that never churned.
	ActiveIDs []int
	// Detection is the screening verdict (Detect).
	Detection *DetectionResult
	// PrevReputations snapshots R(t) before this round's update.
	PrevReputations []float64
	// Reputations holds the staged post-update R(t+1) (Reputation).
	Reputations []float64
	// Global is the filtered aggregate G̃ (Aggregate); nil for degraded
	// rounds. It is not applied to the model until Record commits.
	Global gradvec.Vector
	// Contributions is the §4.3 assessment (Contribution).
	Contributions *Contributions
	// Shares and Rewards are the round's payout (Reward).
	Shares  []float64
	Rewards []float64

	// stagedRep is the cloned tracker holding the staged reputation
	// update; Record swaps it in.
	stagedRep *ReputationTracker
	// stagedSmoother is the b_h EMA state after folding this round's
	// threshold; Record copies it back.
	stagedSmoother BHSmoother
}

// Stage is one named step of the round pipeline.
type Stage struct {
	Name string
	Run  func(c *Coordinator, rc *RoundContext) error
}

// StageTrace describes one stage execution, for trace hooks.
type StageTrace struct {
	Round   int
	Stage   string
	Err     error
	Elapsed time.Duration
}

// TraceHook observes every stage execution (including failures). Hooks
// are observability-only: they run after the stage and must not mutate
// the round. Install one with WithStageTrace.
type TraceHook func(StageTrace)

// Pipeline executes the round stages in order, recording a per-stage
// latency histogram (fifl_pipeline_stage_seconds) and invoking the trace
// hook after each stage. The first stage error aborts the run; because
// every mutation of durable state lives in the commit stages at the end,
// an abort leaves the coordinator exactly as the round found it.
type Pipeline struct {
	stages []Stage
	lat    []*metrics.Histogram
	trace  TraceHook
}

// roundStages is the FIFL round decomposition. Collect through Reward are
// pure with respect to coordinator state: they only fill the
// RoundContext. Record and Reselect are the commit points.
func roundStages() []Stage {
	return []Stage{
		{Name: "Collect", Run: stageCollect},
		{Name: "Detect", Run: stageDetect},
		{Name: "Reputation", Run: stageReputation},
		{Name: "Aggregate", Run: stageAggregate},
		{Name: "Contribution", Run: stageContribution},
		{Name: "Reward", Run: stageReward},
		{Name: "Record", Run: stageRecord},
		{Name: "Reselect", Run: stageReselect},
	}
}

// newRoundPipeline builds the standard pipeline, resolving one latency
// histogram per stage in reg.
func newRoundPipeline(reg *metrics.Registry, trace TraceHook) *Pipeline {
	reg.Help("fifl_pipeline_stage_seconds", "Wall-clock duration of each round-pipeline stage.")
	p := &Pipeline{stages: roundStages(), trace: trace}
	p.lat = make([]*metrics.Histogram, len(p.stages))
	for i, st := range p.stages {
		p.lat[i] = reg.Histogram("fifl_pipeline_stage_seconds", metrics.DefBuckets, "stage", st.Name)
	}
	return p
}

// StageNames returns the pipeline's stage names in execution order.
func (p *Pipeline) StageNames() []string {
	out := make([]string, len(p.stages))
	for i, st := range p.stages {
		out[i] = st.Name
	}
	return out
}

// Run executes the stages in order against one RoundContext. Latencies
// and trace callbacks are recorded for every stage that runs, including
// the failing one.
func (p *Pipeline) Run(c *Coordinator, rc *RoundContext) error {
	for i, st := range p.stages {
		start := time.Now()
		err := st.Run(c, rc)
		elapsed := time.Since(start)
		p.lat[i].Observe(elapsed.Seconds())
		if p.trace != nil {
			p.trace(StageTrace{Round: rc.Round, Stage: st.Name, Err: err, Elapsed: elapsed})
		}
		if err != nil {
			return fmt.Errorf("core: round %d stage %s: %w", rc.Round, st.Name, err)
		}
	}
	return nil
}

// stageCollect gathers the round's uploads — local training under the
// engine's fault-tolerant synchronous barrier by default, or whatever
// source WithCollector installed (the async bounded-staleness collectors,
// a sharded federation's bridge) — and snapshots the executing server
// cluster. Async rounds arrive already folded, staleness-discounted
// aggregation weights included, so every later stage sees a fully tagged
// RoundResult.
func stageCollect(c *Coordinator, rc *RoundContext) error {
	rr, err := c.collector.CollectRound(rc.Ctx, rc.Round)
	if err != nil {
		return err
	}
	if rr == nil {
		return fmt.Errorf("collector returned a nil round")
	}
	rc.RR = rr
	rc.Servers = c.Servers()
	rc.ActiveIDs = c.members.ActiveIDs()
	if len(rc.ActiveIDs) != len(rr.Grads) {
		return fmt.Errorf("registry seats %d workers, round collected %d", len(rc.ActiveIDs), len(rr.Grads))
	}
	return nil
}

// stageDetect screens the round (§4.1): the slice-wise cosine screen
// against the server cluster's own gradients by default, a custom
// Scorer's thresholded scores when configured. A round below quorum skips
// detection — too few uploads arrived to judge anyone. Every path ends in
// settle, the one rule from upload status and verdict to reputation event.
func stageDetect(c *Coordinator, rc *RoundContext) error {
	switch {
	case !rc.RR.Committed:
		rc.Detection = degradedDetection(len(rc.RR.Grads))
	case c.Cfg.Scorer != nil:
		rc.Detection = detectWithScorer(c.Cfg.Scorer, c.Cfg.Detection.Threshold, c.Engine.Params(), rc.RR)
	default:
		// The detector indexes the round by cohort slot, so the server
		// cluster's worker IDs are mapped to their slots here. For a
		// zero-churn federation slot == ID and the mapping is the identity.
		slots, err := c.serverSlots(rc.Servers)
		if err != nil {
			return err
		}
		det, err := c.Cfg.Detection.detect(rc.Ctx, rc.RR, slots, c.Engine.NumServers(), c.grads)
		if err != nil {
			return err
		}
		rc.Detection = det
	}
	rc.Detection.settle(rc.RR)
	return nil
}

// stageReputation folds the detection events into a CLONE of the live
// tracker (§4.2). The staged tracker becomes authoritative only when
// Record commits, so a later stage error cannot leave reputations
// half-updated.
func stageReputation(c *Coordinator, rc *RoundContext) error {
	rc.PrevReputations = cohortReputations(c.Rep, rc.ActiveIDs)
	staged := c.Rep.Clone()
	if err := staged.UpdateIDs(rc.ActiveIDs, rc.Detection.Events()); err != nil {
		return err
	}
	rc.stagedRep = staged
	rc.Reputations = cohortReputations(staged, rc.ActiveIDs)
	return nil
}

// cohortReputations projects the tracker's ID-indexed reputations onto
// the round cohort, slot order. With the identity cohort it equals
// tr.Reputations() element for element.
func cohortReputations(tr *ReputationTracker, ids []int) []float64 {
	out := make([]float64, len(ids))
	for k, id := range ids {
		out[k] = tr.Reputation(id)
	}
	return out
}

// stageAggregate computes the filtered aggregate G̃ = Σ n_i·r_i·G_i /
// Σ n_j·r_j (§4.1). A round below quorum moves no model: G̃ stays nil. The
// model update θ ← θ − η·G̃ is deferred to Record.
func stageAggregate(c *Coordinator, rc *RoundContext) error {
	if !rc.RR.Committed {
		return nil
	}
	g, err := c.grads.AggregateRound(rc.Ctx, rc.RR, rc.Detection.Accept)
	if err != nil {
		return err
	}
	rc.Global = g
	return nil
}

// stageContribution assesses every arrival against the filtered global
// gradient (§4.3), staging — not committing — the b_h smoother update.
func stageContribution(c *Coordinator, rc *RoundContext) error {
	contrib, err := assessContributions(rc.Ctx, c.Cfg.Contribution, c.grads, rc.RR, rc.Global)
	if err != nil {
		return err
	}
	sm := c.bhSmoother
	if s := c.Cfg.Contribution.SmoothBH; s > 0 && contrib.BH > 0 {
		RescaleWithBH(contrib, sm.Update(contrib.BH, s), c.Cfg.Contribution.Clamp)
	}
	rc.stagedSmoother = sm
	rc.Contributions = contrib
	return nil
}

// stageReward splits the round's budget through the coordinator's
// RewardMechanism (FIFL's Eq. 15 by default, a §5 baseline under
// WithMechanism).
func stageReward(c *Coordinator, rc *RoundContext) error {
	shares, err := c.mech.Shares(rc)
	if err != nil {
		return err
	}
	if len(shares) != len(rc.RR.Grads) {
		return fmt.Errorf("mechanism %s returned %d shares for %d workers",
			c.mech.Name(), len(shares), len(rc.RR.Grads))
	}
	rc.Shares = shares
	rc.Rewards = Rewards(shares, c.Cfg.RewardPerRound)
	return nil
}

// stageRecord is the commit point: it writes the round's ledger records,
// then swaps in the staged reputations, applies the global update and folds
// the smoother and cumulative rewards. The ledger goes first because it is
// the only step that can fail, and a failed AppendBatch writes no block, so
// a Record error leaves the mechanism state and the ledger exactly as the
// round found them.
func stageRecord(c *Coordinator, rc *RoundContext) error {
	if c.Cfg.RecordToLedger {
		if err := c.logRound(rc.Round, rc.RR, rc.Detection, rc.Contributions, rc.Reputations, rc.Shares); err != nil {
			return err
		}
	}
	c.Rep = rc.stagedRep
	c.Engine.ApplyGlobal(rc.Global)
	c.bhSmoother = rc.stagedSmoother
	for i, r := range rc.Rewards {
		c.cumulative[rc.ActiveIDs[i]] += r
	}
	c.cm.observeRound(rc.Detection, rc.PrevReputations, rc.Reputations, rc.Rewards, c.Ledger.Len())
	return nil
}

// stageReselect re-elects the server cluster for the next iteration
// (§4.5) and advances the round counter.
func stageReselect(c *Coordinator, rc *RoundContext) error {
	c.servers = ReselectServersFrom(rc.ActiveIDs, rc.Reputations, c.Engine.NumServers(), c.banned)
	if rc.Round+1 > c.nextRound {
		c.nextRound = rc.Round + 1
	}
	return nil
}
