package core

import (
	"context"
	"fmt"
	"math"

	"fifl/internal/chain"
	"fifl/internal/faults"
	"fifl/internal/fl"
	"fifl/internal/gradvec"
	"fifl/internal/metrics"
	"fifl/internal/trace"
)

// Scorer computes detection scores for one round of gradients; NaN marks
// a worker with no usable score. LossDeltaScorer implements it (the exact
// Eq. 5 detector); when set on a CoordinatorConfig it replaces the default
// cosine screening, which loses signal once training converges (see
// EXPERIMENTS.md finding 6).
type Scorer interface {
	Scores(params []float64, grads []gradvec.Vector) []float64
}

// CoordinatorConfig parameterizes a FIFL federation run.
type CoordinatorConfig struct {
	// Detection is the attack-detection threshold configuration.
	Detection Detector
	// Scorer, when non-nil, replaces the cosine detection score with a
	// custom one (e.g. the exact loss-delta of Eq. 5); Detection.Threshold
	// still provides S_y. The benchmark-based server machinery is bypassed
	// in that case.
	Scorer Scorer
	// Reputation configures the reputation tracker.
	Reputation ReputationConfig
	// Contribution configures the b_h threshold.
	Contribution ContributionConfig
	// RewardPerRound is the budget I_sum distributed each iteration.
	RewardPerRound float64
	// RecordToLedger controls whether assessment results are written to
	// the blockchain audit ledger; experiments that only need the model
	// dynamics turn it off to save time.
	RecordToLedger bool
	// Metrics selects the registry the coordinator instruments itself into
	// (detection verdicts, reputation deltas, reward totals). nil joins the
	// engine's registry, so one scrape covers both layers. Metrics are
	// observability-only and never feed a decision.
	Metrics *metrics.Registry
}

// Validate reports whether the configuration describes a runnable
// coordinator. NewCoordinator calls it.
func (c CoordinatorConfig) Validate() error {
	if err := c.Reputation.Validate(); err != nil {
		return err
	}
	if math.IsNaN(c.RewardPerRound) || math.IsInf(c.RewardPerRound, 0) {
		return fmt.Errorf("core: CoordinatorConfig.RewardPerRound must be finite, got %v", c.RewardPerRound)
	}
	if math.IsNaN(c.Detection.Threshold) {
		return fmt.Errorf("core: CoordinatorConfig.Detection.Threshold must not be NaN")
	}
	return nil
}

// RoundReport is the full assessment of one communication iteration.
type RoundReport struct {
	Round         int
	Detection     *DetectionResult
	Contributions *Contributions
	Reputations   []float64
	Shares        []float64 // I_i shares of Eq. 15
	Rewards       []float64 // shares scaled by RewardPerRound
	Servers       []int     // server cluster that executed this round (worker IDs)
	// WorkerIDs maps every cohort slot of this round to its stable worker
	// ID: all per-worker slices above are indexed by slot, and
	// WorkerIDs[slot] names the worker. For a federation that never
	// churned it is the identity [0..n-1].
	WorkerIDs []int
	Global    gradvec.Vector
	// Statuses records each upload's fate in the fault-tolerant runtime;
	// Retries the retransmission attempts made for it.
	Statuses []faults.UploadStatus
	Retries  []int
	// Staleness tags each worker's submission with how many model
	// advances old its training model was (fl.NoSubmission = absent this
	// window); nil for synchronous rounds.
	Staleness []int
	// Committed reports whether the round met the engine's quorum. An
	// uncommitted round is degraded: the model did not move, every worker
	// recorded an uncertain event, and all contributions are zero.
	Committed bool
}

// Coordinator runs the complete FIFL mechanism on top of an fl.Engine,
// as a pipeline of named stages: Collect → Detect → Reputation →
// Aggregate → Contribution → Reward → Record → Reselect. All durable
// state mutation lives in the final commit stages, so a failing round
// leaves the coordinator untouched.
type Coordinator struct {
	Cfg    CoordinatorConfig
	Engine *fl.Engine
	Rep    *ReputationTracker
	Ledger *chain.Ledger

	servers    []int           // current server cluster, as worker IDs
	banned     map[int]bool    // audit-banned IDs, excluded from election
	signers    []*chain.Signer // one per known worker; index = worker ID
	cumulative []float64       // cumulative rewards per known worker ID
	members    *Registry       // lifecycle registry; cohort slot → worker ID
	bhSmoother BHSmoother
	nextRound  int // first round not yet completed; advances after each round
	reg        *metrics.Registry
	cm         coordMetrics
	mech       RewardMechanism
	trace      TraceHook
	pipeline   *Pipeline
	collector  Collector
	// grads runs the gradient kernels of Detect, Aggregate and
	// Contribution: the engine's own, or a sharded collector's edge
	// aggregators (gradsAtEdge), resolved once at construction.
	grads       gradientSource
	gradsAtEdge bool

	// logRecs/logSigners are the Record stage's reusable batch buffers:
	// one AppendBatch per round instead of 5n lock round-trips.
	logRecs    []chain.Record
	logSigners []*chain.Signer
}

// CoordinatorOption customizes a coordinator beyond its config struct.
type CoordinatorOption func(*Coordinator)

// WithMechanism replaces FIFL's incentive module (Eq. 15) with another
// RewardMechanism for the Reward stage — typically one of the §5
// baselines via SampleIncentive or MechanismByName. Every other stage
// (detection, reputation, aggregation, ledger, reselection) runs
// unchanged, so baselines are compared on identical rounds.
func WithMechanism(m RewardMechanism) CoordinatorOption {
	return func(c *Coordinator) {
		if m != nil {
			c.mech = m
		}
	}
}

// WithStageTrace installs a hook observing every pipeline stage execution
// (name, round, error, wall-clock duration). Observability-only: the hook
// must not mutate the round.
func WithStageTrace(h TraceHook) CoordinatorOption {
	return func(c *Coordinator) { c.trace = h }
}

// WithCollector swaps the Collect stage's upload source — by default the
// engine's synchronous collect-all barrier — for an alternative such as
// the async bounded-staleness collectors (fl.NewAsyncCollector for
// in-process federations, transport.NewAsyncCollector over the wire).
// Every other stage runs unchanged: detection, reputation, rewards and
// the ledger see the async round through the same RoundResult shape, with
// staleness-discounted aggregation weights and stale/absent submissions
// mapped onto the Eq. 8–10 reputation events. A collector that is also a
// ShardRoundSource runs the three gradient kernels of Detect, Aggregate
// and Contribution in place of the engine's.
func WithCollector(col Collector) CoordinatorOption {
	return func(c *Coordinator) { c.collector = col }
}

// NewCoordinator builds a FIFL coordinator over an engine. initialServers
// must contain exactly engine.NumServers() worker indices (use
// SelectInitialServers for the paper's accuracy-based election). Options
// select a non-default reward mechanism (WithMechanism) and stage
// tracing (WithStageTrace).
func NewCoordinator(cfg CoordinatorConfig, engine *fl.Engine, initialServers []int, opts ...CoordinatorOption) (*Coordinator, error) {
	if engine == nil {
		return nil, fmt.Errorf("core: NewCoordinator requires an engine")
	}
	return newCoordinatorWithRegistry(cfg, engine, initialServers, NewRegistry(len(engine.Workers)), opts...)
}

// newCoordinatorWithRegistry builds a coordinator whose identity space is
// an existing lifecycle registry — the restore path's entry point, where
// the checkpointed federation may know more identities (departed, banned)
// than the rebuilt engine seats. NewCoordinator wraps it with the
// identity registry of a fresh fixed cohort.
func newCoordinatorWithRegistry(cfg CoordinatorConfig, engine *fl.Engine, initialServers []int, members *Registry, opts ...CoordinatorOption) (*Coordinator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if engine == nil {
		return nil, fmt.Errorf("core: NewCoordinator requires an engine")
	}
	if len(initialServers) != engine.NumServers() {
		return nil, fmt.Errorf("core: got %d initial servers, engine expects %d", len(initialServers), engine.NumServers())
	}
	if members.NumActive() != len(engine.Workers) {
		return nil, fmt.Errorf("core: registry seats %d active workers, engine has %d", members.NumActive(), len(engine.Workers))
	}
	n := members.NumKnown()
	reg := cfg.Metrics
	if reg == nil {
		reg = engine.Metrics()
	}
	c := &Coordinator{
		Cfg:        cfg,
		Engine:     engine,
		Rep:        NewReputationTracker(cfg.Reputation, n),
		Ledger:     chain.NewLedger(),
		servers:    append([]int(nil), initialServers...),
		banned:     make(map[int]bool),
		signers:    make([]*chain.Signer, n),
		cumulative: make([]float64, n),
		members:    members,
		reg:        reg,
		cm:         newCoordMetrics(reg),
		mech:       FIFLIncentive{},
	}
	for _, op := range opts {
		if op != nil {
			op(c)
		}
	}
	flat := engineSource{engine}
	c.grads = flat
	if c.collector == nil {
		c.collector = flat
	} else if src, ok := c.collector.(ShardRoundSource); ok {
		c.grads, c.gradsAtEdge = src, true
	}
	c.pipeline = newRoundPipeline(reg, c.trace)
	for i := 0; i < n; i++ {
		c.signers[i] = newWorkerSigner(i)
		if err := c.Ledger.RegisterExecutor(serverName(i), c.signers[i].Public()); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// newWorkerSigner derives worker id's deterministic ledger signing
// identity; admission uses it too, so a joiner's key depends only on its
// stable ID.
func newWorkerSigner(id int) *chain.Signer {
	var seed [32]byte
	seed[0] = byte(id)
	seed[1] = byte(id >> 8)
	seed[2] = 0x5a
	return chain.NewSigner(serverName(id), seed)
}

// Mechanism returns the reward mechanism the Reward stage runs —
// FIFLIncentive unless WithMechanism overrode it.
func (c *Coordinator) Mechanism() RewardMechanism { return c.mech }

// Pipeline exposes the coordinator's round pipeline (stage names, for
// introspection and tests).
func (c *Coordinator) Pipeline() *Pipeline { return c.pipeline }

// serverName renders a worker index as an executor identity.
func serverName(i int) string { return fmt.Sprintf("device-%03d", i) }

// Metrics returns the registry this coordinator instruments itself into —
// the engine's registry unless CoordinatorConfig.Metrics overrode it. The
// wire transport's server reuses it, so GET /v1/metrics covers the engine,
// the mechanism and the transport in one scrape.
func (c *Coordinator) Metrics() *metrics.Registry { return c.reg }

// Servers returns the current server cluster (worker indices).
func (c *Coordinator) Servers() []int { return append([]int(nil), c.servers...) }

// CumulativeRewards returns each worker's running reward total.
func (c *Coordinator) CumulativeRewards() []float64 {
	return append([]float64(nil), c.cumulative...)
}

// Banned reports whether a device has been excluded by the audit.
func (c *Coordinator) Banned(i int) bool { return c.banned[i] }

// Signer exposes device i's ledger signing identity. In a deployment each
// device holds its own key; the simulation keeps them in one place, and
// tests and examples use this accessor to play the role of a compromised
// server writing forged records.
func (c *Coordinator) Signer(i int) *chain.Signer { return c.signers[i] }

// RunRoundContext executes one complete FIFL iteration through the stage
// pipeline: collect uploads under the engine's fault-tolerant runtime,
// detect attacks, stage the reputation update, aggregate, assess
// contributions, split rewards through the configured mechanism, commit
// everything with the ledger records, and re-elect servers.
//
// A round that misses the engine's quorum degrades gracefully instead of
// failing: the model stays put, every worker records an uncertain event
// (keeping reputations consistent with the paper's treatment of
// transmission failures), contributions and rewards are zero, and the
// report carries Committed == false. Errors are reserved for context
// cancellation, internal shape mismatches and ledger write failures —
// simulated faults are data, not errors. Every stage before Record is free
// of durable side effects, and Record appends to the ledger before it
// commits anything else, so a round that errors in any stage leaves the
// model, reputations and their SLM counters, the b_h smoother, cumulative
// rewards, the server cluster, the round counter and the ledger exactly as
// it found them; running the same round again is safe. Random streams are
// the exception: Collect has already trained the workers and drawn the
// round's faults, so their positions (Snapshot's WorkerDraws and
// EngineDraws) have moved.
func (c *Coordinator) RunRoundContext(ctx context.Context, t int) (*RoundReport, error) {
	rc := &RoundContext{Ctx: ctx, Round: t}
	if err := c.pipeline.Run(c, rc); err != nil {
		return nil, err
	}
	return &RoundReport{
		Round:         t,
		Detection:     rc.Detection,
		Contributions: rc.Contributions,
		Reputations:   rc.Reputations,
		Shares:        rc.Shares,
		Rewards:       rc.Rewards,
		Servers:       rc.Servers,
		WorkerIDs:     rc.ActiveIDs,
		Global:        rc.Global,
		Statuses:      append([]faults.UploadStatus(nil), rc.RR.Status...),
		Retries:       append([]int(nil), rc.RR.Retries...),
		Staleness:     append([]int(nil), rc.RR.Staleness...),
		Committed:     rc.RR.Committed,
	}, nil
}

// NextRound returns the first round this coordinator has not yet
// completed; checkpoints record it so a resumed run continues where the
// interrupted one stopped.
func (c *Coordinator) NextRound() int { return c.nextRound }

// degradedDetection is the assessment of a round that missed its quorum:
// nobody can be judged, so every worker is uncertain — the same treatment
// the paper gives individual transmission failures, applied federation-wide.
func degradedDetection(n int) *DetectionResult {
	det := &DetectionResult{
		Scores:    make([]float64, n),
		Accept:    make([]bool, n),
		Uncertain: make([]bool, n),
	}
	for i := 0; i < n; i++ {
		det.Scores[i] = math.NaN()
		det.Uncertain[i] = true
	}
	return det
}

// logRound writes this round's assessment records to the ledger. Each
// record is written by one of the executing servers and labeled with the
// stable worker ID of its cohort slot, so ledger analytics survive
// membership churn. The upload-status record makes the runtime's verdict
// on each transmission auditable alongside the assessment that depended
// on it. All 5n records go through one AppendBatch — a single lock
// acquisition with the block store pre-grown, and one seal per server
// instead of one signature per record — instead of 5n Append
// round-trips, which is what the large-n shard sweeps were blocked on.
func (c *Coordinator) logRound(t int, rr *fl.RoundResult, det *DetectionResult, contrib *Contributions, reps, shares []float64) error {
	m := len(c.servers)
	ids := c.members.activeRef()
	if want := 5 * len(det.Accept); cap(c.logRecs) < want {
		c.logRecs = make([]chain.Record, 0, want)
		c.logSigners = make([]*chain.Signer, 0, want)
	}
	recs, signers := c.logRecs[:0], c.logSigners[:0]
	for i := range det.Accept {
		r := 0.0
		if det.Accept[i] {
			r = 1
		}
		w := ids[i]
		s := c.signers[c.servers[i%m]]
		recs = append(recs,
			chain.Record{Kind: chain.KindUpload, Iteration: t, WorkerID: w, Value: float64(rr.Status[i])},
			chain.Record{Kind: chain.KindDetection, Iteration: t, WorkerID: w, Value: r},
			chain.Record{Kind: chain.KindReputation, Iteration: t, WorkerID: w, Value: reps[i]},
			chain.Record{Kind: chain.KindContribution, Iteration: t, WorkerID: w, Value: contrib.C[i]},
			chain.Record{Kind: chain.KindReward, Iteration: t, WorkerID: w, Value: shares[i]},
		)
		signers = append(signers, s, s, s, s, s)
	}
	if err := c.Ledger.AppendBatch(signers, recs); err != nil {
		return fmt.Errorf("core: ledger append for round %d: %w", t, err)
	}
	return nil
}

// detectWithScorer adapts a custom Scorer's output into a DetectionResult:
// scores at or above the threshold are accepted; dropped uploads are
// uncertain; NaN scores are rejected. An arrival that is not Usable is
// rejected whatever the Scorer made of it, as the cosine screen rejects
// it, so aggregation never folds it.
func detectWithScorer(s Scorer, threshold float64, params []float64, rr *fl.RoundResult) *DetectionResult {
	scores := s.Scores(params, rr.Grads)
	res := &DetectionResult{
		Scores:    scores,
		Accept:    Threshold(scores, threshold),
		Uncertain: make([]bool, len(scores)),
	}
	for i := range res.Uncertain {
		switch {
		case rr.Dropped(i):
			res.Uncertain[i] = true
			res.Accept[i] = false
		case !rr.Usable(i):
			res.Accept[i] = false
		}
	}
	return res
}

// TraceRecords converts the report into per-worker trace records for a
// trace.Recorder.
func (r *RoundReport) TraceRecords() []trace.WorkerRound {
	out := make([]trace.WorkerRound, len(r.Shares))
	for i := range out {
		w := i
		if r.WorkerIDs != nil {
			w = r.WorkerIDs[i]
		}
		out[i] = trace.WorkerRound{
			Round:        r.Round,
			Worker:       w,
			Score:        r.Detection.Scores[i],
			Accepted:     r.Detection.Accept[i],
			Uncertain:    r.Detection.Uncertain[i],
			Reputation:   r.Reputations[i],
			Contribution: r.Contributions.C[i],
			Reward:       r.Rewards[i],
		}
		if i < len(r.Statuses) {
			out[i].Status = r.Statuses[i].String()
		}
	}
	return out
}

// AuditReputation re-derives worker w's reputation for iteration t from
// the ledger's detection history (the task publisher's recomputation of
// §4.5) and compares it with the reputation record. If the ledger's
// reputation record disagrees with the recomputation, the signing server is
// banned from future election and its name returned.
func (c *Coordinator) AuditReputation(t, w int) (culprit string, err error) {
	if err := c.Ledger.Verify(); err != nil {
		return "", err
	}
	// Recompute R_w(t) by replaying detection events 0..t through a fresh
	// tracker.
	tr := NewReputationTracker(c.Cfg.Reputation, 1)
	for it := 0; it <= t; it++ {
		recs := c.Ledger.Query(chain.KindDetection, it, w)
		ev := EventUncertain
		if len(recs) > 0 {
			if recs[len(recs)-1].Value >= 0.5 {
				ev = EventPositive
			} else {
				ev = EventNegative
			}
		}
		if err := tr.Update([]Event{ev}); err != nil {
			return "", err
		}
	}
	culprit, err = c.Ledger.Audit(chain.KindReputation, t, w, tr.Reputation(0), 1e-9)
	if err != nil {
		return "", err
	}
	if culprit != "" {
		c.BanExecutor(culprit)
	}
	return culprit, nil
}

// BanExecutor removes a device from server eligibility by executor name.
func (c *Coordinator) BanExecutor(name string) {
	for i := range c.signers {
		if serverName(i) == name {
			c.banned[i] = true
		}
	}
}
