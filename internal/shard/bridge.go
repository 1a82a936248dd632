package shard

import (
	"context"
	"fmt"
	"math"

	"fifl/internal/core"
	"fifl/internal/faults"
	"fifl/internal/fl"
	"fifl/internal/gradvec"
	"fifl/internal/transport/codec"
)

// Bridge is the root coordinator's view of its shards: a
// core.ShardRoundSource that drives the directive stream. Collect
// broadcasts the round's parameters and server cluster and unfolds the
// shards' collect evidence into one n-worker RoundResult (statuses,
// retries, sample weights, and the server cluster's gradients at their
// global indices — every other gradient row stays nil); Detect assembles
// the composite benchmark from those server rows and folds the shards'
// locally computed scores; Aggregate folds the pre-aggregated partials in
// the blocked association (per-cohort partials, normalized at the root);
// Distances folds the shards' Eq. 13 scalars. The root pipeline's
// remaining stages consume only per-worker scalars and run unchanged.
type Bridge struct {
	hub    *ShardHub
	engine *fl.Engine // the root engine: parameter state and model shape
	quorum int

	serversFn func() []int // the round's server cluster, bound post-construction

	// Per-round carry between the pipeline stages that consult the bridge.
	round   int
	detect  []*codec.ShardSubmit // detect wave, held from DetectRound for AggregateRound
	done    bool
	doneSeq int
}

// NewBridge builds the root-side bridge over a ready hub. engine is the
// root's virtual-worker engine (its parameters are the federation model);
// quorum, if positive, is the minimum number of arrived uploads for a
// round to commit, matching fl.WithQuorum semantics on a flat engine.
func NewBridge(hub *ShardHub, engine *fl.Engine, quorum int) (*Bridge, error) {
	if hub == nil {
		return nil, fmt.Errorf("shard: NewBridge requires a hub")
	}
	if engine == nil {
		return nil, fmt.Errorf("shard: NewBridge requires the root engine")
	}
	if got := len(engine.Workers); got != hub.Workers() {
		return nil, fmt.Errorf("shard: root engine has %d workers, hub expects %d", got, hub.Workers())
	}
	return &Bridge{hub: hub, engine: engine, quorum: quorum, round: -1}, nil
}

// BindServers installs the server-cluster source — the coordinator's
// Servers accessor. The coordinator cannot exist before the bridge (it
// takes the bridge as its collector option), so the binding happens right
// after construction; CollectRound fails loudly if it never did.
func (b *Bridge) BindServers(fn func() []int) { b.serversFn = fn }

// MaxStaleness implements core.Collector: sharded rounds are synchronous.
func (b *Bridge) MaxStaleness() int { return 0 }

// CollectRound implements core.Collector: publish the collect directive
// and unfold the shards' evidence into the round's RoundResult.
func (b *Bridge) CollectRound(ctx context.Context, t int) (*fl.RoundResult, error) {
	if b.serversFn == nil {
		return nil, fmt.Errorf("shard: bridge has no server source — call BindServers after building the coordinator")
	}
	if _, err := b.hub.Publish(codec.ShardDirective{
		Round:   t,
		Phase:   codec.ShardPhaseCollect,
		Params:  b.engine.Params(),
		Servers: b.serversFn(),
	}); err != nil {
		return nil, err
	}
	wave, err := b.hub.Await(ctx, t, codec.ShardPhaseCollect)
	if err != nil {
		return nil, err
	}
	n := b.hub.Workers()
	rr := &fl.RoundResult{
		Round:   t,
		Grads:   make([]gradvec.Vector, n),
		Samples: b.hub.RegisteredSamples(),
		Status:  make([]faults.UploadStatus, n),
		Retries: make([]int, n),
		Quorum:  b.quorum,
		Dim:     len(b.engine.ParamsRef()),
	}
	for s, sub := range wave {
		first, _, err := b.hub.Cohort(s)
		if err != nil {
			return nil, err
		}
		ev := sub.Collect
		for i, st := range ev.Statuses {
			rr.Status[first+i] = st
			rr.Retries[first+i] = ev.Retries[i]
			if st.Arrived() {
				rr.Arrived++
			}
		}
		for i, id := range ev.ServerIDs {
			if id < first || id >= first+len(ev.Statuses) {
				return nil, fmt.Errorf("shard: shard %d forwarded worker %d's gradient, outside its cohort", s, id)
			}
			rr.Grads[id] = gradvec.Vector(ev.ServerGrads[i])
		}
	}
	rr.Committed = rr.Quorum <= 0 || rr.Arrived >= rr.Quorum
	b.round = t
	b.detect = nil
	return rr, nil
}

// DetectRound implements core.ShardRoundSource: assemble the composite
// benchmark from the forwarded server gradients, broadcast it, and fold
// the shards' locally computed verdicts. Uncertainty is derived from the
// upload statuses — the root holds no gradient for most workers, but a
// flat run's nil-gradient test is exactly "the upload never arrived".
func (b *Bridge) DetectRound(ctx context.Context, rr *fl.RoundResult, servers []int, det core.Detector) (*core.DetectionResult, error) {
	if rr.Round != b.round {
		return nil, fmt.Errorf("shard: DetectRound for round %d, bridge collected %d", rr.Round, b.round)
	}
	n := len(rr.Grads)
	res := &core.DetectionResult{
		Scores:    make([]float64, n),
		Accept:    make([]bool, n),
		Uncertain: make([]bool, n),
	}
	for i := range res.Scores {
		res.Scores[i] = math.NaN()
		res.Uncertain[i] = !rr.Status[i].Arrived()
	}
	m := len(servers)
	owners := make([]int, m)
	res.Benchmark = core.FlatBenchmark(rr, servers, m, owners)
	d := codec.ShardDirective{Round: rr.Round, Phase: codec.ShardPhaseDetect, Threshold: det.Threshold}
	if res.Benchmark != nil {
		d.Benchmark = []float64(res.Benchmark)
		d.Owners = owners
	}
	if _, err := b.hub.Publish(d); err != nil {
		return nil, err
	}
	wave, err := b.hub.Await(ctx, rr.Round, codec.ShardPhaseDetect)
	if err != nil {
		return nil, err
	}
	for s, sub := range wave {
		first, _, err := b.hub.Cohort(s)
		if err != nil {
			return nil, err
		}
		ev := sub.Detect
		for i := range ev.Scores {
			res.Scores[first+i] = ev.Scores[i]
			res.Accept[first+i] = ev.Accept[i]
		}
	}
	b.detect = wave
	return res, nil
}

// AggregateRound implements core.ShardRoundSource: G̃ = Σ_s (1/T)·P_s with
// T = Σ_s T_s over the detect wave's pre-aggregated partials. The accept
// mask is not consulted: the shards already applied it when they built
// their partials, and the root's mask is the one the shards reported.
// Uncommitted rounds return (nil, nil) without any wire traffic; the
// shards recognize the elided phases when the next collect directive's
// round number arrives.
func (b *Bridge) AggregateRound(_ context.Context, rr *fl.RoundResult, _ []bool) (gradvec.Vector, error) {
	if rr.Quorum > 0 && !rr.Committed {
		return nil, nil
	}
	if rr.Round != b.round || b.detect == nil {
		return nil, fmt.Errorf("shard: AggregateRound for round %d without its detect wave", rr.Round)
	}
	total := 0.0
	for _, sub := range b.detect {
		total += sub.Detect.Weight
	}
	if total == 0 {
		return nil, nil
	}
	dim := len(b.engine.Params())
	out := gradvec.Zeros(dim)
	for s, sub := range b.detect {
		p := sub.Detect.Partial
		if p == nil {
			continue
		}
		if len(p) != dim {
			return nil, fmt.Errorf("shard: shard %d's partial has %d dims, model has %d", s, len(p), dim)
		}
		out.AddScaled(1/total, gradvec.Vector(p))
	}
	return out, nil
}

// Distances implements core.ShardRoundSource: broadcast the filtered
// global gradient and fold the shards' per-worker ‖G̃ − G_i‖² scalars. A
// nil global (degenerate or degraded round) yields all-NaN distances with
// no wire traffic, matching the flat path's early return.
func (b *Bridge) Distances(ctx context.Context, rr *fl.RoundResult, global gradvec.Vector) ([]float64, error) {
	n := len(rr.Grads)
	dists := make([]float64, n)
	for i := range dists {
		dists[i] = math.NaN()
	}
	if global == nil {
		return dists, nil
	}
	if rr.Round != b.round {
		return nil, fmt.Errorf("shard: Distances for round %d, bridge collected %d", rr.Round, b.round)
	}
	if _, err := b.hub.Publish(codec.ShardDirective{
		Round:  rr.Round,
		Phase:  codec.ShardPhaseDist,
		Global: []float64(global),
	}); err != nil {
		return nil, err
	}
	wave, err := b.hub.Await(ctx, rr.Round, codec.ShardPhaseDist)
	if err != nil {
		return nil, err
	}
	for s, sub := range wave {
		first, _, err := b.hub.Cohort(s)
		if err != nil {
			return nil, err
		}
		for i, d := range sub.Dist.Dists {
			dists[first+i] = d
		}
	}
	return dists, nil
}

// Finish broadcasts the done directive, ending every shard's loop. Safe
// to call once after the final round; the hub stays open so shards can
// still long-poll the directive out.
func (b *Bridge) Finish() error {
	if b.done {
		return nil
	}
	seq, err := b.hub.Publish(codec.ShardDirective{Phase: codec.ShardPhaseDone})
	if err != nil {
		return err
	}
	b.done, b.doneSeq = true, seq
	return nil
}
