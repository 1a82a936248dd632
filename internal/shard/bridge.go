package shard

import (
	"context"
	"fmt"

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
// global indices, filed through fl.UploadRow — every other gradient row
// stays nil). The three gradient kernels each broadcast one directive and
// fold the shards' answers: Score the verdicts each cohort computed against
// the benchmark the root assembled, AggregateRound the pre-aggregated
// partials in the blocked association (per-cohort partials, normalized at
// the root), Distances the cohorts' Eq. 13 scalars. Everything around the
// kernels runs in the root pipeline exactly as in a flat round.
type Bridge struct {
	hub    *ShardHub
	engine *fl.Engine // the root engine: parameter state and model shape
	quorum int

	serversFn func() []int // the round's server cluster, bound post-construction

	// Per-round carry between the pipeline stages that consult the bridge.
	round  int
	detect []*codec.ShardSubmit // detect wave, held from Score for AggregateRound
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

// CollectRound implements core.Collector: publish the collect directive
// and unfold the shards' evidence into the round's RoundResult.
func (b *Bridge) CollectRound(ctx context.Context, t int) (*fl.RoundResult, error) {
	if b.serversFn == nil {
		return nil, fmt.Errorf("shard: bridge has no server source — call BindServers after building the coordinator")
	}
	wave, err := b.exchange(ctx, codec.ShardDirective{
		Round:   t,
		Phase:   codec.ShardPhaseCollect,
		Params:  b.engine.Params(),
		Servers: b.serversFn(),
	})
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
			rr.Grads[id] = fl.UploadRow(ev.ServerGrads[i], len(b.engine.ParamsRef()))
		}
	}
	rr.Committed = rr.Quorum <= 0 || rr.Arrived >= rr.Quorum
	b.round = t
	b.detect = nil
	return rr, nil
}

// Score implements core.ShardRoundSource: broadcast the benchmark, its
// owners and the threshold, and fold the verdicts each shard computed over
// its cohort with core.ScoreCohort.
func (b *Bridge) Score(ctx context.Context, rr *fl.RoundResult, bench gradvec.Vector, owners []int, threshold float64, scores []float64, accept []bool) error {
	if rr.Round != b.round {
		return fmt.Errorf("shard: Score for round %d, bridge collected %d", rr.Round, b.round)
	}
	wave, err := b.exchange(ctx, codec.ShardDirective{
		Round: rr.Round, Phase: codec.ShardPhaseDetect, Threshold: threshold, Benchmark: bench, Owners: owners,
	})
	if err != nil {
		return err
	}
	for s, sub := range wave {
		first, _, err := b.hub.Cohort(s)
		if err != nil {
			return err
		}
		copy(scores[first:], sub.Detect.Scores)
		copy(accept[first:], sub.Detect.Accept)
	}
	b.detect = wave
	return nil
}

// AggregateRound implements core.ShardRoundSource: G̃ = Σ_s (1/T)·P_s with
// T = Σ_s T_s over the detect wave's pre-aggregated partials. The accept
// mask is not consulted: the shards already applied it when they built
// their partials, and the root's mask is the one the shards reported.
func (b *Bridge) AggregateRound(_ context.Context, rr *fl.RoundResult, _ []bool) (gradvec.Vector, error) {
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
	dim := len(b.engine.ParamsRef())
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
// global gradient and fold the per-worker ‖G̃ − G_i‖² scalars each shard
// computed over its cohort with core.CohortDistances.
func (b *Bridge) Distances(ctx context.Context, rr *fl.RoundResult, global gradvec.Vector, dists []float64) error {
	if rr.Round != b.round {
		return fmt.Errorf("shard: Distances for round %d, bridge collected %d", rr.Round, b.round)
	}
	wave, err := b.exchange(ctx, codec.ShardDirective{Round: rr.Round, Phase: codec.ShardPhaseDist, Global: global})
	if err != nil {
		return err
	}
	for s, sub := range wave {
		first, _, err := b.hub.Cohort(s)
		if err != nil {
			return err
		}
		copy(dists[first:], sub.Dist.Dists)
	}
	return nil
}

// exchange publishes one directive and awaits every shard's answer to it.
func (b *Bridge) exchange(ctx context.Context, d codec.ShardDirective) ([]*codec.ShardSubmit, error) {
	if _, err := b.hub.Publish(d); err != nil {
		return nil, err
	}
	return b.hub.Await(ctx, d.Round, d.Phase)
}

// Finish broadcasts the done directive after the final round, ending
// every shard's loop (ShardHub.MarkDone); it fails only on a closed hub.
func (b *Bridge) Finish() error { return b.hub.finish() }
