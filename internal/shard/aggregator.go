package shard

import (
	"context"
	"fmt"
	"math"

	"fifl/internal/core"
	"fifl/internal/fl"
	"fifl/internal/gradvec"
	"fifl/internal/transport/codec"
)

// RootLink is an edge aggregator's connection to the root: the directive
// long-poll and the evidence upload. DirectLink serves in-process
// federations (fifl-sim), HTTPLink the networked deployment (fifl-node);
// both round-trip every frame through the codec so the bytes on either
// side of the link are the bytes a real wire would carry.
type RootLink interface {
	// Submit uploads one evidence frame. It must not keep s's slices
	// after it returns: the aggregator reuses its partial-sum buffer for
	// the next round.
	Submit(ctx context.Context, s codec.ShardSubmit) error
	// NextDirective blocks until a directive with sequence number > after
	// exists and returns it.
	NextDirective(ctx context.Context, after int) (codec.ShardDirective, error)
}

// DirectLink couples an aggregator to an in-process ShardHub. Frames are
// encoded and decoded on the way through, so the in-process path exercises
// the exact wire bytes (and keeps the differential test honest about what
// survives serialization).
type DirectLink struct {
	Hub *ShardHub
}

// Submit implements RootLink.
func (l DirectLink) Submit(_ context.Context, s codec.ShardSubmit) error {
	b, err := codec.EncodeShardSubmit(s)
	if err != nil {
		return err
	}
	decoded, err := codec.DecodeShardSubmit(b)
	if err != nil {
		return err
	}
	return l.Hub.Submit(&decoded)
}

// NextDirective implements RootLink.
func (l DirectLink) NextDirective(ctx context.Context, after int) (codec.ShardDirective, error) {
	d, err := l.Hub.NextDirective(ctx, after)
	if err != nil {
		return codec.ShardDirective{}, err
	}
	b, err := codec.EncodeShardDirective(d)
	if err != nil {
		return codec.ShardDirective{}, err
	}
	return codec.DecodeShardDirective(b)
}

// Aggregator is one edge sub-coordinator: it owns a cohort engine over
// the shard's workers, registers the cohort with the root, and then obeys
// the directive stream — collecting locally, screening its members
// against the broadcast benchmark with the exact scoring kernel the flat
// detector uses, pre-aggregating the survivors, and answering each phase
// with an evidence frame. It holds no federation-level state: parameters
// arrive with every collect directive, which is also what lets a resumed
// shard re-synchronize without a parameter checkpoint.
type Aggregator struct {
	shard  int
	first  int
	engine *fl.Engine
	link   RootLink

	lastSeq int
	round   int
	rr      *fl.RoundResult
	partial gradvec.Vector // the detect partial's buffer, reused every round
}

// NewAggregator builds an edge aggregator. shard is its index in the
// root's shard order, first the global index of its cohort's first
// worker; engine is the cohort-local engine (its workers are the cohort,
// in global order).
func NewAggregator(shard, first int, engine *fl.Engine, link RootLink) (*Aggregator, error) {
	if engine == nil {
		return nil, fmt.Errorf("shard: NewAggregator requires a cohort engine")
	}
	if link == nil {
		return nil, fmt.Errorf("shard: NewAggregator requires a root link")
	}
	if shard < 0 || first < 0 {
		return nil, fmt.Errorf("shard: NewAggregator with shard %d, first worker %d", shard, first)
	}
	return &Aggregator{shard: shard, first: first, engine: engine, link: link, round: -1}, nil
}

// Hello registers the aggregator's cohort with the root.
func (a *Aggregator) Hello(ctx context.Context) error {
	samples := make([]int, len(a.engine.Workers))
	for i, w := range a.engine.Workers {
		samples[i] = w.NumSamples()
	}
	return a.link.Submit(ctx, codec.ShardSubmit{
		Shard: a.shard,
		Phase: codec.ShardPhaseHello,
		Hello: &codec.ShardHello{First: a.first, Samples: samples},
	})
}

// Run obeys the directive stream until the done directive or an error.
// Degraded rounds need no special casing: the root simply never publishes
// the elided phases, and the aggregator dispatches on whatever directive
// arrives next.
func (a *Aggregator) Run(ctx context.Context) error {
	for {
		d, err := a.link.NextDirective(ctx, a.lastSeq)
		if err != nil {
			return err
		}
		a.lastSeq = d.Seq
		switch d.Phase {
		case codec.ShardPhaseCollect:
			err = a.handleCollect(ctx, d)
		case codec.ShardPhaseDetect:
			err = a.handleDetect(ctx, d)
		case codec.ShardPhaseDist:
			err = a.handleDist(ctx, d)
		case codec.ShardPhaseDone:
			return nil
		default:
			err = fmt.Errorf("shard: shard %d received an un-dispatchable %s directive", a.shard, d.Phase)
		}
		if err != nil {
			return err
		}
	}
}

// LastSeq reports the highest directive sequence number processed —
// checkpoints record it so a resumed shard skips what it already obeyed.
func (a *Aggregator) LastSeq() int { return a.lastSeq }

// Engine exposes the cohort engine (checkpointing reads its RNG cursor).
func (a *Aggregator) Engine() *fl.Engine { return a.engine }

// handleCollect trains the cohort against the broadcast parameters and
// reports every member's upload fate plus the full gradients of the
// cohort members serving in the round's global benchmark cluster.
func (a *Aggregator) handleCollect(ctx context.Context, d codec.ShardDirective) error {
	if err := a.engine.SetParams(d.Params); err != nil {
		return fmt.Errorf("shard: shard %d syncing round-%d parameters: %w", a.shard, d.Round, err)
	}
	rr, err := a.engine.CollectGradientsContext(ctx, d.Round)
	if err != nil {
		return err
	}
	a.round, a.rr = d.Round, rr
	k := len(rr.Grads)
	ev := &codec.ShardCollectEvidence{
		Statuses: rr.Status,
		Retries:  rr.Retries,
	}
	for _, s := range d.Servers {
		if s < a.first || s >= a.first+k {
			continue // another shard's server
		}
		if !rr.Usable(s - a.first) {
			// A NaN-poisoned server gradient cannot ride the wire; the root
			// sees the row (or a wrong-length one) as dropped, which excludes
			// it from benchmark duty exactly as the flat FlatBenchmark's
			// Usable test would.
			continue
		}
		ev.ServerIDs = append(ev.ServerIDs, s)
		ev.ServerGrads = append(ev.ServerGrads, rr.Grads[s-a.first])
	}
	return a.link.Submit(ctx, codec.ShardSubmit{
		Shard: a.shard, Round: d.Round, Phase: codec.ShardPhaseCollect, Collect: ev,
	})
}

// handleDetect screens the cohort against the broadcast benchmark and
// pre-aggregates the accepted gradients into the shard's partial.
func (a *Aggregator) handleDetect(ctx context.Context, d codec.ShardDirective) error {
	if a.rr == nil || a.round != d.Round {
		return fmt.Errorf("shard: shard %d got a detect directive for round %d without its collect", a.shard, d.Round)
	}
	rr := a.rr
	k := len(rr.Grads)
	ev := &codec.ShardDetectEvidence{
		Scores: make([]float64, k),
		Accept: make([]bool, k),
	}
	bench := gradvec.Vector(d.Benchmark)
	for i, g := range rr.Grads {
		ev.Scores[i] = math.NaN()
		if g == nil {
			continue
		}
		if bench == nil {
			// No server upload survived anywhere: accept arrivals so training
			// proceeds, exactly as the flat detector's no-benchmark path.
			ev.Accept[i] = rr.Usable(i)
			continue
		}
		ev.Scores[i] = core.ScoreAgainstBenchmark(bench, d.Owners, a.first+i, g)
		ev.Accept[i] = ev.Scores[i] >= d.Threshold
	}
	// The pre-aggregate: P_s = Σ n_i·G_i and T_s = Σ n_i over the accepted
	// arrivals, in cohort order — the blocked association the root's fold
	// completes.
	coefs := make([]float64, k)
	survivor := false
	for i, g := range rr.Grads {
		if g == nil || !ev.Accept[i] {
			continue
		}
		coefs[i] = float64(rr.Samples[i])
		ev.Weight += coefs[i]
		survivor = true
	}
	if survivor {
		if dim := len(a.engine.ParamsRef()); len(a.partial) != dim {
			a.partial = gradvec.Zeros(dim)
		} else {
			clear(a.partial)
		}
		a.partial.AddWeighted(rr.Grads, coefs)
		ev.Partial = a.partial
	}
	return a.link.Submit(ctx, codec.ShardSubmit{
		Shard: a.shard, Round: d.Round, Phase: codec.ShardPhaseDetect, Detect: ev,
	})
}

// handleDist evaluates each member's squared distance to the broadcast
// global gradient (Eq. 13).
func (a *Aggregator) handleDist(ctx context.Context, d codec.ShardDirective) error {
	if a.rr == nil || a.round != d.Round {
		return fmt.Errorf("shard: shard %d got a dist directive for round %d without its collect", a.shard, d.Round)
	}
	global := gradvec.Vector(d.Global)
	rr := a.rr
	ev := &codec.ShardDistEvidence{Dists: make([]float64, len(rr.Grads))}
	for i, g := range rr.Grads {
		ev.Dists[i] = math.NaN()
		if global != nil {
			ev.Dists[i] = core.SqDistToGlobal(global, g)
		}
	}
	return a.link.Submit(ctx, codec.ShardSubmit{
		Shard: a.shard, Round: d.Round, Phase: codec.ShardPhaseDist, Dist: ev,
	})
}
