package core

import (
	"context"

	"fifl/internal/fl"
	"fifl/internal/gradvec"
)

// gradientSource runs the three round kernels that read worker gradients.
// Everything around them — the cluster check, the detection shell, the
// composite benchmark, the degraded-round and nil-G̃ early returns, the
// Eq. 14 threshold and clamp — is built once in the Detect, Aggregate and
// Contribution stages, for flat and sharded rounds alike. The coordinator
// resolves its source at construction: its own engine, or a collector that
// is a ShardRoundSource.
type gradientSource interface {
	// Score screens every worker of a committed round against the composite
	// benchmark (nil when no server upload survived) whose region j is
	// filled by worker owners[j], writing every row of scores and accept as
	// ScoreCohort does.
	Score(ctx context.Context, rr *fl.RoundResult, bench gradvec.Vector, owners []int, threshold float64, scores []float64, accept []bool) error
	// AggregateRound folds the accepted uploads of a committed round into
	// the filtered global gradient G̃, nil when no mass survived.
	AggregateRound(ctx context.Context, rr *fl.RoundResult, accept []bool) (gradvec.Vector, error)
	// Distances writes each worker's ‖G̃ − G_i‖² (Eq. 13) to dists, NaN for a
	// worker without a usable upload, as CohortDistances does. global is
	// never nil.
	Distances(ctx context.Context, rr *fl.RoundResult, global gradvec.Vector, dists []float64) error
}

// ShardRoundSource is a Collector whose rounds leave the gradients at the
// edge: in a 1-level hierarchical federation the root holds only the
// server cluster's rows, so each shard runs the gradient kernels over its
// own cohort with ScoreCohort, a blocked pre-aggregate and CohortDistances,
// and forwards per-worker scalars plus one partial. The pipeline stages
// call these kernels where a flat round calls its engine's; every stage
// that consumes only per-worker scalars (Reputation, Reward, Record,
// Reselect) cannot tell the difference, which is what keeps the root's
// reports, ledger records and fifl-score output identical to a flat run's.
//
// Because the root's RoundResult carries no gradient for most workers, a
// sharded round's absent uploads are read from its statuses rather than
// from nil rows. Degraded rounds and a nil G̃ never reach the kernels.
type ShardRoundSource interface {
	Collector
	gradientSource
}

// engineSource is the flat federation's round source: the engine's
// synchronous collect-all barrier, and the gradient kernels over the rows
// it collected.
type engineSource struct{ engine *fl.Engine }

func (s engineSource) CollectRound(ctx context.Context, t int) (*fl.RoundResult, error) {
	return s.engine.CollectGradientsContext(ctx, t)
}

func (engineSource) Score(_ context.Context, rr *fl.RoundResult, bench gradvec.Vector, owners []int, threshold float64, scores []float64, accept []bool) error {
	ScoreCohort(rr, 0, bench, owners, threshold, scores, accept)
	return nil
}

func (s engineSource) AggregateRound(_ context.Context, rr *fl.RoundResult, accept []bool) (gradvec.Vector, error) {
	return s.engine.AggregateRound(rr, accept)
}

func (engineSource) Distances(_ context.Context, rr *fl.RoundResult, global gradvec.Vector, dists []float64) error {
	CohortDistances(global, rr.Grads, dists)
	return nil
}
