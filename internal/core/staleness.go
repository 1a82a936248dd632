package core

import (
	"context"

	"fifl/internal/fl"
	"fifl/internal/persist"
)

// Collector produces one round's uploads for the Collect stage. The
// default is the engine's synchronous collect-all barrier
// (CollectGradientsContext); WithCollector swaps in an alternative — the
// async bounded-staleness collectors in internal/fl and
// internal/transport, a sharded federation's bridge — leaving every other
// pipeline stage untouched.
//
// A collector that returns a RoundResult with a non-nil Staleness slice
// is asynchronous: it has already folded its advance window with
// fl.FoldWindow, so the round arrives with its staleness tags and
// aggregation weights, and the Detect stage turns over-bound arrivals
// (faults.StatusStale) into negative reputation events.
type Collector interface {
	// CollectRound gathers the submissions that advance round `round`.
	CollectRound(ctx context.Context, round int) (*fl.RoundResult, error)
}

// ResumableCollector is a Collector whose inter-round state must ride
// checkpoints for kill-and-resume to stay bit-identical — the async
// collectors' parameter history and pending (not yet folded)
// submissions. Coordinator.Snapshot captures the state and
// RestoreCoordinatorSnapshot reinstates it.
type ResumableCollector interface {
	Collector
	// AsyncSnapshot captures the collector's inter-round state. It must
	// only be called between rounds.
	AsyncSnapshot() (*persist.AsyncState, error)
	// RestoreAsync reinstates checkpointed state into a collector that
	// has not collected any round yet.
	RestoreAsync(*persist.AsyncState) error
}
