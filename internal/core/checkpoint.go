package core

import (
	"bytes"
	"fmt"
	"io"

	"fifl/internal/chain"
	"fifl/internal/fl"
	"fifl/internal/persist"
)

// Checkpoint writes the coordinator's complete inter-round state to w as a
// durable snapshot (see internal/persist for the format and its
// guarantees). Call it only between rounds — after RunRoundContext returns and
// before the next one starts; mid-round state lives in worker goroutines
// and cannot be captured consistently. A federation restored from the
// snapshot with RestoreCoordinator continues bit-identically to one that
// was never interrupted.
func (c *Coordinator) Checkpoint(w io.Writer) error {
	s, err := c.Snapshot()
	if err != nil {
		return err
	}
	return persist.Write(w, s)
}

// Snapshot captures the coordinator's inter-round state as a
// persist.Snapshot. Checkpoint is the io.Writer shape of it; callers that
// want atomic file persistence pass the snapshot to persist.WriteFile.
func (c *Coordinator) Snapshot() (*persist.Snapshot, error) {
	engine := c.Engine
	// Every per-worker field is keyed by stable worker ID over all
	// identities the federation has ever known; departed and banned
	// identities keep their reputation/counter/reward entries (that is the
	// carryover re-admission depends on) and record zero samples/draws.
	n := c.members.NumKnown()
	pt, pn, pu := c.Rep.PeriodCounts()
	states := c.members.States()
	s := &persist.Snapshot{
		NextRound:       c.nextRound,
		Params:          engine.Params(),
		Reputations:     c.Rep.Reputations(),
		PosCounts:       intsToI64(pt),
		NegCounts:       intsToI64(pn),
		UncCounts:       intsToI64(pu),
		Cumulative:      c.CumulativeRewards(),
		Servers:         c.Servers(),
		EngineDraws:     engine.RNGDraws(),
		WorkerDraws:     make([]uint64, n),
		Samples:         make([]int, n),
		LifecycleStates: make([]uint8, n),
		ActiveCohort:    c.members.ActiveIDs(),
	}
	for id, st := range states {
		s.LifecycleStates[id] = uint8(st)
	}
	s.BHInitialized, s.BHValue = c.bhSmoother.State()
	if rm, ok := c.mech.(ResumableMechanism); ok {
		s.MechDraws = rm.RNGDraws()
	}
	for i := 0; i < n; i++ {
		if c.banned[i] {
			s.Banned = append(s.Banned, i)
		}
	}
	for slot, w := range engine.Workers {
		id := s.ActiveCohort[slot]
		s.Samples[id] = w.NumSamples()
		if rw, ok := w.(fl.ResumableWorker); ok {
			s.WorkerDraws[id] = rw.RNGDraws()
		}
	}
	if rc, ok := c.collector.(ResumableCollector); ok {
		st, err := rc.AsyncSnapshot()
		if err != nil {
			return nil, fmt.Errorf("core: capturing async collector state: %w", err)
		}
		s.Async = st
	}
	ledger, err := c.Ledger.MarshalBinary()
	if err != nil {
		return nil, fmt.Errorf("core: exporting ledger for checkpoint: %w", err)
	}
	s.Ledger = ledger
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// RestoreCoordinator reads a checkpoint from r and rebuilds a coordinator
// over a freshly constructed engine. The engine must have been rebuilt
// from the same federation recipe (same seed, workers, model) as the run
// that took the checkpoint and must not have executed any rounds yet; the
// snapshot is cross-checked against it and mismatches are errors.
func RestoreCoordinator(r io.Reader, cfg CoordinatorConfig, engine *fl.Engine, opts ...CoordinatorOption) (*Coordinator, error) {
	snap, err := persist.Read(r)
	if err != nil {
		return nil, err
	}
	return RestoreCoordinatorSnapshot(snap, cfg, engine, opts...)
}

// RestoreCoordinatorSnapshot rebuilds a coordinator from an already
// decoded snapshot. On success the coordinator's reputations, SLM
// counters, cumulative rewards, banned set, server cluster, b_h smoother,
// ledger and round counter — plus the engine's parameters and every
// resumable RNG stream — match the checkpointed run exactly, so
// running round NextRound() continues it bit for bit. Options (e.g.
// WithMechanism) must match the interrupted run's.
func RestoreCoordinatorSnapshot(snap *persist.Snapshot, cfg CoordinatorConfig, engine *fl.Engine, opts ...CoordinatorOption) (*Coordinator, error) {
	if snap == nil {
		return nil, fmt.Errorf("core: restore from a nil snapshot")
	}
	if err := snap.Validate(); err != nil {
		return nil, err
	}
	if engine == nil {
		return nil, fmt.Errorf("core: restore requires an engine")
	}
	members, err := registryFromSnapshot(snap)
	if err != nil {
		return nil, err
	}
	n := members.NumKnown()
	if len(snap.Reputations) != n {
		return nil, fmt.Errorf("core: checkpoint covers %d workers, registry knows %d", len(snap.Reputations), n)
	}
	if members.NumActive() != len(engine.Workers) {
		return nil, fmt.Errorf("core: checkpoint seats %d active workers, engine has %d — rebuild the cohort in the checkpoint's ActiveCohort order",
			members.NumActive(), len(engine.Workers))
	}
	for slot, w := range engine.Workers {
		if id := members.activeRef()[slot]; w.ID() != id {
			return nil, fmt.Errorf("core: engine slot %d holds worker %d, checkpoint seats worker %d there — rebuild the cohort in the checkpoint's ActiveCohort order",
				slot, w.ID(), id)
		}
	}
	if len(snap.Servers) != engine.NumServers() {
		return nil, fmt.Errorf("core: checkpoint has %d servers, engine expects %d", len(snap.Servers), engine.NumServers())
	}
	if len(snap.Params) != len(engine.Params()) {
		return nil, fmt.Errorf("core: checkpoint has %d model parameters, engine has %d — different model or task",
			len(snap.Params), len(engine.Params()))
	}
	c, err := newCoordinatorWithRegistry(cfg, engine, snap.Servers, members, opts...)
	if err != nil {
		return nil, err
	}
	if err := engine.SetParams(snap.Params); err != nil {
		return nil, err
	}
	for i, v := range snap.Reputations {
		if err := c.Rep.SetReputation(i, v); err != nil {
			return nil, err
		}
	}
	if err := c.Rep.SetPeriodCounts(i64sToInts(snap.PosCounts), i64sToInts(snap.NegCounts), i64sToInts(snap.UncCounts)); err != nil {
		return nil, err
	}
	copy(c.cumulative, snap.Cumulative)
	for _, b := range snap.Banned {
		c.banned[b] = true
	}
	if err := c.bhSmoother.SetState(snap.BHInitialized, snap.BHValue); err != nil {
		return nil, err
	}
	c.nextRound = snap.NextRound

	// Reinstate the async collector's inter-round state (model history,
	// pending fold). Mode mismatches are errors both ways: async state
	// needs a resumable collector to receive it, and a resumable collector
	// cannot cold-start mid-run without it.
	if rc, ok := c.collector.(ResumableCollector); ok {
		if err := rc.RestoreAsync(snap.Async); err != nil {
			return nil, err
		}
	} else if snap.Async != nil {
		return nil, fmt.Errorf("core: checkpoint carries async collector state, but no resumable collector was configured — pass the interrupted run's collector via WithCollector")
	}

	// Fast-forward the deterministic random streams to where the
	// interrupted run left them. Workers that do not expose their stream
	// (remote transport stubs) were recorded as position zero and resume
	// through their own process's determinism instead.
	if err := engine.DiscardRNG(snap.EngineDraws); err != nil {
		return nil, err
	}
	if rm, ok := c.mech.(ResumableMechanism); ok {
		if err := rm.DiscardRNG(snap.MechDraws); err != nil {
			return nil, err
		}
	} else if snap.MechDraws != 0 {
		return nil, fmt.Errorf("core: checkpoint recorded mechanism RNG state (%d draws), but the restored mechanism %q is not resumable — pass the interrupted run's mechanism via WithMechanism",
			snap.MechDraws, c.mech.Name())
	}
	for _, w := range engine.Workers {
		id := w.ID()
		rw, ok := w.(fl.ResumableWorker)
		if !ok {
			if snap.WorkerDraws[id] != 0 {
				return nil, fmt.Errorf("core: checkpoint recorded RNG state for worker %d, but the rebuilt worker is not resumable", id)
			}
			continue
		}
		if err := rw.DiscardRNG(snap.WorkerDraws[id]); err != nil {
			return nil, err
		}
	}

	// Rebuild the audit ledger from its export and prove it intact and
	// ours: verification checks every hash link, hash and seal, and
	// re-registering this federation's deterministic signer keys fails if
	// the checkpoint was taken under different identities.
	if len(snap.Ledger) > 0 {
		led, err := chain.ReadBinary(bytes.NewReader(snap.Ledger))
		if err != nil {
			return nil, fmt.Errorf("core: restoring ledger: %w", err)
		}
		if err := led.Verify(); err != nil {
			return nil, fmt.Errorf("core: restored ledger: %w", err)
		}
		for i, s := range c.signers {
			if err := led.RegisterExecutor(serverName(i), s.Public()); err != nil {
				return nil, fmt.Errorf("core: checkpoint is from a different federation: %w", err)
			}
		}
		c.Ledger = led
	}
	return c, nil
}

// registryFromSnapshot rebuilds the lifecycle registry a checkpoint
// carries. Checkpoints from before elastic membership (or snapshots
// assembled without a registry section) describe a fixed cohort: every
// worker active, slot == ID.
func registryFromSnapshot(snap *persist.Snapshot) (*Registry, error) {
	if len(snap.LifecycleStates) == 0 {
		return NewRegistry(len(snap.Reputations)), nil
	}
	states := make([]LifecycleState, len(snap.LifecycleStates))
	for i, b := range snap.LifecycleStates {
		states[i] = LifecycleState(b)
	}
	return RestoreRegistry(states, snap.ActiveCohort)
}

func intsToI64(v []int) []int64 {
	out := make([]int64, len(v))
	for i, x := range v {
		out[i] = int64(x)
	}
	return out
}

func i64sToInts(v []int64) []int {
	out := make([]int, len(v))
	for i, x := range v {
		out[i] = int(x)
	}
	return out
}
