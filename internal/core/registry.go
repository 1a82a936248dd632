package core

import "fmt"

// LifecycleState is a worker identity's position in the membership state
// machine: Joining → Active → Departed (→ Active again on re-admission),
// with Banned as the absorbing state no identity leaves. The registry
// below owns the transitions; everything else reads.
type LifecycleState uint8

// Lifecycle states. The numeric values are persisted in checkpoints
// (FIFLCKP5's registry section), so they must never be renumbered.
const (
	// StateJoining marks an identity that has been assigned an ID but not
	// yet entered a round cohort — a queued handshake awaiting the next
	// round boundary.
	StateJoining LifecycleState = iota
	// StateActive marks an identity currently in the round cohort.
	StateActive
	// StateDeparted marks an identity that left voluntarily; it keeps its
	// reputation history and may be re-admitted.
	StateDeparted
	// StateBanned marks an identity the federation evicted; admission and
	// re-admission are refused forever.
	StateBanned
)

// String names the state for errors and logs.
func (s LifecycleState) String() string {
	switch s {
	case StateJoining:
		return "joining"
	case StateActive:
		return "active"
	case StateDeparted:
		return "departed"
	case StateBanned:
		return "banned"
	}
	return fmt.Sprintf("LifecycleState(%d)", uint8(s))
}

// Registry tracks worker identities across membership changes. Worker IDs
// are stable: assigned sequentially at admission and never reused, so a
// departed worker's reputation, cumulative rewards and ledger history
// remain attributable if it returns. The active list is the round cohort
// in slot order — slot s of a collected round belongs to worker
// ActiveIDs()[s] — and is the only ordering the pipeline consumes.
//
// A federation that never churns has active == [0..n-1] with every state
// Active, making every slot↔ID mapping the identity; that is what keeps
// the registry path bit-identical to the fixed-cohort path.
type Registry struct {
	states []LifecycleState // indexed by stable worker ID
	active []int            // cohort slot → worker ID
	slots  []int            // worker ID → cohort slot, -1 when not active
}

// NewRegistry builds a registry for an initial cohort of n workers, all
// active, with IDs 0..n-1 in slot order.
func NewRegistry(n int) *Registry {
	r := &Registry{
		states: make([]LifecycleState, n),
		active: make([]int, n),
		slots:  make([]int, n),
	}
	for i := 0; i < n; i++ {
		r.states[i] = StateActive
		r.active[i] = i
		r.slots[i] = i
	}
	return r
}

// NumKnown returns how many identities have ever been admitted (the
// exclusive upper bound on worker IDs).
func (r *Registry) NumKnown() int { return len(r.states) }

// NumActive returns the current cohort size.
func (r *Registry) NumActive() int { return len(r.active) }

// ActiveIDs returns a copy of the cohort in slot order.
func (r *Registry) ActiveIDs() []int { return append([]int(nil), r.active...) }

// activeRef returns the live cohort slice; callers must not mutate or
// retain it past the next membership change.
func (r *Registry) activeRef() []int { return r.active }

// State returns the lifecycle state of a known ID.
func (r *Registry) State(id int) (LifecycleState, error) {
	if id < 0 || id >= len(r.states) {
		return 0, fmt.Errorf("core: registry has no worker %d (knows %d)", id, len(r.states))
	}
	return r.states[id], nil
}

// SlotOf returns the cohort slot a worker currently occupies, or -1 if it
// is not active.
func (r *Registry) SlotOf(id int) int {
	if id < 0 || id >= len(r.slots) {
		return -1
	}
	return r.slots[id]
}

// Admit assigns the next worker ID in state Joining. The identity enters
// the cohort only when Activate moves it to Active, so a queued handshake
// is visible in the registry before the round boundary that seats it.
func (r *Registry) Admit() int {
	id := len(r.states)
	r.states = append(r.states, StateJoining)
	r.slots = append(r.slots, -1)
	return id
}

// Activate seats an identity in the cohort: Joining (first admission) or
// Departed (re-admission) becomes Active, appended at the last slot.
// Banned identities are refused — that is the banned-set enforcement the
// incentive mechanism's Eq. 8–10 bootstrap depends on — and activating an
// already-active identity is an error.
func (r *Registry) Activate(id int) error {
	st, err := r.State(id)
	if err != nil {
		return err
	}
	switch st {
	case StateJoining, StateDeparted:
		r.states[id] = StateActive
		r.slots[id] = len(r.active)
		r.active = append(r.active, id)
		return nil
	case StateBanned:
		return fmt.Errorf("core: worker %d is banned and cannot rejoin", id)
	default:
		return fmt.Errorf("core: worker %d is already %s", id, st)
	}
}

// Depart removes an active identity from the cohort, preserving the slot
// order of everyone behind it. The identity keeps its reputation history
// and may be re-admitted via Activate.
func (r *Registry) Depart(id int) error {
	st, err := r.State(id)
	if err != nil {
		return err
	}
	if st != StateActive {
		return fmt.Errorf("core: cannot depart worker %d in state %s", id, st)
	}
	r.states[id] = StateDeparted
	r.removeFromCohort(id)
	return nil
}

// Ban moves an identity to the absorbing Banned state, removing it from
// the cohort if seated. Banning an already-banned identity is an error so
// callers notice double evictions.
func (r *Registry) Ban(id int) error {
	st, err := r.State(id)
	if err != nil {
		return err
	}
	if st == StateBanned {
		return fmt.Errorf("core: worker %d is already banned", id)
	}
	if st == StateActive {
		r.removeFromCohort(id)
	}
	r.states[id] = StateBanned
	return nil
}

// removeFromCohort deletes id's slot and renumbers the slots behind it.
func (r *Registry) removeFromCohort(id int) {
	s := r.slots[id]
	r.active = append(r.active[:s], r.active[s+1:]...)
	for i := s; i < len(r.active); i++ {
		r.slots[r.active[i]] = i
	}
	r.slots[id] = -1
}

// States returns a copy of every identity's lifecycle state, indexed by
// worker ID; checkpoints persist it alongside the active cohort.
func (r *Registry) States() []LifecycleState {
	return append([]LifecycleState(nil), r.states...)
}

// RestoreRegistry rebuilds a registry from a checkpoint's states and
// active cohort. The pair must be consistent: every state a known value,
// and the active list exactly the Active identities, each seated once.
func RestoreRegistry(states []LifecycleState, active []int) (*Registry, error) {
	r := &Registry{
		states: append([]LifecycleState(nil), states...),
		active: append([]int(nil), active...),
		slots:  make([]int, len(states)),
	}
	for i := range r.slots {
		r.slots[i] = -1
	}
	nActive := 0
	for id, st := range r.states {
		switch st {
		case StateJoining, StateDeparted, StateBanned:
		case StateActive:
			nActive++
		default:
			return nil, fmt.Errorf("core: registry restore: worker %d has unknown state %d", id, uint8(st))
		}
	}
	if nActive != len(r.active) {
		return nil, fmt.Errorf("core: registry restore: %d active states but %d cohort slots", nActive, len(r.active))
	}
	for slot, id := range r.active {
		if id < 0 || id >= len(r.states) {
			return nil, fmt.Errorf("core: registry restore: cohort slot %d holds unknown worker %d", slot, id)
		}
		if r.states[id] != StateActive {
			return nil, fmt.Errorf("core: registry restore: cohort slot %d holds %s worker %d", slot, r.states[id], id)
		}
		if r.slots[id] != -1 {
			return nil, fmt.Errorf("core: registry restore: worker %d seated twice", id)
		}
		r.slots[id] = slot
	}
	return r, nil
}
