package core

import (
	"strings"
	"testing"
)

func TestRegistryFixedCohortIsIdentity(t *testing.T) {
	r := NewRegistry(4)
	if r.NumKnown() != 4 || r.NumActive() != 4 {
		t.Fatalf("NumKnown=%d NumActive=%d, want 4/4", r.NumKnown(), r.NumActive())
	}
	for i := 0; i < 4; i++ {
		if got := r.SlotOf(i); got != i {
			t.Fatalf("SlotOf(%d) = %d, want identity", i, got)
		}
		st, err := r.State(i)
		if err != nil || st != StateActive {
			t.Fatalf("State(%d) = %v, %v, want active", i, st, err)
		}
	}
}

func TestRegistryLifecycle(t *testing.T) {
	r := NewRegistry(3)

	// Admit assigns the next ID as Joining, outside the cohort.
	id := r.Admit()
	if id != 3 {
		t.Fatalf("Admit assigned ID %d, want 3", id)
	}
	if st, _ := r.State(id); st != StateJoining {
		t.Fatalf("admitted worker state %v, want joining", st)
	}
	if r.SlotOf(id) != -1 || r.NumActive() != 3 {
		t.Fatal("joining worker must not be seated yet")
	}

	// Activate seats it at the last slot.
	if err := r.Activate(id); err != nil {
		t.Fatal(err)
	}
	if got := r.SlotOf(id); got != 3 {
		t.Fatalf("joiner seated at slot %d, want 3", got)
	}
	if err := r.Activate(id); err == nil {
		t.Fatal("activating an active worker must fail")
	}

	// Depart unseats worker 1, shifting the slots behind it.
	if err := r.Depart(1); err != nil {
		t.Fatal(err)
	}
	if st, _ := r.State(1); st != StateDeparted {
		t.Fatalf("departed worker state %v", st)
	}
	wantActive := []int{0, 2, 3}
	got := r.ActiveIDs()
	if len(got) != len(wantActive) {
		t.Fatalf("active cohort %v, want %v", got, wantActive)
	}
	for s, id := range wantActive {
		if got[s] != id || r.SlotOf(id) != s {
			t.Fatalf("active cohort %v (slots renumbered wrong), want %v", got, wantActive)
		}
	}
	if err := r.Depart(1); err == nil {
		t.Fatal("departing a departed worker must fail")
	}

	// Re-admission seats the departed worker at the back.
	if err := r.Activate(1); err != nil {
		t.Fatal(err)
	}
	if got := r.SlotOf(1); got != 3 {
		t.Fatalf("re-admitted worker at slot %d, want 3", got)
	}

	// Ban is absorbing: unseats, refuses rejoin, refuses double ban.
	if err := r.Ban(2); err != nil {
		t.Fatal(err)
	}
	if st, _ := r.State(2); st != StateBanned {
		t.Fatalf("banned worker state %v", st)
	}
	if r.SlotOf(2) != -1 {
		t.Fatal("banned worker still seated")
	}
	if err := r.Activate(2); err == nil || !strings.Contains(err.Error(), "banned") {
		t.Fatalf("banned worker re-admitted: %v", err)
	}
	if err := r.Ban(2); err == nil {
		t.Fatal("double ban must fail")
	}

	// Out-of-range IDs are errors everywhere.
	if _, err := r.State(99); err == nil {
		t.Fatal("State(99) must fail")
	}
	if err := r.Activate(-1); err == nil {
		t.Fatal("Activate(-1) must fail")
	}
}

func TestRestoreRegistryRoundTrip(t *testing.T) {
	r := NewRegistry(3)
	id := r.Admit()
	if err := r.Activate(id); err != nil {
		t.Fatal(err)
	}
	if err := r.Depart(0); err != nil {
		t.Fatal(err)
	}
	if err := r.Ban(2); err != nil {
		t.Fatal(err)
	}

	got, err := RestoreRegistry(r.States(), r.ActiveIDs())
	if err != nil {
		t.Fatal(err)
	}
	if got.NumKnown() != r.NumKnown() || got.NumActive() != r.NumActive() {
		t.Fatalf("restored %d/%d, want %d/%d", got.NumKnown(), got.NumActive(), r.NumKnown(), r.NumActive())
	}
	for id := 0; id < r.NumKnown(); id++ {
		ws, _ := r.State(id)
		gs, _ := got.State(id)
		if ws != gs || r.SlotOf(id) != got.SlotOf(id) {
			t.Fatalf("worker %d restored as %v slot %d, want %v slot %d", id, gs, got.SlotOf(id), ws, r.SlotOf(id))
		}
	}
}

func TestRestoreRegistryRejectsInconsistency(t *testing.T) {
	cases := []struct {
		name   string
		states []LifecycleState
		active []int
	}{
		{"cohort count mismatch", []LifecycleState{StateActive, StateActive}, []int{0}},
		{"seated non-active", []LifecycleState{StateActive, StateDeparted}, []int{0, 1}},
		{"seated twice", []LifecycleState{StateActive, StateActive}, []int{0, 0}},
		{"out of range", []LifecycleState{StateActive, StateActive}, []int{0, 7}},
		{"unknown state", []LifecycleState{LifecycleState(9)}, nil},
	}
	for _, tc := range cases {
		if _, err := RestoreRegistry(tc.states, tc.active); err == nil {
			t.Errorf("%s: restore accepted inconsistent registry", tc.name)
		}
	}
}
