package core

import (
	"context"
	"math"
	"testing"

	"fifl/internal/faults"
	"fifl/internal/fl"
	"fifl/internal/gradvec"
)

func TestMechanismByName(t *testing.T) {
	for _, name := range MechanismNames() {
		m, err := MechanismByName(name)
		if err != nil {
			t.Fatalf("MechanismByName(%q): %v", name, err)
		}
		if m.Name() != name {
			t.Fatalf("MechanismByName(%q).Name() = %q", name, m.Name())
		}
	}
	// Case-insensitive, and the empty string means the default.
	if m, err := MechanismByName("Shapley"); err != nil || m.Name() != "shapley" {
		t.Fatalf("mixed-case lookup: %v, %v", m, err)
	}
	if m, err := MechanismByName(""); err != nil || m.Name() != "fifl" {
		t.Fatalf("empty lookup should yield fifl: %v, %v", m, err)
	}
	if _, err := MechanismByName("winner-takes-all"); err == nil {
		t.Fatal("unknown mechanism must be an error")
	}
}

// sampleRC builds a minimal round context for mechanism unit tests.
func sampleRC(samples []int, dropped []bool, committed bool) *RoundContext {
	n := len(samples)
	rr := &fl.RoundResult{
		Grads:     make([]gradvec.Vector, n),
		Samples:   samples,
		Status:    make([]faults.UploadStatus, n),
		Committed: committed,
	}
	for i := range rr.Grads {
		if dropped == nil || !dropped[i] {
			rr.Grads[i] = gradvec.Vector{1}
		} else {
			rr.Status[i] = faults.StatusDropped
		}
	}
	return &RoundContext{RR: rr}
}

// TestSampleIncentiveZeroesAbsentees: a baseline pays only workers whose
// upload arrived, renormalizing the surviving weights to sum to one.
func TestSampleIncentiveZeroesAbsentees(t *testing.T) {
	for _, name := range []string{"equal", "individual", "union", "shapley"} {
		m, err := MechanismByName(name)
		if err != nil {
			t.Fatal(err)
		}
		rc := sampleRC([]int{100, 200, 300}, []bool{false, true, false}, true)
		shares, err := m.Shares(rc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if shares[1] != 0 {
			t.Fatalf("%s paid %v to a worker whose upload never arrived", name, shares[1])
		}
		sum := 0.0
		for _, s := range shares {
			if s < 0 {
				t.Fatalf("%s produced a negative share %v", name, s)
			}
			sum += s
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("%s shares sum to %v, want 1", name, sum)
		}
	}
}

// TestSampleIncentiveUncommittedPaysNobody: a round that missed its
// quorum distributes nothing under any baseline.
func TestSampleIncentiveUncommittedPaysNobody(t *testing.T) {
	for _, name := range []string{"equal", "individual", "union", "shapley"} {
		m, err := MechanismByName(name)
		if err != nil {
			t.Fatal(err)
		}
		shares, err := m.Shares(sampleRC([]int{100, 200}, nil, false))
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range shares {
			if s != 0 {
				t.Fatalf("%s paid %v to worker %d in an uncommitted round", name, s, i)
			}
		}
	}
}

// TestEqualMechanismThroughCoordinator runs the Equal baseline through
// the full coordinator path: every arrived worker earns the same reward
// regardless of detection verdicts — the blindness §5 contrasts FIFL
// against — while detection, reputations and the ledger keep running.
func TestEqualMechanismThroughCoordinator(t *testing.T) {
	m, err := MechanismByName("equal")
	if err != nil {
		t.Fatal(err)
	}
	coord, _ := buildTestCoordinator(t, 3, 1, true)
	eq, err := NewCoordinator(coord.Cfg, coord.Engine, []int{0, 1}, WithMechanism(m))
	if err != nil {
		t.Fatal(err)
	}
	if eq.Mechanism().Name() != "equal" {
		t.Fatalf("mechanism = %s", eq.Mechanism().Name())
	}
	rep, err := eq.RunRoundContext(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	// All four uploads arrive (no faults configured), so every worker —
	// including the sign-flip attacker the detector rejects — earns 1/4.
	rejected := 0
	for i, r := range rep.Rewards {
		if math.Abs(r-0.25) > 1e-12 {
			t.Fatalf("worker %d reward %v, want 0.25 under Equal", i, r)
		}
		if !rep.Detection.Accept[i] && !rep.Detection.Uncertain[i] {
			rejected++
		}
	}
	if rejected == 0 {
		t.Fatal("test needs a rejected attacker to show baseline blindness")
	}
	// The mechanism swap must not disable the rest of the round: the
	// ledger recorded the full assessment and reputations moved.
	if eq.Ledger.Len() == 0 {
		t.Fatal("ledger did not record the round")
	}
	if err := eq.Ledger.Verify(); err != nil {
		t.Fatal(err)
	}
	moved := false
	for _, r := range eq.Rep.Reputations() {
		if r != 0 {
			moved = true
		}
	}
	if !moved {
		t.Fatal("reputations did not move")
	}
}
