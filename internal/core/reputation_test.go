package core

import (
	"math"
	"testing"
	"testing/quick"

	"fifl/internal/rng"
)

// update folds one round of events into every worker tr tracks.
func update(tr *ReputationTracker, events []Event) error {
	return tr.UpdateIDs(identityCohort(tr.N()), events)
}

func TestReputationPositiveStreakApproachesOne(t *testing.T) {
	tr := NewReputationTracker(ReputationConfig{Gamma: 0.1}, 1)
	for i := 0; i < 300; i++ {
		update(tr, []Event{EventPositive})
	}
	if r := tr.Reputation(0); r < 0.99 {
		t.Fatalf("reputation after 300 positives = %v, want ≈1", r)
	}
}

func TestReputationNegativeStreakApproachesZero(t *testing.T) {
	tr := NewReputationTracker(ReputationConfig{Gamma: 0.1, Initial: 1}, 1)
	for i := 0; i < 300; i++ {
		update(tr, []Event{EventNegative})
	}
	if r := tr.Reputation(0); r > 0.01 {
		t.Fatalf("reputation after 300 negatives = %v, want ≈0", r)
	}
}

func TestReputationUncertainNoChange(t *testing.T) {
	tr := NewReputationTracker(ReputationConfig{Gamma: 0.1, Initial: 0.5}, 1)
	update(tr, []Event{EventUncertain})
	if tr.Reputation(0) != 0.5 {
		t.Fatal("uncertain events must not move the decayed reputation")
	}
}

func TestReputationUpdateFormula(t *testing.T) {
	tr := NewReputationTracker(ReputationConfig{Gamma: 0.3, Initial: 0.4}, 1)
	update(tr, []Event{EventPositive})
	want := 0.7*0.4 + 0.3
	if math.Abs(tr.Reputation(0)-want) > 1e-12 {
		t.Fatalf("Eq. 10 update wrong: %v, want %v", tr.Reputation(0), want)
	}
	update(tr, []Event{EventNegative})
	want = 0.7 * want
	if math.Abs(tr.Reputation(0)-want) > 1e-12 {
		t.Fatalf("Eq. 10 negative update wrong: %v, want %v", tr.Reputation(0), want)
	}
}

// TestTheorem1 is the paper's Theorem 1 as a property test: for a worker
// that attacks with constant probability p, the long-run expected decayed
// reputation converges to 1 − p.
func TestTheorem1ReputationTracksTrustworthiness(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		src := rng.New(seed)
		p := src.Uniform(0.05, 0.95)
		gamma := src.Uniform(0.02, 0.2)
		tr := NewReputationTracker(ReputationConfig{Gamma: gamma}, 1)
		// Burn in, then average the reputation over a long window.
		const burn, window = 400, 4000
		for i := 0; i < burn; i++ {
			update(tr, []Event{eventFor(src, p)})
		}
		mean := 0.0
		for i := 0; i < window; i++ {
			update(tr, []Event{eventFor(src, p)})
			mean += tr.Reputation(0)
		}
		mean /= window
		// Tolerance: the window average has standard error ~γ/√window.
		return math.Abs(mean-(1-p)) < 0.05
	}, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func eventFor(src *rng.Source, p float64) Event {
	if src.Bernoulli(p) {
		return EventNegative
	}
	return EventPositive
}

func TestReputationStaysSensitive(t *testing.T) {
	// After converging, one negative event must still move the
	// reputation by γ·R — the "does not converge to a fixed value"
	// observation under Figure 11.
	tr := NewReputationTracker(ReputationConfig{Gamma: 0.1}, 1)
	for i := 0; i < 200; i++ {
		update(tr, []Event{EventPositive})
	}
	before := tr.Reputation(0)
	update(tr, []Event{EventNegative})
	if drop := before - tr.Reputation(0); drop < 0.05 {
		t.Fatalf("reputation lost sensitivity: drop %v", drop)
	}
}

// slm returns the subjective-logic triple for worker i over the events in
// the tracker's period counters: the trust score St, distrust score Sn,
// uncertainty mass Su (Eq. 8), and the weighted period reputation of
// Eq. 9. A worker with no decided events has full uncertainty.
func slm(tr *ReputationTracker, i int) (st, sn, su, rep float64) {
	pt, pn, pu := tr.PeriodCounts()
	total := pt[i] + pn[i] + pu[i]
	if total == 0 {
		return 0, 0, 1, -tr.cfg.AlphaU
	}
	su = float64(pu[i]) / float64(total)
	decided := pt[i] + pn[i]
	if decided > 0 {
		st = (1 - su) * float64(pt[i]) / float64(decided)
		sn = (1 - su) * float64(pn[i]) / float64(decided)
	}
	rep = tr.cfg.AlphaT*st - tr.cfg.AlphaN*sn - tr.cfg.AlphaU*su
	return st, sn, su, rep
}

func TestSLMTriple(t *testing.T) {
	tr := NewReputationTracker(DefaultReputationConfig(), 1)
	// 6 positive, 2 negative, 2 uncertain.
	for i := 0; i < 6; i++ {
		update(tr, []Event{EventPositive})
	}
	for i := 0; i < 2; i++ {
		update(tr, []Event{EventNegative})
	}
	for i := 0; i < 2; i++ {
		update(tr, []Event{EventUncertain})
	}
	if pt, pn, pu := tr.PeriodCounts(); pt[0] != 6 || pn[0] != 2 || pu[0] != 2 {
		t.Fatalf("period counts = %d/%d/%d, want 6/2/2", pt[0], pn[0], pu[0])
	}
	st, sn, su, rep := slm(tr, 0)
	if math.Abs(su-0.2) > 1e-12 {
		t.Fatalf("Su = %v, want 0.2", su)
	}
	if math.Abs(st-0.8*0.75) > 1e-12 {
		t.Fatalf("St = %v, want 0.6", st)
	}
	if math.Abs(sn-0.8*0.25) > 1e-12 {
		t.Fatalf("Sn = %v, want 0.2", sn)
	}
	// Eq. 9 with unit alphas: St − Sn − Su.
	if math.Abs(rep-(st-sn-su)) > 1e-12 {
		t.Fatalf("period reputation = %v", rep)
	}
}

func TestSLMNoEventsFullUncertainty(t *testing.T) {
	tr := NewReputationTracker(DefaultReputationConfig(), 1)
	_, _, su, _ := slm(tr, 0)
	if su != 1 {
		t.Fatalf("Su with no events = %v, want 1", su)
	}
}

func TestUpdateLengthMismatchErrors(t *testing.T) {
	tr := NewReputationTracker(DefaultReputationConfig(), 2)
	if err := update(tr, []Event{EventPositive}); err == nil {
		t.Fatal("mismatched event count must error")
	}
	if err := update(tr, []Event{Event(99), EventPositive}); err == nil {
		t.Fatal("unknown event must error")
	}
	// A rejected update must not have touched any state.
	if tr.Reputation(0) != 0 || tr.Reputation(1) != 0 {
		t.Fatal("failed update mutated reputations")
	}
}

func TestSetReputation(t *testing.T) {
	tr := NewReputationTracker(DefaultReputationConfig(), 3)
	if err := tr.SetReputation(1, 0.77); err != nil {
		t.Fatalf("SetReputation: %v", err)
	}
	if tr.Reputation(1) != 0.77 {
		t.Fatal("SetReputation failed")
	}
	reps := tr.Reputations()
	reps[1] = 0
	if tr.Reputation(1) != 0.77 {
		t.Fatal("Reputations must return a copy")
	}
}

func TestSetReputationRejectsInvalid(t *testing.T) {
	tr := NewReputationTracker(DefaultReputationConfig(), 3)
	for name, call := range map[string]func() error{
		"NaN":           func() error { return tr.SetReputation(0, math.NaN()) },
		"+Inf":          func() error { return tr.SetReputation(1, math.Inf(1)) },
		"-Inf":          func() error { return tr.SetReputation(2, math.Inf(-1)) },
		"negative idx":  func() error { return tr.SetReputation(-1, 0.5) },
		"idx past size": func() error { return tr.SetReputation(3, 0.5) },
	} {
		if err := call(); err == nil {
			t.Fatalf("%s: SetReputation accepted invalid input", name)
		}
	}
	for i := 0; i < 3; i++ {
		if tr.Reputation(i) != 0 {
			t.Fatalf("rejected SetReputation mutated worker %d", i)
		}
	}
}

func TestPeriodCountsRoundTrip(t *testing.T) {
	tr := NewReputationTracker(DefaultReputationConfig(), 2)
	events := [][]Event{
		{EventPositive, EventUncertain},
		{EventPositive, EventNegative},
		{EventUncertain, EventNegative},
	}
	for _, ev := range events {
		if err := update(tr, ev); err != nil {
			t.Fatal(err)
		}
	}
	pt, pn, pu := tr.PeriodCounts()

	restored := NewReputationTracker(DefaultReputationConfig(), 2)
	if err := restored.SetPeriodCounts(pt, pn, pu); err != nil {
		t.Fatalf("SetPeriodCounts: %v", err)
	}
	for i := 0; i < 2; i++ {
		st1, sn1, su1, rep1 := slm(tr, i)
		st2, sn2, su2, rep2 := slm(restored, i)
		if st1 != st2 || sn1 != sn2 || su1 != su2 || rep1 != rep2 {
			t.Fatalf("worker %d SLM mismatch after counter restore", i)
		}
	}

	// The accessors must return copies, not aliases.
	pt[0] = 99
	if got, _, _ := tr.PeriodCounts(); got[0] == 99 {
		t.Fatal("PeriodCounts returned an aliased slice")
	}

	if err := restored.SetPeriodCounts([]int{1}, pn, pu); err == nil {
		t.Fatal("ragged SetPeriodCounts accepted")
	}
	if err := restored.SetPeriodCounts([]int{-1, 0}, pn, pu); err == nil {
		t.Fatal("negative SetPeriodCounts accepted")
	}
}
