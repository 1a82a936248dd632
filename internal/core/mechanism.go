package core

import (
	"fmt"
	"strings"

	"fifl/internal/incentive"
)

// RewardMechanism decides how one round's reward budget is split. It is
// the Reward stage's strategy interface: FIFL's reputation-weighted
// scheme (Eq. 15) and the four §5 baselines all implement it, so any of
// them can run through the full coordinator path — detection, ledger,
// checkpointing and the wire transport included — and be compared on
// identical rounds.
//
// Shares reads the staged RoundContext (detection verdicts, staged
// reputations, contributions, upload fates) and returns one share per
// worker. Shares of accepted workers conventionally sum to at most 1;
// negative shares are fines. Returning an error aborts the round before
// any state is committed.
type RewardMechanism interface {
	// Name identifies the mechanism in reports, flags and logs.
	Name() string
	// Shares computes the per-worker reward split for one round.
	Shares(rc *RoundContext) ([]float64, error)
}

// FIFLIncentive is the paper's own incentive module (§4.4, Eq. 15):
// positive contributions earn reputation-scaled rewards, negative
// contributions draw reputation-independent fines. It is the default
// mechanism of NewCoordinator.
type FIFLIncentive struct{}

// Name implements RewardMechanism.
func (FIFLIncentive) Name() string { return "fifl" }

// Shares implements RewardMechanism by applying Eq. 15 to the staged
// reputations and contributions.
func (FIFLIncentive) Shares(rc *RoundContext) ([]float64, error) {
	return RewardShares(rc.Reputations, rc.Contributions.C)
}

// SampleIncentive adapts a sample-count baseline (incentive.Equal,
// Individual, Union or Shapley) to the RewardMechanism stage interface.
// Weights are computed from every worker's reported sample count — the
// baselines have no notion of attack detection, which is exactly the
// contrast §5 draws — but workers whose upload never arrived are paid
// nothing: a scheme that paid absentees would make the wire-transport
// comparison meaningless. The surviving weights are renormalized, and a
// round that missed its quorum pays nobody.
type SampleIncentive struct {
	M incentive.Mechanism
}

// Name implements RewardMechanism.
func (s SampleIncentive) Name() string { return strings.ToLower(s.M.Name()) }

// Shares implements RewardMechanism.
func (s SampleIncentive) Shares(rc *RoundContext) ([]float64, error) {
	n := len(rc.RR.Grads)
	out := make([]float64, n)
	if !rc.RR.Committed {
		return out, nil
	}
	w := s.M.Weights(rc.RR.Samples)
	if len(w) != n {
		return nil, fmt.Errorf("core: mechanism %s returned %d weights for %d workers", s.M.Name(), len(w), n)
	}
	total := 0.0
	for i := range w {
		if !rc.RR.Status[i].Arrived() {
			w[i] = 0
		}
		total += w[i]
	}
	if total == 0 {
		return out, nil
	}
	for i, v := range w {
		out[i] = v / total
	}
	return out, nil
}

// ResumableMechanism is implemented by reward mechanisms that consume a
// private deterministic random stream (currently Monte-Carlo Shapley).
// It mirrors fl.ResumableWorker: RNGDraws reports the stream position for
// a checkpoint to persist, DiscardRNG fast-forwards a freshly built
// mechanism back to that position on resume. Mechanisms without private
// randomness simply don't implement it and checkpoint as position 0.
type ResumableMechanism interface {
	RewardMechanism
	// RNGDraws reports how many raw steps the mechanism's random stream
	// has consumed so far.
	RNGDraws() uint64
	// DiscardRNG fast-forwards the stream to the given position. It
	// errors if the stream is already past it.
	DiscardRNG(n uint64) error
}

// MonteCarloMechanism runs the truncated-permutation Monte-Carlo Shapley
// estimator as a RewardMechanism. It is stateful: each round's Shares
// call advances the estimator's private random stream, so one instance
// belongs to exactly one coordinator, and MechanismByName builds a fresh
// instance per lookup. It implements ResumableMechanism so the stream
// position rides along in checkpoints.
type MonteCarloMechanism struct {
	SampleIncentive
	mc *incentive.MonteCarloShapley
}

// NewMonteCarloMechanism builds a Monte-Carlo Shapley mechanism. Zero
// values select the incentive package defaults (DefaultMCSeed,
// DefaultMCRounds); tolerance <= 0 disables truncation.
func NewMonteCarloMechanism(seed uint64, rounds int, tolerance float64) *MonteCarloMechanism {
	mc := incentive.NewMonteCarloShapley(seed, rounds, tolerance)
	return &MonteCarloMechanism{SampleIncentive: SampleIncentive{M: mc}, mc: mc}
}

// RNGDraws implements ResumableMechanism.
func (m *MonteCarloMechanism) RNGDraws() uint64 { return m.mc.RNGDraws() }

// DiscardRNG implements ResumableMechanism.
func (m *MonteCarloMechanism) DiscardRNG(n uint64) error { return m.mc.DiscardRNG(n) }

// mechanismRegistry is the single source of truth for mechanism names:
// MechanismNames, MechanismByName and every CLI/facade error message
// derive from it. Builders return a fresh instance per call because
// mechanisms may be stateful (Monte-Carlo Shapley owns a random stream
// and must not be shared between coordinators).
var mechanismRegistry = []struct {
	name  string
	build func() RewardMechanism
}{
	{"fifl", func() RewardMechanism { return FIFLIncentive{} }},
	{"equal", func() RewardMechanism { return SampleIncentive{M: incentive.Equal{}} }},
	{"individual", func() RewardMechanism { return SampleIncentive{M: incentive.Individual{}} }},
	{"union", func() RewardMechanism { return SampleIncentive{M: incentive.Union{}} }},
	{"shapley", func() RewardMechanism { return SampleIncentive{M: incentive.Shapley{}} }},
	{"shapley-mc", func() RewardMechanism {
		return NewMonteCarloMechanism(0, 0, incentive.DefaultMCTolerance)
	}},
}

// MechanismNames lists the names MechanismByName accepts, FIFL first.
func MechanismNames() []string {
	names := make([]string, len(mechanismRegistry))
	for i, e := range mechanismRegistry {
		names[i] = e.name
	}
	return names
}

// MechanismByName resolves a mechanism flag value (case-insensitive; ""
// means the default, "fifl") to a freshly built RewardMechanism, for CLI
// and facade use. The error for an unknown name lists every valid one.
func MechanismByName(name string) (RewardMechanism, error) {
	key := strings.ToLower(name)
	if key == "" {
		key = "fifl"
	}
	for _, e := range mechanismRegistry {
		if e.name == key {
			return e.build(), nil
		}
	}
	return nil, fmt.Errorf("core: unknown reward mechanism %q (want one of %s)",
		name, strings.Join(MechanismNames(), ", "))
}

// MaxExactShapleyN is the largest federation the exact "shapley"
// mechanism will accept: the enumeration behind it visits n·2^(n-1)
// subsets, so 20 workers already cost ~10M utility evaluations per
// round and each further worker doubles that.
const MaxExactShapleyN = 20

// ValidateMechanismScale refuses mechanism/federation-size combinations
// that cannot finish in reasonable time — today, exact Shapley beyond
// MaxExactShapleyN workers. CLIs call it right after MechanismByName so
// the run fails fast with a pointer at the tractable estimator instead
// of hanging.
func ValidateMechanismScale(m RewardMechanism, workers int) error {
	if m != nil && m.Name() == "shapley" && workers > MaxExactShapleyN {
		return fmt.Errorf("core: exact shapley enumerates %d·2^%d coalitions at n=%d workers (limit %d); use the sampled estimator shapley-mc instead",
			workers, workers-1, workers, MaxExactShapleyN)
	}
	return nil
}
