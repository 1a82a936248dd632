// Package incentive implements the four baseline payoff-sharing schemes
// FIFL is compared against in §5 (Eq. 18–22): Equal, Individual, Union and
// Shapley. All of them derive a worker's reward weight ω_i from the
// reported sample counts through the utility function Ψ(n) = log(1+n); none
// of them can defend against attackers or sample-count fraud, which is the
// contrast the evaluation draws.
package incentive

import (
	"math"
	"math/bits"

	"fifl/internal/parallel"
	"fifl/internal/rng"
)

// Utility is the revenue function Ψ(n) = log(1+n) relating an amount of
// training data to system revenue, following Zhan et al. as adopted by the
// paper.
func Utility(n float64) float64 { return math.Log1p(n) }

// Mechanism computes per-worker reward weights ω_i from reported sample
// counts. Weights are later normalized to shares ω_i/Σω_j (Eq. 18).
type Mechanism interface {
	// Name identifies the mechanism in reports.
	Name() string
	// Weights returns one non-negative weight per worker.
	Weights(samples []int) []float64
}

// Equal pays every participant the same (Eq. 20) — the traditional
// distributed-ML scheme.
type Equal struct{}

// Name implements Mechanism.
func (Equal) Name() string { return "Equal" }

// Weights returns uniform weights.
func (Equal) Weights(samples []int) []float64 {
	out := make([]float64, len(samples))
	for i := range out {
		out[i] = 1
	}
	return out
}

// Individual pays proportionally to each worker's independent utility
// Ψ(n_i) (Eq. 19).
type Individual struct{}

// Name implements Mechanism.
func (Individual) Name() string { return "Individual" }

// Weights returns ω_i = Ψ(n_i).
func (Individual) Weights(samples []int) []float64 {
	out := make([]float64, len(samples))
	for i, n := range samples {
		out[i] = Utility(float64(n))
	}
	return out
}

// Union pays each worker its marginal utility: the revenue the federation
// gains when the worker joins, ω_i = Ψ(A) − Ψ(A∖{i}) (Eq. 21).
type Union struct{}

// Name implements Mechanism.
func (Union) Name() string { return "Union" }

// Weights returns the marginal utilities. With Ψ depending only on the
// coalition's total data, Ψ(A) = log(1+Σn).
func (Union) Weights(samples []int) []float64 {
	total := 0.0
	for _, n := range samples {
		total += float64(n)
	}
	out := make([]float64, len(samples))
	full := Utility(total)
	for i, n := range samples {
		out[i] = full - Utility(total-float64(n))
	}
	return out
}

// Shapley pays each worker its Shapley value: the marginal utility averaged
// over every coalition ordering (Eq. 22). For N ≤ MaxExactN the value is
// computed exactly by subset enumeration; beyond that it falls back to
// Monte Carlo permutation sampling with SampleRounds permutations.
type Shapley struct {
	// MaxExactN bounds exact enumeration; 0 means the default of 20.
	MaxExactN int
	// SampleRounds is the number of random permutations for the sampled
	// estimator; 0 means the default of 2000.
	SampleRounds int
	// Src seeds the sampled estimator; nil uses a fixed seed so results
	// stay reproducible.
	Src *rng.Source
}

// Name implements Mechanism.
func (Shapley) Name() string { return "Shapley" }

// Weights returns the Shapley values of all workers.
func (s Shapley) Weights(samples []int) []float64 {
	maxExact := s.MaxExactN
	if maxExact == 0 {
		maxExact = 20
	}
	if len(samples) <= maxExact {
		return shapleyExact(samples)
	}
	rounds := s.SampleRounds
	if rounds == 0 {
		rounds = 2000
	}
	src := s.Src
	if src == nil {
		src = rng.New(0x5ab1e)
	}
	return shapleySampled(samples, rounds, src)
}

// shapleyExact enumerates, for each worker i, every subset S of the other
// workers and accumulates the weighted marginal |S|!(N−|S|−1)!/N! ·
// (Ψ(S∪{i}) − Ψ(S)). Because Ψ depends only on the coalition's sample sum,
// each subset costs O(1) beyond the incremental sum.
func shapleyExact(samples []int) []float64 {
	n := len(samples)
	out := make([]float64, n)
	if n == 0 {
		return out
	}
	if n == 1 {
		out[0] = Utility(float64(samples[0]))
		return out
	}
	// Precompute the permutation-count weights per coalition size.
	// w_k = k!·(n−k−1)!/n! computed in log space to avoid overflow.
	logFact := make([]float64, n+1)
	for i := 2; i <= n; i++ {
		logFact[i] = logFact[i-1] + math.Log(float64(i))
	}
	weight := make([]float64, n)
	for k := 0; k < n; k++ {
		weight[k] = math.Exp(logFact[k] + logFact[n-k-1] - logFact[n])
	}
	parallel.For(n, func(i int) {
		others := make([]float64, 0, n-1)
		for j, v := range samples {
			if j != i {
				others = append(others, float64(v))
			}
		}
		ni := float64(samples[i])
		// Incremental subset sums over masks of the n-1 others:
		// sum[mask] = sum[mask & (mask-1)] + others[lowest set bit].
		masks := 1 << (n - 1)
		sums := make([]float64, masks)
		total := 0.0
		for mask := 1; mask < masks; mask++ {
			low := mask & -mask
			sums[mask] = sums[mask^low] + others[bits.TrailingZeros(uint(low))]
		}
		for mask := 0; mask < masks; mask++ {
			k := bits.OnesCount(uint(mask))
			total += weight[k] * (Utility(sums[mask]+ni) - Utility(sums[mask]))
		}
		out[i] = total
	})
	return out
}

// shapleySampled estimates Shapley values by averaging marginals over
// random permutations.
func shapleySampled(samples []int, rounds int, src *rng.Source) []float64 {
	n := len(samples)
	out := make([]float64, n)
	for r := 0; r < rounds; r++ {
		perm := src.Perm(n)
		sum := 0.0
		for _, i := range perm {
			before := Utility(sum)
			sum += float64(samples[i])
			out[i] += Utility(sum) - before
		}
	}
	inv := 1.0 / float64(rounds)
	for i := range out {
		out[i] *= inv
	}
	return out
}

// Shares normalizes a mechanism's weights into reward shares
// ω_i/Σ_j ω_j (Eq. 18). An all-zero weight vector yields uniform shares.
func Shares(m Mechanism, samples []int) []float64 {
	w := m.Weights(samples)
	total := 0.0
	for _, v := range w {
		total += v
	}
	out := make([]float64, len(w))
	if total == 0 {
		if len(w) > 0 {
			u := 1.0 / float64(len(w))
			for i := range out {
				out[i] = u
			}
		}
		return out
	}
	for i, v := range w {
		out[i] = v / total
	}
	return out
}
