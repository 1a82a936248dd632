// Package rng provides deterministic, splittable pseudo-random number
// generation for simulations.
//
// Every experiment in this repository must be exactly reproducible from a
// single root seed. A plain *rand.Rand shared across goroutines is neither
// safe nor reproducible once work is scheduled in parallel, so this package
// derives independent child generators from a parent seed using a
// SplitMix64-style mixing function. Two children split with different labels
// are statistically independent streams, and the same (seed, label) pair
// always produces the same stream regardless of scheduling order.
package rng

import (
	"hash/fnv"
	"math/rand"
)

// Source is a deterministic random source that can be split into
// independent child sources. It wraps math/rand.Rand and is NOT safe for
// concurrent use; split one child per goroutine instead of sharing.
type Source struct {
	seed uint64
	rnd  *rand.Rand
	cnt  *countingSource
}

// countingSource wraps the underlying math/rand source and counts raw
// state advances. Every public method of rand.Rand funnels into Int63 or
// Uint64 on its source, and both advance the generator state by exactly
// one step, so the count is a complete description of the stream position:
// rebuilding a Source from the same seed and discarding the same number of
// steps reproduces the stream bit for bit. That is what lets a checkpoint
// persist "where the randomness got to" as a single integer.
type countingSource struct {
	src rand.Source64
	n   uint64
}

func (c *countingSource) Int63() int64 {
	c.n++
	return c.src.Int63()
}

func (c *countingSource) Uint64() uint64 {
	c.n++
	return c.src.Uint64()
}

func (c *countingSource) Seed(seed int64) { c.src.Seed(seed) }

// New returns a Source rooted at the given seed.
func New(seed uint64) *Source {
	cnt := &countingSource{src: rand.NewSource(int64(mix(seed))).(rand.Source64)}
	return &Source{seed: seed, rnd: rand.New(cnt), cnt: cnt}
}

// mix is the SplitMix64 finalizer; it decorrelates nearby seeds.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Split derives an independent child source labelled by name. The same
// (parent seed, name) pair always yields the same child stream.
func (s *Source) Split(name string) *Source {
	h := fnv.New64a()
	h.Write([]byte(name))
	return New(mix(s.seed ^ h.Sum64()))
}

// SplitN derives an independent child source labelled by an index, e.g. one
// stream per worker.
func (s *Source) SplitN(name string, n int) *Source {
	h := fnv.New64a()
	h.Write([]byte(name))
	return New(mix(mix(s.seed^h.Sum64()) + uint64(n)*0x9e3779b97f4a7c15))
}

// Seed reports the seed this source was rooted at.
func (s *Source) Seed() uint64 { return s.seed }

// Draws reports how many raw generator steps this source has consumed.
// Together with the seed it pins the stream position exactly: a fresh
// Source on the same seed with Draws() steps discarded continues the
// stream bit for bit. Checkpoints persist this to resume simulations.
func (s *Source) Draws() uint64 { return s.cnt.n }

// Discard advances the source by n raw generator steps without producing
// values — the fast-forward half of the Draws/Discard resume contract.
func (s *Source) Discard(n uint64) {
	for i := uint64(0); i < n; i++ {
		s.cnt.Uint64()
	}
}

// Float64 returns a uniform value in [0,1).
func (s *Source) Float64() float64 { return s.rnd.Float64() }

// NormFloat64 returns a standard normal deviate.
func (s *Source) NormFloat64() float64 { return s.rnd.NormFloat64() }

// Intn returns a uniform value in [0,n). It panics if n <= 0.
func (s *Source) Intn(n int) int { return s.rnd.Intn(n) }

// Perm returns a random permutation of [0,n).
func (s *Source) Perm(n int) []int { return s.rnd.Perm(n) }

// Shuffle pseudo-randomizes the order of n elements using swap.
func (s *Source) Shuffle(n int, swap func(i, j int)) { s.rnd.Shuffle(n, swap) }

// Uniform returns a uniform value in [lo,hi).
func (s *Source) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.rnd.Float64()
}

// UniformInt returns a uniform integer in [lo,hi]. It panics if hi < lo.
func (s *Source) UniformInt(lo, hi int) int {
	if hi < lo {
		panic("rng: UniformInt with hi < lo")
	}
	return lo + s.rnd.Intn(hi-lo+1)
}

// Normal returns a normal deviate with the given mean and standard
// deviation.
func (s *Source) Normal(mean, std float64) float64 {
	return mean + std*s.rnd.NormFloat64()
}

// Bernoulli returns true with probability p.
func (s *Source) Bernoulli(p float64) bool { return s.rnd.Float64() < p }

// FillNormal fills dst with independent normal deviates.
func (s *Source) FillNormal(dst []float64, mean, std float64) {
	for i := range dst {
		dst[i] = mean + std*s.rnd.NormFloat64()
	}
}

// FillUniform fills dst with independent uniform deviates in [lo,hi).
func (s *Source) FillUniform(dst []float64, lo, hi float64) {
	for i := range dst {
		dst[i] = lo + (hi-lo)*s.rnd.Float64()
	}
}

// Sample returns k distinct indices drawn uniformly from [0,n) in random
// order. It panics if k > n.
func (s *Source) Sample(n, k int) []int {
	if k > n {
		panic("rng: Sample with k > n")
	}
	p := s.rnd.Perm(n)
	return p[:k]
}

// Categorical draws an index with probability proportional to weights[i].
// Negative weights are treated as zero; if all weights are zero it draws
// uniformly.
func (s *Source) Categorical(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return s.rnd.Intn(len(weights))
	}
	u := s.rnd.Float64() * total
	acc := 0.0
	for i, w := range weights {
		if w > 0 {
			acc += w
		}
		if u < acc {
			return i
		}
	}
	return len(weights) - 1
}
