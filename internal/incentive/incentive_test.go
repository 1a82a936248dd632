package incentive

import (
	"math"
	"testing"
	"testing/quick"

	"fifl/internal/rng"
)

func TestUtilityShape(t *testing.T) {
	if Utility(0) != 0 {
		t.Fatal("Ψ(0) must be 0")
	}
	// Monotone increasing and concave (diminishing marginal utility in
	// equal sample increments).
	prev := Utility(0)
	prevGain := math.Inf(1)
	for n := 500.0; n <= 10000; n += 500 {
		u := Utility(n)
		if u <= prev {
			t.Fatal("Ψ must increase")
		}
		gain := u - prev
		if gain >= prevGain {
			t.Fatal("Ψ must have diminishing marginal gains")
		}
		prev, prevGain = u, gain
	}
}

func TestEqualWeights(t *testing.T) {
	w := Equal{}.Weights([]int{100, 5000, 9000})
	for _, v := range w {
		if v != 1 {
			t.Fatalf("Equal weights = %v", w)
		}
	}
}

func TestIndividualWeights(t *testing.T) {
	w := Individual{}.Weights([]int{99, 999})
	if math.Abs(w[0]-math.Log(100)) > 1e-12 || math.Abs(w[1]-math.Log(1000)) > 1e-12 {
		t.Fatalf("Individual weights = %v", w)
	}
}

func TestUnionWeights(t *testing.T) {
	samples := []int{100, 300}
	w := Union{}.Weights(samples)
	full := Utility(400)
	if math.Abs(w[0]-(full-Utility(300))) > 1e-12 {
		t.Fatalf("Union weight 0 = %v", w[0])
	}
	if math.Abs(w[1]-(full-Utility(100))) > 1e-12 {
		t.Fatalf("Union weight 1 = %v", w[1])
	}
	if w[1] <= w[0] {
		t.Fatal("larger holder must have larger marginal utility")
	}
}

func TestShapleyTwoWorkersClosedForm(t *testing.T) {
	// For two workers the Shapley value has a closed form:
	// φ_1 = ½[Ψ(n1) + Ψ(n1+n2) − Ψ(n2)].
	n1, n2 := 400, 1600
	w := Shapley{}.Weights([]int{n1, n2})
	want0 := 0.5 * (Utility(float64(n1)) + Utility(float64(n1+n2)) - Utility(float64(n2)))
	want1 := 0.5 * (Utility(float64(n2)) + Utility(float64(n1+n2)) - Utility(float64(n1)))
	if math.Abs(w[0]-want0) > 1e-12 || math.Abs(w[1]-want1) > 1e-12 {
		t.Fatalf("Shapley = %v, want [%v %v]", w, want0, want1)
	}
}

// TestShapleyEfficiency: Shapley values sum to the grand-coalition utility
// (the efficiency axiom) — a strong end-to-end check of the enumeration.
func TestShapleyEfficiency(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		src := rng.New(seed)
		n := src.UniformInt(1, 10)
		samples := make([]int, n)
		total := 0
		for i := range samples {
			samples[i] = src.UniformInt(1, 5000)
			total += samples[i]
		}
		w := Shapley{}.Weights(samples)
		sum := 0.0
		for _, v := range w {
			sum += v
		}
		return math.Abs(sum-Utility(float64(total))) < 1e-9
	}, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestShapleySymmetry: equal holders get equal Shapley values.
func TestShapleySymmetry(t *testing.T) {
	w := Shapley{}.Weights([]int{500, 2000, 500})
	if math.Abs(w[0]-w[2]) > 1e-12 {
		t.Fatalf("symmetric workers differ: %v", w)
	}
}

func TestShapleySampledApproximatesExact(t *testing.T) {
	samples := []int{100, 1000, 4000, 8000, 2500, 600}
	exact := Shapley{}.Weights(samples)
	sampled := Shapley{MaxExactN: 1, SampleRounds: 8000, Src: rng.New(5)}.Weights(samples)
	for i := range exact {
		rel := math.Abs(sampled[i]-exact[i]) / exact[i]
		if rel > 0.1 {
			t.Fatalf("sampled Shapley off by %.1f%% at %d (%v vs %v)", rel*100, i, sampled[i], exact[i])
		}
	}
}

func TestShapleyEdgeCases(t *testing.T) {
	if w := (Shapley{}).Weights(nil); len(w) != 0 {
		t.Fatal("empty population")
	}
	w := Shapley{}.Weights([]int{777})
	if math.Abs(w[0]-Utility(777)) > 1e-12 {
		t.Fatalf("singleton Shapley = %v", w[0])
	}
}

func TestSharesNormalization(t *testing.T) {
	for _, m := range []Mechanism{Individual{}, Equal{}, Union{}, Shapley{}} {
		s := Shares(m, []int{100, 900, 5000})
		sum := 0.0
		for _, v := range s {
			if v < 0 {
				t.Fatalf("%s: negative share %v", m.Name(), v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("%s: shares sum %v", m.Name(), sum)
		}
	}
}

func TestSharesAllZeroUniform(t *testing.T) {
	s := Shares(Individual{}, []int{0, 0})
	if s[0] != 0.5 || s[1] != 0.5 {
		t.Fatalf("zero-weight shares = %v", s)
	}
}

// TestMonotoneInSamples: every non-Equal baseline rewards more data with a
// weakly larger weight.
func TestMonotoneInSamples(t *testing.T) {
	samples := []int{10, 100, 1000, 5000, 9999}
	for _, m := range []Mechanism{Individual{}, Union{}, Shapley{}} {
		w := m.Weights(samples)
		for i := 1; i < len(w); i++ {
			if w[i] < w[i-1] {
				t.Fatalf("%s weights not monotone: %v", m.Name(), w)
			}
		}
	}
}
