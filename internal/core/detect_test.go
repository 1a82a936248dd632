package core

import (
	"math"
	"slices"
	"testing"

	"fifl/internal/fl"
	"fifl/internal/gradvec"
	"fifl/internal/rng"
)

// syntheticRound builds a RoundResult with the given gradients (nil =
// dropped).
func syntheticRound(grads []gradvec.Vector) *fl.RoundResult {
	rr := &fl.RoundResult{
		Grads:   grads,
		Samples: make([]int, len(grads)),
	}
	for i := range rr.Samples {
		rr.Samples[i] = 100
	}
	return rr
}

// noisy returns base + N(0, sigma) noise.
func noisy(src *rng.Source, base gradvec.Vector, sigma float64) gradvec.Vector {
	out := base.Clone()
	n := make([]float64, len(out))
	src.FillNormal(n, 0, sigma)
	out.Add(gradvec.Vector(n))
	return out
}

// mustDetect screens a round with the production DetectRound, for tests
// with well-formed server lists, and requires the slice-table reference
// Detect to reach the same scores, benchmark and verdicts bit for bit.
func mustDetect(t *testing.T, d *Detector, rr *fl.RoundResult, servers []int, m int) *DetectionResult {
	t.Helper()
	res, err := d.DetectRound(rr, servers, m)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := d.Detect(rr, sliceGradients(rr, m), servers, m)
	if err != nil {
		t.Fatal(err)
	}
	if !bitsEqual(res.Scores, ref.Scores) || !bitsEqual(res.Benchmark, ref.Benchmark) ||
		!slices.Equal(res.Accept, ref.Accept) || !slices.Equal(res.Uncertain, ref.Uncertain) {
		t.Fatalf("DetectRound and the reference Detect disagree:\nscores %v\nref    %v", res.Scores, ref.Scores)
	}
	return res
}

func TestDetectSeparatesSignFlip(t *testing.T) {
	src := rng.New(1)
	dim, m := 64, 4
	truth := make(gradvec.Vector, dim)
	src.FillNormal(truth, 0, 1)

	grads := make([]gradvec.Vector, 6)
	for i := 0; i < 4; i++ {
		grads[i] = noisy(src, truth, 0.2)
	}
	// Two sign-flip attackers.
	for i := 4; i < 6; i++ {
		g := noisy(src, truth, 0.2)
		g.Scale(-3)
		grads[i] = g
	}
	rr := syntheticRound(grads)
	det := Detector{Threshold: 0.1}
	res := mustDetect(t, &det, rr, []int{0, 1, 2, 3}, m)
	for i := 0; i < 4; i++ {
		if !res.Accept[i] {
			t.Fatalf("honest worker %d rejected with score %v", i, res.Scores[i])
		}
	}
	for i := 4; i < 6; i++ {
		if res.Accept[i] {
			t.Fatalf("attacker %d accepted with score %v", i, res.Scores[i])
		}
		if res.Scores[i] >= 0 {
			t.Fatalf("attacker %d score %v, want negative", i, res.Scores[i])
		}
	}
}

func TestDetectScoreIsCosine(t *testing.T) {
	// With one server, the benchmark is the server's own full gradient, so
	// the score of any worker is exactly the cosine similarity.
	src := rng.New(2)
	dim := 16
	a := make(gradvec.Vector, dim)
	b := make(gradvec.Vector, dim)
	src.FillNormal(a, 0, 1)
	src.FillNormal(b, 0, 1)
	rr := syntheticRound([]gradvec.Vector{a, b})
	res := mustDetect(t, (&Detector{Threshold: 0}), rr, []int{0}, 1)
	if math.Abs(res.Scores[1]-a.CosSim(b)) > 1e-12 {
		t.Fatalf("score %v, want cosine %v", res.Scores[1], a.CosSim(b))
	}
	// The server's own upload has no independent assessor at M = 1:
	// self-assessment is excluded (a Byzantine server must not validate
	// itself), leaving a zero score.
	if res.Scores[0] != 0 {
		t.Fatalf("server's own score %v, want 0 (self-assessment excluded)", res.Scores[0])
	}
}

// TestDetectServerCannotSelfValidate pins the self-assessment exclusion: a
// sign-flipping attacker that sits in the server cluster must not be able
// to score itself positive through its own amplified benchmark slice.
func TestDetectServerCannotSelfValidate(t *testing.T) {
	src := rng.New(11)
	dim, m := 60, 6
	truth := make(gradvec.Vector, dim)
	src.FillNormal(truth, 0, 1)
	grads := make([]gradvec.Vector, 6)
	for i := 0; i < 5; i++ {
		grads[i] = noisy(src, truth, 0.1)
	}
	atk := noisy(src, truth, 0.1)
	atk.Scale(-4)
	grads[5] = atk
	rr := syntheticRound(grads)
	// Every worker serves — the decentralized M = N case — so the
	// attacker's own slice is region 5 of the benchmark. Its amplified
	// slice also pollutes everyone else's benchmark, dragging honest
	// scores toward zero (until re-election evicts it), so the unit test
	// uses a small threshold.
	res := mustDetect(t, (&Detector{Threshold: 0.02}), rr, []int{0, 1, 2, 3, 4, 5}, m)
	if res.Accept[5] {
		t.Fatalf("attacker-server self-validated with score %v", res.Scores[5])
	}
	if res.Scores[5] >= 0 {
		t.Fatalf("attacker-server score %v, want negative", res.Scores[5])
	}
	for i := 0; i < 5; i++ {
		if !res.Accept[i] {
			t.Fatalf("honest server %d rejected with score %v", i, res.Scores[i])
		}
	}
}

func TestDetectDroppedUncertain(t *testing.T) {
	src := rng.New(3)
	truth := make(gradvec.Vector, 8)
	src.FillNormal(truth, 0, 1)
	grads := []gradvec.Vector{truth.Clone(), nil, truth.Clone()}
	rr := syntheticRound(grads)
	res := mustDetect(t, (&Detector{Threshold: 0}), rr, []int{0, 2}, 2)
	if !res.Uncertain[1] || res.Accept[1] {
		t.Fatal("dropped upload must be uncertain and not accepted")
	}
	if !math.IsNaN(res.Scores[1]) {
		t.Fatal("dropped upload must have NaN score")
	}
}

func TestDetectNaNGradientRejected(t *testing.T) {
	src := rng.New(4)
	truth := make(gradvec.Vector, 8)
	src.FillNormal(truth, 0, 1)
	bad := truth.Clone()
	bad[3] = math.NaN()
	rr := syntheticRound([]gradvec.Vector{truth.Clone(), bad})
	res := mustDetect(t, (&Detector{Threshold: 0}), rr, []int{0, 0}, 2)
	if res.Accept[1] {
		t.Fatal("NaN gradient must be rejected")
	}
	if !math.IsInf(res.Scores[1], -1) {
		t.Fatalf("NaN gradient score %v, want -Inf", res.Scores[1])
	}
}

func TestDetectZeroGradientFreeRider(t *testing.T) {
	src := rng.New(5)
	truth := make(gradvec.Vector, 8)
	src.FillNormal(truth, 0, 1)
	zero := make(gradvec.Vector, 8)
	rr := syntheticRound([]gradvec.Vector{truth.Clone(), zero})
	res := mustDetect(t, (&Detector{Threshold: 0.05}), rr, []int{0, 0}, 2)
	if res.Accept[1] {
		t.Fatal("zero-gradient free-rider must fall below any positive threshold")
	}
	if res.Scores[1] != 0 {
		t.Fatalf("zero-gradient score %v, want 0", res.Scores[1])
	}
}

func TestDetectServerDropFallsBack(t *testing.T) {
	// Server 0's upload is dropped; the benchmark must substitute another
	// surviving server's slice and still detect.
	src := rng.New(6)
	truth := make(gradvec.Vector, 32)
	src.FillNormal(truth, 0, 1)
	atk := truth.Clone()
	atk.Scale(-2)
	grads := []gradvec.Vector{nil, noisy(src, truth, 0.1), noisy(src, truth, 0.1), atk}
	rr := syntheticRound(grads)
	res := mustDetect(t, (&Detector{Threshold: 0.05}), rr, []int{0, 1}, 2)
	if res.Benchmark == nil {
		t.Fatal("benchmark should fall back to the surviving server")
	}
	if res.Accept[3] {
		t.Fatal("attacker must still be caught after server fallback")
	}
	if !res.Accept[2] {
		t.Fatal("honest worker must still be accepted after server fallback")
	}
}

func TestDetectAllServersDownAcceptsArrivals(t *testing.T) {
	src := rng.New(7)
	truth := make(gradvec.Vector, 8)
	src.FillNormal(truth, 0, 1)
	grads := []gradvec.Vector{nil, nil, truth.Clone()}
	rr := syntheticRound(grads)
	res := mustDetect(t, (&Detector{Threshold: 0.05}), rr, []int{0, 1}, 2)
	if res.Benchmark != nil {
		t.Fatal("no benchmark should exist when every server dropped")
	}
	if !res.Accept[2] {
		t.Fatal("with no benchmark, surviving arrivals are optimistically accepted")
	}
}

func TestDetectionEvents(t *testing.T) {
	res := &DetectionResult{
		Accept:    []bool{true, false, false},
		Uncertain: []bool{false, false, true},
	}
	ev := res.Events()
	if ev[0] != EventPositive || ev[1] != EventNegative || ev[2] != EventUncertain {
		t.Fatalf("events = %v", ev)
	}
}

func TestEvaluateDetectionMetrics(t *testing.T) {
	res := &DetectionResult{
		Accept:    []bool{true, false, false, true, false},
		Uncertain: []bool{false, false, false, false, true},
	}
	isAtk := []bool{false, false, true, true, false}
	m := EvaluateDetection(res, isAtk)
	// Of the 4 certain workers: worker0 honest accepted (TP), worker1
	// honest rejected (FN), worker2 attacker rejected (TN), worker3
	// attacker accepted (FP).
	if m.TPRate != 0.5 {
		t.Fatalf("TP = %v", m.TPRate)
	}
	if m.TNRate != 0.5 {
		t.Fatalf("TN = %v", m.TNRate)
	}
	if m.Accuracy != 0.5 {
		t.Fatalf("Accuracy = %v", m.Accuracy)
	}
}

// TestTaylorApproximation validates the paper's Eq. 5→Eq. 6 approximation
// on a real model: for small gradients, the sign of the exact loss delta
// matches the sign of the inner-product score.
func TestTaylorApproximationSignAgreement(t *testing.T) {
	src := rng.New(8)
	// A quadratic surrogate: L(θ) = ‖θ‖²/2, ∇L = θ. The exact loss delta
	// for a probe G is ⟨θ, G⟩ − ‖G‖²/2; the Taylor score is ⟨θ, G⟩.
	dim := 32
	theta := make(gradvec.Vector, dim)
	src.FillNormal(theta, 0, 1)
	for trial := 0; trial < 100; trial++ {
		g := make(gradvec.Vector, dim)
		src.FillNormal(g, 0, 0.05) // small probes: Taylor regime
		exact := theta.Dot(g) - g.Dot(g)/2
		taylor := theta.Dot(g)
		if math.Abs(taylor) > 0.1 && exact*taylor < 0 {
			t.Fatalf("Taylor approximation sign mismatch: exact %v, taylor %v", exact, taylor)
		}
	}
}
