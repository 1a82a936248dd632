package core

import (
	"math"
	"testing"
	"testing/quick"

	"fifl/internal/gradvec"
	"fifl/internal/rng"
)

func TestContributionZeroGradientBaseline(t *testing.T) {
	global := gradvec.Vector{1, 1}
	grads := []gradvec.Vector{
		{1, 1},   // identical to global: b=0, C=1
		{0, 0},   // zero gradient: b=bh, C=0
		{-1, -1}, // opposite: b=8, bh=2, C=-3
	}
	c := ComputeContributions(ContributionConfig{BaselineWorker: -1}, global, grads)
	if c.BH != 2 {
		t.Fatalf("bh = %v, want ‖G̃‖² = 2", c.BH)
	}
	if math.Abs(c.C[0]-1) > 1e-12 {
		t.Fatalf("perfect worker C = %v, want 1", c.C[0])
	}
	if math.Abs(c.C[1]) > 1e-12 {
		t.Fatalf("zero-gradient worker C = %v, want 0 (the free-rider bar)", c.C[1])
	}
	if math.Abs(c.C[2]+3) > 1e-12 {
		t.Fatalf("adversarial worker C = %v, want -3", c.C[2])
	}
}

func TestContributionBaselineWorker(t *testing.T) {
	global := gradvec.Vector{2, 0}
	grads := []gradvec.Vector{
		{2, 0}, // b=0
		{1, 0}, // b=1 — the baseline
		{0, 0}, // b=4
	}
	c := ComputeContributions(ContributionConfig{BaselineWorker: 1}, global, grads)
	if c.BH != 1 {
		t.Fatalf("bh = %v, want the baseline worker's distance 1", c.BH)
	}
	if c.C[1] != 0 {
		t.Fatalf("baseline worker's own contribution = %v, want 0", c.C[1])
	}
	if c.C[0] != 1 || c.C[2] != -3 {
		t.Fatalf("C = %v", c.C)
	}
}

func TestContributionDroppedAndNaN(t *testing.T) {
	global := gradvec.Vector{1, 0}
	grads := []gradvec.Vector{
		{1, 0},
		nil, // dropped upload
		{math.NaN(), 0},
	}
	c := ComputeContributions(ContributionConfig{BaselineWorker: -1}, global, grads)
	if !math.IsNaN(c.Dist[1]) || !math.IsNaN(c.Dist[2]) {
		t.Fatal("unusable uploads must have NaN distance")
	}
	if c.C[1] != 0 || c.C[2] != 0 {
		t.Fatal("unusable uploads must contribute 0")
	}
}

func TestContributionNilGlobal(t *testing.T) {
	c := ComputeContributions(ContributionConfig{}, nil, []gradvec.Vector{{1}})
	if c.C[0] != 0 {
		t.Fatal("nil global gradient must yield zero contributions")
	}
}

func TestContributionZeroGlobal(t *testing.T) {
	c := ComputeContributions(ContributionConfig{BaselineWorker: -1},
		gradvec.Vector{0, 0}, []gradvec.Vector{{1, 0}})
	if c.C[0] != 0 {
		t.Fatal("zero global gradient (bh=0) must yield zero contributions")
	}
}

func TestContributionBaselineWorkerDroppedFallsBack(t *testing.T) {
	global := gradvec.Vector{1, 1}
	grads := []gradvec.Vector{{1, 1}, nil}
	c := ComputeContributions(ContributionConfig{BaselineWorker: 1}, global, grads)
	if c.BH != 2 {
		t.Fatalf("bh should fall back to ‖G̃‖² when the baseline dropped, got %v", c.BH)
	}
}

// Property: contributions order inversely with distance — the closer a
// gradient is to the global gradient, the larger its contribution.
func TestContributionMonotoneInDistance(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		src := rng.New(seed)
		dim := src.UniformInt(2, 30)
		global := make(gradvec.Vector, dim)
		src.FillNormal(global, 0, 1)
		// Two workers: one a small perturbation, one a large one.
		near := global.Clone()
		far := global.Clone()
		noise := make([]float64, dim)
		src.FillNormal(noise, 0, 0.1)
		near.Add(noise)
		src.FillNormal(noise, 0, 2.0)
		far.Add(noise)
		c := ComputeContributions(ContributionConfig{BaselineWorker: -1}, global,
			[]gradvec.Vector{near, far})
		return c.C[0] >= c.C[1]
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: the contribution distance decomposes over polycentric slices
// (Eq. 13): computing b_i on full vectors equals summing per-slice
// distances.
func TestContributionSliceDecomposition(t *testing.T) {
	src := rng.New(9)
	dim, m := 37, 5
	global := make(gradvec.Vector, dim)
	g := make(gradvec.Vector, dim)
	src.FillNormal(global, 0, 1)
	src.FillNormal(g, 0, 1)
	full := global.SqDist(g)
	sum := 0.0
	gs, ws := gradvec.Split(global, m), gradvec.Split(g, m)
	for j := 0; j < m; j++ {
		sum += gs[j].SqDist(ws[j])
	}
	if math.Abs(full-sum) > 1e-9 {
		t.Fatalf("slice decomposition broken: %v vs %v", full, sum)
	}
}
