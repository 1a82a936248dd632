package netsim

import (
	"math"
	"testing"
	"testing/quick"

	"fifl/internal/gradvec"
	"fifl/internal/rng"
)

func TestAnalyzePerServerScalesInverseM(t *testing.T) {
	base := Params{Workers: 20, Servers: 1, ModelDim: 100000}
	central := Analyze(base)
	base.Servers = 10
	poly := Analyze(base)
	// Per-server ingest drops ~10x.
	ratio := float64(central.PerServerIn) / float64(poly.PerServerIn)
	if ratio < 9.5 || ratio > 10.5 {
		t.Fatalf("per-server load ratio %v, want ≈10", ratio)
	}
	// Per-worker traffic is invariant in M.
	if central.PerWorkerUp != poly.PerWorkerUp || central.PerWorkerDown != poly.PerWorkerDown {
		t.Fatal("per-worker traffic must not depend on M")
	}
	// Total traffic is conserved.
	if central.TotalBytes != poly.TotalBytes {
		t.Fatal("total traffic must not depend on M")
	}
}

func TestAnalyzeAggregationWorkScales(t *testing.T) {
	p := Params{Workers: 8, Servers: 4, ModelDim: 1000}
	c := Analyze(p)
	if c.PerServerAggOps != 8*250 {
		t.Fatalf("agg ops = %d, want %d", c.PerServerAggOps, 8*250)
	}
}

func TestAnalyzeTimeModel(t *testing.T) {
	p := Params{Workers: 10, Servers: 1, ModelDim: 1000, LinkBps: 8000, AggOpsPerSec: 1e6}
	c := Analyze(p)
	if c.RoundSeconds <= 0 {
		t.Fatal("time model should produce positive round time")
	}
	// More servers shorten the round (server link is the bottleneck).
	p.Servers = 10
	c2 := Analyze(p)
	if c2.RoundSeconds >= c.RoundSeconds {
		t.Fatalf("decentralizing should shorten the round: %v vs %v", c2.RoundSeconds, c.RoundSeconds)
	}
}

func TestAnalyzePanics(t *testing.T) {
	for name, p := range map[string]Params{
		"zero workers": {Workers: 0, Servers: 1, ModelDim: 10},
		"zero dim":     {Workers: 2, Servers: 1, ModelDim: 0},
		"M > N":        {Workers: 2, Servers: 3, ModelDim: 10},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			Analyze(p)
		}()
	}
}

// TestExchangeMatchesDirectAggregation is the protocol-correctness
// property: the channel-based §3.2 exchange computes exactly the weighted
// aggregate, for any N, M and drop pattern.
func TestExchangeMatchesDirectAggregation(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		src := rng.New(seed)
		n := src.UniformInt(1, 12)
		m := src.UniformInt(1, n)
		dim := src.UniformInt(m, 80)
		grads := make([]gradvec.Vector, n)
		weights := make([]float64, n)
		anyAlive := false
		for i := range grads {
			weights[i] = src.Uniform(0.5, 3)
			if src.Bernoulli(0.8) {
				g := make(gradvec.Vector, dim)
				src.FillNormal(g, 0, 1)
				grads[i] = g
				anyAlive = true
			}
		}
		got, _ := Exchange(grads, weights, m)
		if !anyAlive {
			return got == nil
		}
		// Direct reference: normalized weighted sum over arrivals.
		total := 0.0
		for i, g := range grads {
			if g != nil {
				total += weights[i]
			}
		}
		want := gradvec.Zeros(dim)
		for i, g := range grads {
			if g != nil {
				want.AddScaled(weights[i]/total, g)
			}
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-9 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestExchangeTrafficAccounting(t *testing.T) {
	src := rng.New(5)
	n, m, dim := 6, 3, 90
	grads := make([]gradvec.Vector, n)
	weights := make([]float64, n)
	for i := range grads {
		g := make(gradvec.Vector, dim)
		src.FillNormal(g, 0, 1)
		grads[i] = g
		weights[i] = 1
	}
	_, traffic := Exchange(grads, weights, m)
	for i := 0; i < n; i++ {
		if traffic.WorkerUp[i] != dim {
			t.Fatalf("worker %d uploaded %d scalars, want %d", i, traffic.WorkerUp[i], dim)
		}
		if traffic.WorkerDn[i] != dim {
			t.Fatalf("worker %d downloaded %d scalars, want %d", i, traffic.WorkerDn[i], dim)
		}
	}
	for j := 0; j < m; j++ {
		if traffic.ServerIn[j] != n*dim/m {
			t.Fatalf("server %d ingested %d scalars, want %d", j, traffic.ServerIn[j], n*dim/m)
		}
	}
	if traffic.MaxServerIn() != n*dim/m {
		t.Fatalf("MaxServerIn = %d", traffic.MaxServerIn())
	}
}

func TestExchangeAllDropped(t *testing.T) {
	got, _ := Exchange([]gradvec.Vector{nil, nil}, []float64{1, 1}, 2)
	if got != nil {
		t.Fatal("all-dropped exchange should be nil")
	}
}
