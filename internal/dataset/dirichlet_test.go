package dataset

import (
	"math"
	"testing"

	"fifl/internal/rng"
)

func TestPartitionDirichletCoversAll(t *testing.T) {
	d := SynthDigits(rng.New(31), 300)
	for _, alpha := range []float64{0.1, 1, 100} {
		parts := d.PartitionDirichlet(rng.New(32), 5, alpha)
		if len(parts) != 5 {
			t.Fatalf("parts = %d", len(parts))
		}
		total := 0
		for _, p := range parts {
			if p.Len() == 0 {
				t.Fatalf("alpha=%v produced an empty shard", alpha)
			}
			total += p.Len()
		}
		if total != 300 {
			t.Fatalf("alpha=%v lost examples: %d/300", alpha, total)
		}
	}
}

// labelSkew measures the mean standard deviation of per-shard label
// distributions — higher means more heterogeneous shards.
func labelSkew(parts []*Dataset, classes int) float64 {
	total := 0.0
	for _, p := range parts {
		counts := make([]float64, classes)
		for _, l := range p.Labels {
			counts[l]++
		}
		for i := range counts {
			counts[i] /= float64(len(p.Labels))
		}
		_, v := meanVar(counts)
		total += math.Sqrt(v)
	}
	return total / float64(len(parts))
}

// meanVar returns the mean and population variance of xs.
func meanVar(xs []float64) (mean, variance float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		variance += (x - mean) * (x - mean)
	}
	return mean, variance / float64(len(xs))
}

func TestPartitionDirichletSkewOrdering(t *testing.T) {
	d := SynthDigits(rng.New(33), 2000)
	skewLow := labelSkew(d.PartitionDirichlet(rng.New(34), 8, 0.1), d.Classes)
	skewHigh := labelSkew(d.PartitionDirichlet(rng.New(34), 8, 100), d.Classes)
	iid := labelSkew(d.PartitionIID(rng.New(34), 8), d.Classes)
	if skewLow <= skewHigh {
		t.Fatalf("alpha=0.1 skew %v should exceed alpha=100 skew %v", skewLow, skewHigh)
	}
	if skewHigh > 2*iid+0.05 {
		t.Fatalf("alpha=100 skew %v should approach IID skew %v", skewHigh, iid)
	}
}

func TestPartitionDirichletBadArgsPanic(t *testing.T) {
	d := SynthDigits(rng.New(35), 10)
	for _, fn := range []func(){
		func() { d.PartitionDirichlet(rng.New(1), 0, 1) },
		func() { d.PartitionDirichlet(rng.New(1), 3, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestDirichletSumsToOne(t *testing.T) {
	src := rng.New(36)
	for _, alpha := range []float64{0.05, 0.5, 1, 5} {
		for trial := 0; trial < 20; trial++ {
			w := dirichlet(src, 7, alpha)
			sum := 0.0
			for _, v := range w {
				if v < 0 {
					t.Fatalf("negative weight %v", v)
				}
				sum += v
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Fatalf("weights sum %v", sum)
			}
		}
	}
}

func TestGammaDrawMoments(t *testing.T) {
	src := rng.New(37)
	for _, shape := range []float64{0.5, 1, 3} {
		draws := make([]float64, 20000)
		for i := range draws {
			draws[i] = gammaDraw(src, shape)
		}
		// Gamma(k,1): mean k, variance k.
		mean, variance := meanVar(draws)
		if math.Abs(mean-shape) > 0.1*shape+0.03 {
			t.Fatalf("shape=%v: mean %v", shape, mean)
		}
		if math.Abs(variance-shape) > 0.15*shape+0.05 {
			t.Fatalf("shape=%v: var %v", shape, variance)
		}
	}
}
