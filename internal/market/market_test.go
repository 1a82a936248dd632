package market

import (
	"math"
	"testing"

	"fifl/internal/incentive"
	"fifl/internal/rng"
)

func honestPop(src *rng.Source, n int) []Worker {
	return Population(src, n, 10000, 0, 0)
}

func TestPopulationComposition(t *testing.T) {
	src := rng.New(1)
	pop := Population(src, 20, 10000, 0.4, 0.3)
	attackers := 0
	for _, w := range pop {
		if w.Samples < 1 || w.Samples > 10000 {
			t.Fatalf("samples out of range: %d", w.Samples)
		}
		if w.Attacker {
			attackers++
			if w.Degree != 0.3 {
				t.Fatalf("attack degree = %v", w.Degree)
			}
		}
	}
	if attackers != 8 {
		t.Fatalf("attackers = %d, want 8 (40%% of 20)", attackers)
	}
}

func TestBaselineSchemeRewardsSumToBudget(t *testing.T) {
	src := rng.New(2)
	pop := honestPop(src, 10)
	for _, s := range Schemes()[1:] {
		r := s.Rewards(pop, 5)
		sum := 0.0
		for _, v := range r {
			sum += v
		}
		if math.Abs(sum-5) > 1e-9 {
			t.Fatalf("%s rewards sum %v, want 5", s.Name(), sum)
		}
	}
}

func TestFIFLRewardsSumToBudgetForEligible(t *testing.T) {
	src := rng.New(3)
	pop := honestPop(src, 20)
	f := FIFLScheme{}
	r := f.Rewards(pop, 1)
	sum := 0.0
	for i, v := range r {
		sum += v
		if float64(pop[i].Samples) <= f.kappa() && v != 0 {
			t.Fatalf("below-bar worker %d paid %v", i, v)
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("FIFL rewards sum %v", sum)
	}
}

func TestFIFLPunishesAttackers(t *testing.T) {
	pop := []Worker{
		{ID: 0, Samples: 8000},
		{ID: 1, Samples: 9000, Attacker: true, Degree: 0.3},
	}
	r := FIFLScheme{}.Rewards(pop, 1)
	if r[1] >= 0 {
		t.Fatalf("attacker reward %v, want negative", r[1])
	}
	if r[0] <= 0 {
		t.Fatalf("honest reward %v, want positive", r[0])
	}
}

func TestFIFLRevenueIgnoresAttackers(t *testing.T) {
	honest := []Worker{{Samples: 5000}}
	withAtk := []Worker{{Samples: 5000}, {Samples: 9000, Attacker: true, Degree: 0.385}}
	f := FIFLScheme{}
	if f.Revenue(honest) != f.Revenue(withAtk) {
		t.Fatal("detected attackers must not change FIFL revenue")
	}
}

func TestBaselineRevenueDamaged(t *testing.T) {
	b := BaselineScheme{Mech: incentive.Union{}}
	honest := []Worker{{Samples: 5000}}
	withAtk := []Worker{{Samples: 5000}, {Samples: 9000, Attacker: true, Degree: 0.4}}
	clean := b.Revenue(honest)
	hurt := b.Revenue(withAtk)
	if math.Abs(hurt-clean*0.6) > 1e-9 {
		t.Fatalf("baseline revenue %v, want %v", hurt, clean*0.6)
	}
	// Damage saturates at total loss.
	ruined := b.Revenue([]Worker{
		{Samples: 5000},
		{Samples: 1, Attacker: true, Degree: 0.7},
		{Samples: 1, Attacker: true, Degree: 0.7},
	})
	if ruined != 0 {
		t.Fatalf("over-attacked revenue %v, want 0", ruined)
	}
}

func TestAttractivenessRowsAreDistributions(t *testing.T) {
	src := rng.New(4)
	pop := Population(src, 20, 10000, 0.2, 0.3)
	a := Attractiveness(Schemes(), pop, 1)
	for i, row := range a {
		sum := 0.0
		for _, v := range row {
			if v < 0 {
				t.Fatalf("negative probability for worker %d: %v", i, row)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("worker %d attractiveness sums %v", i, sum)
		}
	}
}

func TestAttractivenessPunishedWorkerUniform(t *testing.T) {
	// An attacker punished by FIFL and rewarded nowhere... actually the
	// baselines still pay it; craft a worker every scheme rejects: not
	// possible with baselines, so test the all-negative path directly via
	// a pure-FIFL scheme list.
	pop := []Worker{{ID: 0, Samples: 100, Attacker: true, Degree: 0.5}}
	a := Attractiveness([]Scheme{FIFLScheme{}}, pop, 1)
	if a[0][0] != 1 {
		t.Fatalf("single-scheme fallback should be uniform, got %v", a[0])
	}
}

func TestAssignPartition(t *testing.T) {
	src := rng.New(5)
	pop := honestPop(src, 30)
	attract := Attractiveness(Schemes(), pop, 1)
	members := AssignGreedy(src, attract, pop, 1)
	total := 0
	for _, ms := range members {
		total += len(ms)
	}
	if total != 30 {
		t.Fatalf("assignment lost workers: %d/30", total)
	}
}

func TestAssignGreedyConcentrates(t *testing.T) {
	// With beta → large, every worker lands on its argmax federation.
	src := rng.New(6)
	pop := honestPop(src, 30)
	attract := Attractiveness(Schemes(), pop, 1)
	members := AssignGreedy(rng.New(7), attract, pop, 50)
	// Re-run: the assignment must be deterministic up to the RNG, and
	// each worker must be in its argmax scheme.
	idx := map[int]int{}
	for f, ms := range members {
		for _, w := range ms {
			idx[w.ID] = f
		}
	}
	for i, row := range attract {
		best, bestV := 0, row[0]
		for f, v := range row {
			if v > bestV {
				best, bestV = f, v
			}
		}
		// Ties and numerically-close seconds can flip; only check clear
		// winners.
		second := 0.0
		for f, v := range row {
			if f != best && v > second {
				second = v
			}
		}
		if bestV > 2*second && idx[pop[i].ID] != best {
			t.Fatalf("worker %d with clear argmax %d assigned to %d", i, best, idx[pop[i].ID])
		}
	}
}

func TestSchemesLineup(t *testing.T) {
	s := Schemes()
	if len(s) != 5 || s[0].Name() != "FIFL" {
		t.Fatalf("Schemes() = %d entries, first %q", len(s), s[0].Name())
	}
}

// TestFIFLMoreAttractiveToTopWorkers reproduces the §5.2 headline at unit
// scale: for workers above 9000 samples, FIFL's expected reward exceeds
// every baseline's.
func TestFIFLMoreAttractiveToTopWorkers(t *testing.T) {
	src := rng.New(8)
	schemes := Schemes()
	wins := 0
	trials := 0
	for rep := 0; rep < 30; rep++ {
		pop := honestPop(src.SplitN("rep", rep), 20)
		rewards := make([][]float64, len(schemes))
		for f, s := range schemes {
			rewards[f] = s.Rewards(pop, 1)
		}
		for i, w := range pop {
			if w.Samples <= 9000 {
				continue
			}
			trials++
			top := true
			for f := 1; f < len(schemes); f++ {
				if rewards[f][i] >= rewards[0][i] {
					top = false
				}
			}
			if top {
				wins++
			}
		}
	}
	if trials == 0 {
		t.Skip("no top workers drawn")
	}
	if frac := float64(wins) / float64(trials); frac < 0.6 {
		t.Fatalf("FIFL best-for-top-worker rate %v, want > 0.6", frac)
	}
}
