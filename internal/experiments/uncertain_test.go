package experiments

import (
	"testing"

	"fifl/internal/rng"
)

// TestUncertainEventsFeedSLM runs a federation with transmission loss and
// checks the paper's uncertain-event accounting end to end: dropped uploads
// appear as SLM uncertainty mass Su, leave the decayed reputation
// untouched, and never count as punishments.
func TestUncertainEventsFeedSLM(t *testing.T) {
	sc := tinyScale()
	sc.TrainRounds = 40
	sc.DropRate = 0.3
	kinds := make([]WorkerKind, sc.TrainWorkers)
	for i := range kinds {
		kinds[i] = Honest()
	}
	f := BuildFederation(sc, TaskDigitsMLP, kinds, rng.New(9).Split("drops"))
	coord := DefaultCoordinator(f, -1, false) // accept-all detection

	uncertainSeen := 0
	for round := 0; round < sc.TrainRounds; round++ {
		rep := mustRound(coord, round)
		for i := range rep.Detection.Uncertain {
			if rep.Detection.Uncertain[i] {
				uncertainSeen++
			}
		}
	}
	if uncertainSeen == 0 {
		t.Fatal("DropRate 0.3 produced no uncertain events in 40 rounds")
	}
	// Every worker should carry uncertainty mass ≈ DropRate.
	pt, pn, pu := coord.Rep.PeriodCounts()
	for i := 0; i < sc.TrainWorkers; i++ {
		su := float64(pu[i]) / float64(pt[i]+pn[i]+pu[i])
		if su < 0.1 || su > 0.55 {
			t.Fatalf("worker %d SLM uncertainty %v, want ≈0.3", i, su)
		}
	}
}

// TestDropsDoNotDestroyTraining verifies aggregation renormalizes over the
// arrivals: a federation with 30% loss still trains.
func TestDropsDoNotDestroyTraining(t *testing.T) {
	sc := tinyScale()
	sc.TrainRounds = 25
	sc.DropRate = 0.3
	sc.SamplesPerWorker = 120
	kinds := make([]WorkerKind, sc.TrainWorkers)
	for i := range kinds {
		kinds[i] = Honest()
	}
	f := BuildFederation(sc, TaskDigitsMLP, kinds, rng.New(10).Split("drops2"))
	_, before := f.Engine.Evaluate(f.Test, 64)
	for round := 0; round < sc.TrainRounds; round++ {
		f.Engine.Step(round)
	}
	_, after := f.Engine.Evaluate(f.Test, 64)
	if after >= before {
		t.Fatalf("training with drops failed to reduce loss: %v -> %v", before, after)
	}
}
