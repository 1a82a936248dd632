// Quickstart: run a small FIFL federation end to end through the public
// API — four honest workers and one sign-flipping attacker training a
// multi-layer perceptron on the synthetic digits task. Each round FIFL
// screens the uploads, updates reputations, assesses contributions and
// distributes rewards; the attacker is caught, excluded from aggregation
// and punished, while training converges on the honest gradients.
package main

import (
	"context"
	"fmt"
	"log"

	"fifl"
	"fifl/internal/attack"
)

func main() {
	const (
		nWorkers = 5
		nServers = 2
		rounds   = 25
		seed     = 42
	)
	src := fifl.NewRNG(seed)
	build := fifl.NewMLP(seed, 28*28, []int{64}, 10)
	local := fifl.LocalConfig{K: 1, BatchSize: 240, LR: 0.05}

	// One shared pool of synthetic digits, split IID across the workers.
	train := fifl.SynthDigits(src.Split("train"), nWorkers*300)
	test := fifl.SynthDigits(src.Split("test"), 300)
	parts := train.PartitionIID(src.Split("split"), nWorkers)

	workers := make([]fifl.Worker, nWorkers)
	for i := 0; i < nWorkers-1; i++ {
		workers[i] = fifl.NewHonestWorker(i, parts[i], build, local, src)
	}
	// The last worker flips the sign of its gradients with intensity 4.
	workers[nWorkers-1] = attack.NewSignFlipWorker(nWorkers-1, parts[nWorkers-1], build, local, src, 4)

	engine, err := fifl.NewEngine(fifl.EngineConfig{Servers: nServers, GlobalLR: 0.05}, build, workers, src)
	if err != nil {
		log.Fatal(err)
	}
	coord, err := fifl.NewCoordinator(fifl.CoordinatorConfig{
		Detection:  fifl.Detector{Threshold: 0.02},
		Reputation: fifl.DefaultReputationConfig(),
		// Zero-gradient bar with clamped, smoothed ratios (see the
		// ContributionConfig docs for why the bounds matter).
		Contribution:   fifl.ContributionConfig{BaselineWorker: -1, Clamp: 10, SmoothBH: 0.2},
		RewardPerRound: 1,
		RecordToLedger: true,
	}, engine, []int{0, 1})
	if err != nil {
		log.Fatal(err)
	}

	for t := 0; t < rounds; t++ {
		report, err := coord.RunRoundContext(context.Background(), t)
		if err != nil {
			log.Fatal(err)
		}
		if t%5 == 0 || t == rounds-1 {
			acc, loss := engine.Evaluate(test, 128)
			fmt.Printf("round %2d: accepted=%v acc=%.3f loss=%.3f\n",
				t, report.Detection.Accept, acc, loss)
		}
	}

	fmt.Println("\nworker summary (worker 4 is the attacker; honest workers hover")
	fmt.Println("near zero while the attacker's fines run ~50x larger):")
	cum := coord.CumulativeRewards()
	for i := 0; i < nWorkers; i++ {
		fmt.Printf("  worker %d: reputation=%.3f cumulative reward=%+.3f\n",
			i, coord.Rep.Reputation(i), cum[i])
	}
	if err := coord.Ledger.Verify(); err != nil {
		log.Fatalf("ledger verification failed: %v", err)
	}
	fmt.Printf("\naudit ledger intact: %d sealed blocks\n", coord.Ledger.Len())
}
