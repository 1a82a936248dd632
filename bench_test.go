// Package fifl's benchmark harness regenerates every figure of the paper's
// evaluation section (§5) through testing.B — one benchmark per figure, as
// indexed in DESIGN.md. Each iteration runs the figure's full experiment at
// a bench-sized scale (same code path as `fifl-experiments -scale quick`,
// smaller budgets), so -benchtime=1x reproduces every result once:
//
//	go test -bench=. -benchmem -benchtime=1x
//
// For paper-scale numbers run the CLI instead:
//
//	go run ./cmd/fifl-experiments -all -scale paper
package fifl

import (
	"testing"

	"fifl/internal/experiments"
)

// benchScale is the miniature configuration the benchmarks run at: the
// shapes survive, the budgets shrink.
func benchScale() experiments.Scale {
	sc := experiments.QuickScale()
	sc.MarketRepeats = 10
	sc.TrainRounds = 10
	sc.TrainWorkers = 8
	sc.SamplesPerWorker = 100
	sc.TestSamples = 100
	sc.EvalEvery = 5
	return sc
}

// runExperiment executes one registered experiment b.N times.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	sc := benchScale()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.Seed = uint64(i + 1)
		results, err := experiments.Run(id, sc)
		if err != nil {
			b.Fatal(err)
		}
		if len(results) == 0 {
			b.Fatalf("%s produced no results", id)
		}
	}
}

// BenchmarkFig4RewardDistribution regenerates Figure 4(a) and 4(b): reward
// distribution and attractiveness per worker quality band across the five
// incentive mechanisms.
func BenchmarkFig4RewardDistribution(b *testing.B) {
	b.Run("fig4a", func(b *testing.B) { runExperiment(b, "fig4a") })
	b.Run("fig4b", func(b *testing.B) { runExperiment(b, "fig4b") })
}

// BenchmarkFig5MarketAttraction regenerates Figure 5(a) and 5(b): attracted
// data share and relative system revenue in reliable federations.
func BenchmarkFig5MarketAttraction(b *testing.B) {
	b.Run("fig5a", func(b *testing.B) { runExperiment(b, "fig5a") })
	b.Run("fig5b", func(b *testing.B) { runExperiment(b, "fig5b") })
}

// BenchmarkFig6RevenueUnderAttack regenerates Figure 6: relative system
// revenue as the attack degree sweeps to the real-world worst case 0.385.
func BenchmarkFig6RevenueUnderAttack(b *testing.B) { runExperiment(b, "fig6") }

// BenchmarkFig7SignFlipDamage regenerates Figure 7(a) and 7(b): global
// model accuracy under sign-flipping intensities and attacker types on the
// MNIST stand-in with LeNet.
func BenchmarkFig7SignFlipDamage(b *testing.B) {
	b.Run("fig7a", func(b *testing.B) { runExperiment(b, "fig7a") })
	b.Run("fig7b", func(b *testing.B) { runExperiment(b, "fig7b") })
}

// BenchmarkFig8ResNetDamage regenerates Figure 8: accuracy and test loss
// under attacker types on the CIFAR-10 stand-in with the mini-ResNet.
func BenchmarkFig8ResNetDamage(b *testing.B) { runExperiment(b, "fig8") }

// BenchmarkFig9DetectionThreshold regenerates Figure 9(a) and 9(b): the
// detection accuracy vs attack intensity for an S_y grid, and the TP/TN
// trade-off across thresholds.
func BenchmarkFig9DetectionThreshold(b *testing.B) {
	b.Run("fig9a", func(b *testing.B) { runExperiment(b, "fig9a") })
	b.Run("fig9b", func(b *testing.B) { runExperiment(b, "fig9b") })
}

// BenchmarkFig10DetectionDefense regenerates Figure 10: training with vs
// without the attack detection module under high-intensity attack.
func BenchmarkFig10DetectionDefense(b *testing.B) { runExperiment(b, "fig10") }

// BenchmarkFig11Reputation regenerates Figure 11: reputation tracking of
// probabilistic attackers with p_a ∈ {0.2, 0.4, 0.6, 0.8}.
func BenchmarkFig11Reputation(b *testing.B) { runExperiment(b, "fig11") }

// BenchmarkFig12Contribution regenerates Figure 12: per-iteration
// contributions across data-poison fractions with b_h at p_d = 0.2.
func BenchmarkFig12Contribution(b *testing.B) { runExperiment(b, "fig12") }

// BenchmarkFig13CumulativeRewards regenerates Figure 13: cumulative rewards
// and punishments across data qualities.
func BenchmarkFig13CumulativeRewards(b *testing.B) { runExperiment(b, "fig13") }

// BenchmarkFig14Punishments regenerates Figure 14: cumulative punishments
// for sign-flipping attackers across intensities.
func BenchmarkFig14Punishments(b *testing.B) { runExperiment(b, "fig14") }

// BenchmarkAblationServers runs the architecture ablation (§3.2):
// centralized M=1, polycentric, decentralized M=N.
func BenchmarkAblationServers(b *testing.B) { runExperiment(b, "abl-servers") }

// BenchmarkAblationFreeRider runs the free-rider screening ablation.
func BenchmarkAblationFreeRider(b *testing.B) { runExperiment(b, "abl-freerider") }

// BenchmarkAblationGamma runs the reputation time-decay ablation.
func BenchmarkAblationGamma(b *testing.B) { runExperiment(b, "abl-gamma") }

// BenchmarkAblationThreshold runs the end-to-end detection-threshold
// ablation.
func BenchmarkAblationThreshold(b *testing.B) { runExperiment(b, "abl-threshold") }

// BenchmarkAblationNonIID runs the data-heterogeneity (Dirichlet alpha)
// detection ablation.
func BenchmarkAblationNonIID(b *testing.B) { runExperiment(b, "abl-noniid") }

// BenchmarkAblationDefense compares FIFL's filter with classical
// Byzantine-robust aggregation (Krum, median, trimmed mean, norm clip).
func BenchmarkAblationDefense(b *testing.B) { runExperiment(b, "abl-defense") }

// BenchmarkAblationContribution validates §4.3 empirically: gradient-
// distance contribution vs the expensive leave-one-out loss contribution.
func BenchmarkAblationContribution(b *testing.B) { runExperiment(b, "abl-contribution") }

// BenchmarkAblationComm quantifies §3.2's bottleneck-sharing claim and
// validates the channel-based wire protocol against direct aggregation.
func BenchmarkAblationComm(b *testing.B) { runExperiment(b, "abl-comm") }

// BenchmarkAblationCollusion characterizes the non-colluding scope the
// paper states in §4.1: a little-is-enough cabal vs an overt sign-flipper.
func BenchmarkAblationCollusion(b *testing.B) { runExperiment(b, "abl-collusion") }

// BenchmarkAblationDynamics runs the multi-iteration §5.2 market with
// workers re-choosing federations under attack.
func BenchmarkAblationDynamics(b *testing.B) { runExperiment(b, "abl-dynamics") }
