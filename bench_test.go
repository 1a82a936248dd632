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
	"context"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"fifl/internal/experiments"
	"fifl/internal/transport/codec"
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

// benchFixedWorker returns a pre-computed gradient without training, so
// the round benchmarks measure the coordinator machinery (collection,
// detection, aggregation, contribution, reward, ledger) rather than SGD.
type benchFixedWorker struct {
	id   int
	grad Gradient
}

func (w *benchFixedWorker) ID() int         { return w.id }
func (w *benchFixedWorker) NumSamples() int { return 100 }
func (w *benchFixedWorker) LocalTrain(round int, global []float64) Gradient {
	return w.grad
}

// benchCoordinator assembles an n-worker federation with fixed-gradient
// workers over a small MLP, with a private metrics registry so parallel
// benchmark arms never share counters.
func benchCoordinator(b testing.TB, n int) *Coordinator {
	b.Helper()
	build := NewMLP(11, 24, []int{8}, 4)
	dim := build().NumParams()
	workers := make([]Worker, n)
	for i := range workers {
		g := make(Gradient, dim)
		for j := range g {
			g[j] = 0.01 * float64((i*31+j*7)%13-6)
		}
		workers[i] = &benchFixedWorker{id: i, grad: g}
	}
	engine, err := NewEngine(EngineConfig{Servers: 2, GlobalLR: 0.05}, build, workers,
		NewRNG(uint64(n)), WithMetrics(NewMetricsRegistry()))
	if err != nil {
		b.Fatal(err)
	}
	coord, err := NewCoordinator(CoordinatorConfig{
		Detection:      Detector{Threshold: 0.02},
		Reputation:     DefaultReputationConfig(),
		Contribution:   ContributionConfig{BaselineWorker: -1, Clamp: 10, SmoothBH: 0.2},
		RewardPerRound: 1,
		RecordToLedger: true,
	}, engine, []int{0, 1})
	if err != nil {
		b.Fatal(err)
	}
	return coord
}

// BenchmarkRunRound compares the staged pipeline (RunRoundContext) with
// the frozen pre-refactor monolith (RunRoundLegacyContext) at federation
// sizes 8, 64 and 256, and extends the pipeline arm up the n-sweep (1024,
// 4096) where the legacy monolith's quadratic slice-table rebuild is too
// slow to be worth timing. The two arms are bit-identical in output (see
// the differential test in internal/core); this benchmark quantifies the
// allocation and latency gap the arena-backed detection buys, and the
// extended sweep shows how a round scales with n. Tracked numbers come
// from the harness (bash bench/run.sh, see bench/README.md), not from here.
func BenchmarkRunRound(b *testing.B) {
	for _, n := range []int{8, 64, 256, 1024, 4096} {
		for _, arm := range []struct {
			name string
			run  func(*Coordinator, int) error
		}{
			{"pipeline", func(c *Coordinator, t int) error {
				_, err := c.RunRoundContext(context.Background(), t)
				return err
			}},
			{"legacy", func(c *Coordinator, t int) error {
				_, err := c.RunRoundLegacyContext(context.Background(), t)
				return err
			}},
		} {
			if arm.name == "legacy" && n > 256 {
				continue
			}
			b.Run(fmt.Sprintf("%s/n=%d", arm.name, n), func(b *testing.B) {
				coord := benchCoordinator(b, n)
				if err := arm.run(coord, 0); err != nil { // warm arena + ledger
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := arm.run(coord, i+1); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkSliceGradients measures the legacy per-server slice-table
// build that the pipeline's flat-benchmark detection no longer performs
// per round — the n Split allocations BenchmarkRunRound's gap comes from.
func BenchmarkSliceGradients(b *testing.B) {
	for _, n := range []int{8, 64, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			coord := benchCoordinator(b, n)
			engine := coord.Engine
			rr, err := engine.CollectGradientsContext(context.Background(), 0)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if tab := engine.SliceGradients(rr); len(tab) != n {
					b.Fatalf("slice table has %d rows", len(tab))
				}
			}
		})
	}
}

// benchShardedCoordinator assembles the hierarchical counterpart of
// benchCoordinator: the same n fixed-gradient workers, partitioned into
// `shards` contiguous cohorts under edge aggregators (loopback DirectLink,
// so every evidence frame still round-trips the wire codec), below a
// virtual-worker root coordinator. The returned stop function shuts the
// aggregators down and must be called before the benchmark returns.
func benchShardedCoordinator(b testing.TB, n, shards int) (*Coordinator, func()) {
	b.Helper()
	build := NewMLP(11, 24, []int{8}, 4)
	dim := build().NumParams()
	samples := make([]int, n)
	for i := range samples {
		samples[i] = 100
	}
	root, err := NewEngine(EngineConfig{Servers: 2, GlobalLR: 0.05}, build,
		ShardVirtualWorkers(samples), NewRNG(uint64(n)), WithMetrics(NewMetricsRegistry()))
	if err != nil {
		b.Fatal(err)
	}
	hub, err := NewShardHub(n, shards, root.Metrics())
	if err != nil {
		b.Fatal(err)
	}
	bridge, err := NewShardBridge(hub, root, 0)
	if err != nil {
		b.Fatal(err)
	}
	coord, err := NewCoordinator(CoordinatorConfig{
		Detection:      Detector{Threshold: 0.02},
		Reputation:     DefaultReputationConfig(),
		Contribution:   ContributionConfig{BaselineWorker: -1, Clamp: 10, SmoothBH: 0.2},
		RewardPerRound: 1,
		RecordToLedger: true,
	}, root, []int{0, 1}, WithCollector(bridge))
	if err != nil {
		b.Fatal(err)
	}
	bridge.BindServers(coord.Servers)

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, shards)
	lo := 0
	for s := 0; s < shards; s++ {
		size := n / shards
		if s < n%shards {
			size++
		}
		workers := make([]Worker, size)
		for i := range workers {
			id := lo + i
			g := make(Gradient, dim)
			for j := range g {
				g[j] = 0.01 * float64((id*31+j*7)%13-6)
			}
			workers[i] = &benchFixedWorker{id: id, grad: g}
		}
		eng, err := NewEngine(EngineConfig{Servers: 1, GlobalLR: 0.05}, build, workers,
			NewRNG(uint64(n*7+s)), WithMetrics(NewMetricsRegistry()))
		if err != nil {
			b.Fatal(err)
		}
		agg, err := NewShardAggregator(s, lo, eng, ShardDirectLink{Hub: hub})
		if err != nil {
			b.Fatal(err)
		}
		go func() {
			if err := agg.Hello(ctx); err != nil {
				errc <- err
				return
			}
			errc <- agg.Run(ctx)
		}()
		lo += size
	}
	if err := hub.WaitReady(ctx); err != nil {
		b.Fatal(err)
	}
	stop := func() {
		if err := bridge.Finish(); err != nil {
			b.Fatal(err)
		}
		for s := 0; s < shards; s++ {
			if err := <-errc; err != nil {
				b.Fatal(err)
			}
		}
		cancel()
		hub.Close()
	}
	return coord, stop
}

// BenchmarkShardRound measures one coordinator round flat vs sharded up
// the n-sweep to 4096 workers: the flat arm collects every gradient at the
// root, the sharded arm pre-aggregates in 16 edge cohorts and forwards one
// summarized upload each, so the root folds s cohort frames instead of n
// worker gradients. The tracked flat-vs-sharded numbers are the harness's
// deep-flat and deep-sharded workloads (bench/README.md).
func BenchmarkShardRound(b *testing.B) {
	const shards = 16
	for _, n := range []int{256, 1024, 4096} {
		b.Run(fmt.Sprintf("flat/n=%d", n), func(b *testing.B) {
			coord := benchCoordinator(b, n)
			if _, err := coord.RunRoundContext(context.Background(), 0); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := coord.RunRoundContext(context.Background(), i+1); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("sharded/n=%d/s=%d", n, shards), func(b *testing.B) {
			coord, stop := benchShardedCoordinator(b, n, shards)
			if _, err := coord.RunRoundContext(context.Background(), 0); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := coord.RunRoundContext(context.Background(), i+1); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			stop()
		})
	}
}

// benchGrad is a gradient-sized payload for the codec benchmarks (the
// dimension of the transport recipe's default MLP).
func benchGrad() []float64 {
	g := make([]float64, 28*28*16+16+16*10+10)
	for i := range g {
		g[i] = float64(i%97)/97 - 0.5
	}
	return g
}

// codecBenchModes are the wire layouts the codec benchmarks sweep.
var codecBenchModes = []codec.Compression{
	codec.CompressionNone,
	codec.CompressionF32,
	codec.CompressionTopK,
	codec.CompressionInt8,
	codec.CompressionInt16,
}

// BenchmarkCodecEncode measures upload-frame encoding throughput in every
// wire encoding.
func BenchmarkCodecEncode(b *testing.B) {
	u := codec.Upload{Round: 3, Worker: 1, Samples: 200, Grad: benchGrad()}
	for _, mode := range codecBenchModes {
		b.Run(mode.String(), func(b *testing.B) {
			frame, err := codec.EncodeUpload(u, mode)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(frame)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := codec.EncodeUpload(u, mode); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCodecDecode measures upload-frame decoding (CRC check, length
// validation, finiteness screening) in every wire encoding.
func BenchmarkCodecDecode(b *testing.B) {
	u := codec.Upload{Round: 3, Worker: 1, Samples: 200, Grad: benchGrad()}
	for _, mode := range codecBenchModes {
		b.Run(mode.String(), func(b *testing.B) {
			frame, err := codec.EncodeUpload(u, mode)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(frame)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := codec.DecodeUpload(frame); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLoopbackRound measures one full FIFL round over real HTTP
// (loopback): model broadcast, local training on every worker, upload,
// detection, reputation, reward and ledger append. It reports the wire
// bytes a round moves.
func BenchmarkLoopbackRound(b *testing.B) {
	const nWorkers = 2
	recipe := FederationRecipe{Seed: 5, Workers: nWorkers, SamplesPerWorker: 64}
	build, err := recipe.Builder()
	if err != nil {
		b.Fatal(err)
	}
	hub, err := NewTransportHub(nWorkers)
	if err != nil {
		b.Fatal(err)
	}
	engine, err := NewEngine(EngineConfig{Servers: 1, GlobalLR: 0.05}, build, hub.Workers(),
		NewRNG(recipe.Seed).Split("bench"), WithWorkerTimeout(30*time.Second))
	if err != nil {
		b.Fatal(err)
	}
	coord, err := NewCoordinator(CoordinatorConfig{
		Detection:      Detector{Threshold: 0.02},
		Reputation:     DefaultReputationConfig(),
		Contribution:   ContributionConfig{BaselineWorker: -1},
		RewardPerRound: 1,
		RecordToLedger: true,
	}, engine, []int{0})
	if err != nil {
		b.Fatal(err)
	}
	srv, err := ServeCoordinator(coord, hub)
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < nWorkers; i++ {
		w, err := recipe.Worker(i)
		if err != nil {
			b.Fatal(err)
		}
		c, err := DialWorker(ctx, WorkerClientConfig{BaseURL: ts.URL, Worker: w, PollWait: time.Second})
		if err != nil {
			b.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = c.Run(ctx)
		}()
	}
	if err := srv.WaitReady(ctx); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := srv.RunRound(ctx, i); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	up, down := srv.WorkerTraffic()
	var total int64
	for i := 0; i < nWorkers; i++ {
		total += up[i] + down[i]
	}
	b.ReportMetric(float64(total)/float64(b.N), "bytes/round")
	srv.MarkDone()
	wg.Wait()
}
