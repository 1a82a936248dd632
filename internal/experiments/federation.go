package experiments

import (
	"context"
	"fmt"

	"fifl/internal/attack"
	"fifl/internal/core"
	"fifl/internal/dataset"
	"fifl/internal/fl"
	"fifl/internal/gradvec"
	"fifl/internal/nn"
	"fifl/internal/rng"
)

// WorkerKind describes one worker slot in a training federation.
type WorkerKind struct {
	// Kind is "honest", "signflip", "poison", or "freerider".
	Kind string
	// PS is the sign-flip intensity for "signflip" workers, or the attack
	// probability multiplier for probabilistic variants.
	PS float64
	// PD is the mislabelled-data fraction for "poison" workers.
	PD float64
	// PA, if positive, wraps the worker so it only attacks with
	// probability PA per round (Figure 11's attacker model). Only
	// meaningful for "signflip".
	PA float64
}

// Honest returns an honest worker slot.
func Honest() WorkerKind { return WorkerKind{Kind: "honest"} }

// SignFlip returns a sign-flipping attacker slot with intensity ps.
func SignFlip(ps float64) WorkerKind { return WorkerKind{Kind: "signflip", PS: ps} }

// Poison returns a data-poison attacker slot with mislabel fraction pd.
func Poison(pd float64) WorkerKind { return WorkerKind{Kind: "poison", PD: pd} }

// Federation bundles a built training federation.
type Federation struct {
	Engine *fl.Engine
	Test   *dataset.Dataset
	Kinds  []WorkerKind
}

// IsAttacker reports the ground-truth attacker flags (honest and pure
// probabilistic-honest slots are not attackers).
func (f *Federation) IsAttacker() []bool {
	out := make([]bool, len(f.Kinds))
	for i, k := range f.Kinds {
		out[i] = k.Kind != "honest"
	}
	return out
}

// DatasetKind selects which synthetic task a federation trains.
type DatasetKind int

// Supported tasks.
const (
	// TaskDigits is the MNIST stand-in trained with LeNet.
	TaskDigits DatasetKind = iota
	// TaskImages is the CIFAR-10 stand-in trained with the mini-ResNet.
	TaskImages
	// TaskDigitsMLP trains the MNIST stand-in with a small MLP; it is two
	// orders of magnitude cheaper and is used by the module-level
	// experiments (Figures 11–14) where the architecture is irrelevant.
	TaskDigitsMLP
)

// BuilderFor returns the model builder a federation over the selected
// task trains. The builder is seeded from src's "model" split without
// consuming src, so any caller holding the federation's root source — a
// sharded run assembling cohort engines, a resume path rebuilding the
// model — derives exactly the builder BuildFederation used.
func BuilderFor(sc Scale, task DatasetKind, src *rng.Source) nn.Builder {
	switch task {
	case TaskDigits:
		return nn.NewLeNet(src.Split("model").Seed())
	case TaskImages:
		if sc.TinyImageModel {
			return nn.NewTinyResNet(src.Split("model").Seed())
		}
		return nn.NewMiniResNet(src.Split("model").Seed())
	case TaskDigitsMLP:
		return nn.NewMLP(src.Split("model").Seed(), 28*28, []int{64}, 10)
	default:
		panic("experiments: unknown dataset kind")
	}
}

// BuildFederation constructs a federation with the given worker slots over
// the selected task. The training data is generated once and partitioned
// IID across workers, matching the paper's §5.3 setup. Extra fl options
// (quorum, straggler cutoff, retries, fault injectors) pass through to the
// engine.
func BuildFederation(sc Scale, task DatasetKind, kinds []WorkerKind, src *rng.Source, opts ...fl.Option) *Federation {
	n := len(kinds)
	train, test, parts := elasticParts(sc, task, n, src)

	workers := make([]fl.Worker, n)
	build := BuilderFor(sc, task, src)
	wsrc := src.Split("workers")
	for i, k := range kinds {
		workers[i] = buildWorker(sc, k, i, parts[i], build, wsrc)
	}
	m := sc.Servers
	if m > n {
		m = n
	}
	engine, err := fl.NewEngine(fl.Config{Servers: m, GlobalLR: sc.GlobalLR, DropRate: sc.DropRate}, build, workers, src, opts...)
	if err != nil {
		panic("experiments: " + err.Error())
	}
	if sc.WarmupSteps > 0 {
		warmup(engine, train, sc, src.Split("warmup"))
	}
	return &Federation{Engine: engine, Test: test, Kinds: kinds}
}

// elasticParts generates the training and test sets and the per-worker
// partition for a federation of n seated workers plus the
// sc.ExtraJoinSlots reserved joiner partitions. Every stream derives from
// (seed, label) pairs, so repeated calls with the same recipe — at build
// time, at a mid-run admission, or during a resume — produce identical
// data.
func elasticParts(sc Scale, task DatasetKind, n int, src *rng.Source) (train, test *dataset.Dataset, parts []*dataset.Dataset) {
	total := n + sc.ExtraJoinSlots
	switch task {
	case TaskDigits, TaskDigitsMLP:
		train = dataset.SynthDigits(src.Split("train"), total*sc.SamplesPerWorker)
		test = dataset.SynthDigits(src.Split("test"), sc.TestSamples)
	case TaskImages:
		train = dataset.SynthImages(src.Split("train"), total*sc.SamplesPerWorker)
		test = dataset.SynthImages(src.Split("test"), sc.TestSamples)
	default:
		panic("experiments: unknown dataset kind")
	}
	if sc.NonIIDAlpha > 0 {
		parts = train.PartitionDirichlet(src.Split("partition"), total, sc.NonIIDAlpha)
	} else {
		parts = train.PartitionIID(src.Split("partition"), total)
	}
	return train, test, parts
}

// buildWorker constructs one worker slot. wsrc is the federation's shared
// "workers" split; the worker implementations derive their private
// streams from it by ID, so construction order never matters.
func buildWorker(sc Scale, k WorkerKind, id int, part *dataset.Dataset, build nn.Builder, wsrc *rng.Source) fl.Worker {
	lc := fl.LocalConfig{K: sc.LocalIters, BatchSize: sc.BatchSize, LR: sc.LocalLR}
	var w fl.Worker
	switch k.Kind {
	case "honest":
		w = fl.NewHonestWorker(id, part, build, lc, wsrc)
	case "signflip":
		atk := attack.NewSignFlipWorker(id, part, build, lc, wsrc, k.PS)
		if k.PA > 0 {
			honest := fl.NewHonestWorker(id, part, build, lc, wsrc.Split("honest-arm"))
			w = attack.NewProbabilistic(honest, atk, k.PA, wsrc)
		} else {
			w = atk
		}
	case "poison":
		w = attack.NewDataPoisonWorker(id, part, build, lc, wsrc, k.PD)
	case "freerider":
		w = attack.NewFreeRider(id, sc.SamplesPerWorker, 0.01, wsrc)
	default:
		panic("experiments: unknown worker kind " + k.Kind)
	}
	return WrapCompressed(w, sc.Compression)
}

// ElasticWorker rebuilds the worker for stable ID id of a federation
// built from the same (sc, task, kinds, seed) recipe — including the
// ExtraJoinSlots partitions reserved past the initial cohort. IDs within
// the initial cohort reproduce their BuildFederation slot exactly;
// IDs beyond it are honest joiners over their reserved partition. src
// must be a fresh source with the same root as BuildFederation's (streams
// are (seed, label)-derived, so neither call consumes the other's).
func ElasticWorker(sc Scale, task DatasetKind, kinds []WorkerKind, id int, src *rng.Source) (fl.Worker, error) {
	total := len(kinds) + sc.ExtraJoinSlots
	if id < 0 || id >= total {
		return nil, fmt.Errorf("experiments: ElasticWorker(%d) outside the %d reserved partitions", id, total)
	}
	_, _, parts := elasticParts(sc, task, len(kinds), src)
	build := BuilderFor(sc, task, src)
	wsrc := src.Split("workers")
	k := Honest()
	if id < len(kinds) {
		k = kinds[id]
	}
	return buildWorker(sc, k, id, parts[id], build, wsrc), nil
}

// warmup centrally pre-trains the engine's global model on the pooled
// training data so federated rounds start from a partially learned model.
func warmup(engine *fl.Engine, train *dataset.Dataset, sc Scale, src *rng.Source) {
	model := engine.GlobalModel()
	model.SetParamsVector(engine.Params())
	batch := sc.BatchSize
	if batch < 64 {
		batch = 64
	}
	if batch > 128 {
		batch = 128
	}
	for it := 0; it < sc.WarmupSteps; it++ {
		x, y := train.Batch(src, batch)
		model.ZeroGrads()
		logits := model.Forward(x, true)
		_, d := nn.SoftmaxCrossEntropy(logits, y)
		model.Backward(d)
		model.Step(sc.LocalLR * 2)
	}
	if err := engine.SetParams(model.ParamsVector()); err != nil {
		panic("experiments: " + err.Error())
	}
}

// mustRound runs one coordinator round and panics on runtime failure; the
// experiment harnesses run with background contexts and registered
// executors, so an error here is a programming mistake, not a recoverable
// condition worth threading through every figure generator.
func mustRound(c *core.Coordinator, t int) *core.RoundReport {
	rep, err := c.RunRoundContext(context.Background(), t)
	if err != nil {
		panic("experiments: " + err.Error())
	}
	return rep
}

// mustCollect runs one collection through the context-first runtime with a
// background context; like mustRound, an error here is a programming
// mistake.
func mustCollect(e *fl.Engine, t int) *fl.RoundResult {
	rr, err := e.CollectGradientsContext(context.Background(), t)
	if err != nil {
		panic("experiments: " + err.Error())
	}
	return rr
}

// mustAggregate aggregates one collected round, panicking on the only
// error source (an accept mask that does not match the round).
func mustAggregate(e *fl.Engine, rr *fl.RoundResult, accept []bool) gradvec.Vector {
	g, err := e.AggregateRound(rr, accept)
	if err != nil {
		panic("experiments: " + err.Error())
	}
	return g
}

// DefaultCoordinatorConfig is the standard FIFL configuration used across
// the experiment harnesses: cosine detection at the given threshold,
// default reputation parameters, zero-gradient contribution baseline and a
// unit reward budget per round. Resuming a run from a checkpoint must
// rebuild the coordinator under the exact configuration that produced it,
// so this lives separately from DefaultCoordinator.
func DefaultCoordinatorConfig(sy float64, ledger bool) core.CoordinatorConfig {
	return core.CoordinatorConfig{
		Detection:  core.Detector{Threshold: sy},
		Reputation: core.DefaultReputationConfig(),
		// Clamped, denominator-smoothed contributions keep any single
		// round's reward bounded (see ContributionConfig docs).
		Contribution:   core.ContributionConfig{BaselineWorker: -1, Clamp: 10, SmoothBH: 0.2},
		RewardPerRound: 1,
		RecordToLedger: ledger,
	}
}

// DefaultCoordinator wraps a federation in a FIFL coordinator with the
// standard configuration (DefaultCoordinatorConfig). The initial server
// cluster is the first M honest slots when known, else the first M workers
// — mirroring the paper's accuracy-based initial election, which lands on
// honest devices. Extra options (e.g. core.WithMechanism for a §5
// baseline) pass through to the coordinator.
func DefaultCoordinator(f *Federation, sy float64, ledger bool, opts ...core.CoordinatorOption) *core.Coordinator {
	cfg := DefaultCoordinatorConfig(sy, ledger)
	m := f.Engine.NumServers()
	servers := make([]int, 0, m)
	used := make(map[int]bool)
	for i, k := range f.Kinds {
		if k.Kind == "honest" && len(servers) < m {
			servers = append(servers, i)
			used[i] = true
		}
	}
	for i := 0; len(servers) < m && i < len(f.Kinds); i++ {
		if !used[i] {
			servers = append(servers, i)
			used[i] = true
		}
	}
	coord, err := core.NewCoordinator(cfg, f.Engine, servers, opts...)
	if err != nil {
		panic(err)
	}
	return coord
}
