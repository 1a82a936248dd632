package transport

import (
	"fmt"

	"fifl/internal/dataset"
	"fifl/internal/fl"
	"fifl/internal/nn"
	"fifl/internal/rng"
)

// The recipe's fixed model and training shape: an MLP with one hidden
// layer of recipeHidden units, each worker taking one local step of batch
// 32 at learning rate 0.05 per round.
const recipeHidden = 16

var recipeLocal = fl.LocalConfig{K: 1, BatchSize: 32, LR: 0.05}

// Recipe is a deterministic federation specification every node can
// rebuild locally from the shared seed: the synthetic digits task, an MLP
// model, and an IID partition of the training data. Because the rng
// package derives child streams from (seed, label) pairs — not from
// consumption order — a worker process that rebuilds its slot from the
// same recipe produces bit-identical data, model and training trajectory
// to an in-process run, which is what makes the transport's loopback
// equivalence test (and multi-process demo) exact.
type Recipe struct {
	// Seed roots every stream; two nodes agree iff their seeds agree.
	Seed uint64
	// Workers is the federation size N.
	Workers int
	// SamplesPerWorker sizes each local dataset.
	SamplesPerWorker int
}

// validate reports whether the recipe describes a buildable federation.
func (r Recipe) validate() error {
	if r.Workers <= 0 {
		return fmt.Errorf("transport: Recipe.Workers must be positive, got %d", r.Workers)
	}
	if r.SamplesPerWorker <= 0 {
		return fmt.Errorf("transport: Recipe.SamplesPerWorker must be positive, got %d", r.SamplesPerWorker)
	}
	return nil
}

// Builder returns the shared model builder; every node must construct its
// replicas from it so shapes and initializations agree.
func (r Recipe) Builder() (nn.Builder, error) {
	if err := r.validate(); err != nil {
		return nil, err
	}
	return nn.NewMLP(r.Seed, 28*28, []int{recipeHidden}, 10), nil
}

// Worker rebuilds federation slot i (see Cohort).
func (r Recipe) Worker(i int) (fl.Worker, error) {
	ws, err := r.Cohort(i, 1)
	if err != nil {
		return nil, err
	}
	return ws[0], nil
}

// Cohort rebuilds the k federation slots first..first+k-1: the full
// training set is regenerated and partitioned exactly as every other node
// does it, once for the whole cohort, then each slot's part backs an
// honest worker with its own deterministic stream.
func (r Recipe) Cohort(first, k int) ([]fl.Worker, error) {
	build, err := r.Builder()
	if err != nil {
		return nil, err
	}
	if first < 0 || k < 1 || first+k > r.Workers {
		return nil, fmt.Errorf("transport: Recipe.Cohort(%d, %d) outside federation of %d", first, k, r.Workers)
	}
	src := rng.New(r.Seed)
	train := dataset.SynthDigits(src.Split("train"), r.Workers*r.SamplesPerWorker)
	parts := train.PartitionIID(src.Split("split"), r.Workers)
	out := make([]fl.Worker, k)
	for j := range out {
		out[j] = fl.NewHonestWorker(first+j, parts[first+j], build, recipeLocal, src)
	}
	return out, nil
}

// AllWorkers rebuilds every federation slot (the in-process reference
// configuration the loopback tests compare against).
func (r Recipe) AllWorkers() ([]fl.Worker, error) { return r.Cohort(0, r.Workers) }

// TestSet generates the shared held-out evaluation set.
func (r Recipe) TestSet(n int) (*dataset.Dataset, error) {
	if err := r.validate(); err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, fmt.Errorf("transport: Recipe.TestSet requires a positive size, got %d", n)
	}
	return dataset.SynthDigits(rng.New(r.Seed).Split("test"), n), nil
}
