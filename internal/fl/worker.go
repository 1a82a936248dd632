// Package fl implements the federated-learning runtime FIFL plugs into:
// worker-side local training, the polycentric gradient exchange of the
// paper's §3.2, weighted aggregation (Eq. 2), and global model updates
// (Eq. 3). The runtime itself is incentive-agnostic — FIFL (internal/core)
// and the undefended baselines both drive it, the former injecting a
// detection filter before aggregation.
package fl

import (
	"fmt"

	"fifl/internal/dataset"
	"fifl/internal/gradvec"
	"fifl/internal/nn"
	"fifl/internal/rng"
	"fifl/internal/tensor"
)

// Worker is one federation participant. Implementations include the honest
// worker below and the Byzantine workers in internal/attack.
type Worker interface {
	// ID returns the worker's stable index in the federation.
	ID() int
	// NumSamples returns the size of the worker's local dataset, used for
	// the n_i aggregation weights. Workers may lie about this; the
	// sample-count-based baseline incentives trust it, FIFL does not.
	NumSamples() int
	// LocalTrain downloads the global parameters, runs K local iterations
	// and returns the accumulated local gradient G_i.
	LocalTrain(round int, global []float64) gradvec.Vector
}

// ResumableWorker is implemented by workers whose only cross-round state
// is the position of a deterministic random stream (HonestWorker and the
// attackers wrapping it). A checkpoint records RNGDraws for each such
// worker; restore rebuilds the worker from the shared seed and
// fast-forwards it with DiscardRNG, after which it continues the exact
// minibatch sequence of the interrupted run. Workers without this
// interface (e.g. remote transport stubs, whose real state lives in the
// worker process) are recorded as position zero and resume through their
// own process's determinism instead.
type ResumableWorker interface {
	Worker
	// RNGDraws reports the worker's raw random-stream position.
	RNGDraws() uint64
	// DiscardRNG fast-forwards the stream to a recorded position; it must
	// refuse to rewind.
	DiscardRNG(n uint64) error
}

// LocalConfig controls worker-side training.
type LocalConfig struct {
	K         int     // local iterations per round
	BatchSize int     // minibatch size
	LR        float64 // local learning rate
}

// HonestWorker trains faithfully on its local data: it sets its replica to
// the global parameters, runs K minibatch SGD steps, and uploads the sum of
// the per-step gradients (the paper's G_i = Σ_k ∂L_i/∂θ_{i,k}).
type HonestWorker struct {
	id    int
	Data  *dataset.Dataset
	Model *nn.Sequential
	Cfg   LocalConfig
	src   *rng.Source

	// The local step's kept buffers: the minibatch and its labels, and
	// the loss gradient w.r.t. the logits.
	x       *tensor.Tensor
	labels  []int
	dLogits *tensor.Tensor
}

// NewHonestWorker builds a worker with its own model replica and RNG
// stream.
func NewHonestWorker(id int, data *dataset.Dataset, build nn.Builder, cfg LocalConfig, src *rng.Source) *HonestWorker {
	return &HonestWorker{
		id:    id,
		Data:  data,
		Model: build(),
		Cfg:   cfg,
		src:   src.SplitN("worker", id),
	}
}

// ID returns the worker index.
func (w *HonestWorker) ID() int { return w.id }

// NumSamples returns the true local dataset size.
func (w *HonestWorker) NumSamples() int { return w.Data.Len() }

// RNGDraws reports the worker's raw random-stream position (the minibatch
// sampler is its only draw site).
func (w *HonestWorker) RNGDraws() uint64 { return w.src.Draws() }

// DiscardRNG fast-forwards the worker's stream to a checkpointed position.
func (w *HonestWorker) DiscardRNG(n uint64) error {
	if cur := w.src.Draws(); cur > n {
		return fmt.Errorf("fl: worker %d RNG already at %d draws, cannot rewind to %d", w.id, cur, n)
	}
	w.src.Discard(n - w.src.Draws())
	return nil
}

// LocalTrain runs K local SGD steps from the global parameters and returns
// the accumulated gradient, a fresh vector the caller owns. Each step adds
// the model's gradients straight into it (Sequential.AddGradsTo) and moves
// the replica by θ ← θ − LR·g (Sequential.Step), with no flat copy.
func (w *HonestWorker) LocalTrain(round int, global []float64) gradvec.Vector {
	w.Model.SetParamsVector(global)
	acc := gradvec.Zeros(len(global))
	for k := 0; k < w.Cfg.K; k++ {
		w.x, w.labels = w.Data.BatchInto(w.src, w.Cfg.BatchSize, w.x, w.labels)
		w.Model.ZeroGrads()
		logits := w.Model.Forward(w.x, true)
		_, w.dLogits = nn.SoftmaxCrossEntropyInto(w.dLogits, logits, w.labels)
		w.Model.Backward(w.dLogits)
		w.Model.AddGradsTo(acc)
		// Advance the local trajectory so step k+1 differentiates at
		// θ_{i,k}, matching the paper's definition of G_i.
		w.Model.Step(w.Cfg.LR)
	}
	return acc
}
