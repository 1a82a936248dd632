package fl

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"fifl/internal/dataset"
	"fifl/internal/nn"
	"fifl/internal/rng"
)

// localTrainCase is one model the worker's local step is pinned on: the
// transport recipe's 784-16-10 MLP, LeNet and TinyResNet, each on its
// synthetic task at batch 32.
type localTrainCase struct {
	name   string
	build  nn.Builder
	data   func(src *rng.Source, n int) *dataset.Dataset
	golden string // SHA-256 of five rounds of uploads; see TestLocalTrainGolden
}

var localTrainCases = []localTrainCase{
	{"wire-mlp", nn.NewMLP(21, 28*28, []int{16}, 10), dataset.SynthDigits,
		"dd13fb8cc6f65b2691f25f47191753bccbaab95e4e75571e339523371761d622"},
	{"lenet", nn.NewLeNet(22), dataset.SynthDigits,
		"acd0ba491babc714ca8f687f5dfb44437fd5c82c5c984b4b1873cace230cc385"},
	{"tiny-resnet", nn.NewTinyResNet(23), dataset.SynthImages,
		"ce20393ebf2f557af9961145d691c46ec66e79dfd7ce74374fdddd4322a70353"},
}

// newCaseWorker builds the case's honest worker: 64 local examples, two
// local steps of batch 32 a round.
func newCaseWorker(c localTrainCase) (*HonestWorker, []float64) {
	src := rng.New(31)
	w := NewHonestWorker(0, c.data(src.Split("data"), 64), c.build,
		LocalConfig{K: 2, BatchSize: 32, LR: 0.05}, src)
	return w, w.Model.ParamsVector()
}

// TestLocalTrainGolden pins the bits of the worker's local step: five
// rounds of LocalTrain, each round's global moved by the previous upload,
// hashed over every upload's Float64bits. The constants were computed
// before the step kept its buffers and stopped computing the input
// gradient, so a change of arithmetic order anywhere in the forward or
// backward pass shows here. tier1.sh runs it at one, two and three cores.
func TestLocalTrainGolden(t *testing.T) {
	for _, c := range localTrainCases {
		t.Run(c.name, func(t *testing.T) {
			w, global := newCaseWorker(c)
			h := sha256.New()
			var b [8]byte
			for round := 0; round < 5; round++ {
				g := w.LocalTrain(round, global)
				for i, v := range g {
					binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
					h.Write(b[:])
					global[i] -= 0.1 * v
				}
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != c.golden {
				t.Fatalf("five rounds of uploads hash to %s, want %s", got, c.golden)
			}
		})
	}
}

// TestLocalTrainSteadyStateAllocs: after warm-up a LocalTrain call
// allocates the upload vector it returns (8 bytes a parameter, as the
// allocator rounds a block of that size) and at most 8 KiB besides — the
// layers, the batch and the loss keep their buffers.
func TestLocalTrainSteadyStateAllocs(t *testing.T) {
	for _, c := range localTrainCases {
		t.Run(c.name, func(t *testing.T) {
			w, global := newCaseWorker(c)
			for round := 0; round < 2; round++ {
				w.LocalTrain(round, global)
			}
			upload := allocated(func() { sink = make([]float64, len(global)) })
			const calls = 4
			perCall := allocated(func() {
				for round := 2; round < 2+calls; round++ {
					sink = w.LocalTrain(round, global)
				}
			}) / calls
			t.Logf("%d B a call, upload %d B", perCall, upload)
			if budget := upload + 8<<10; perCall > budget {
				t.Fatalf("LocalTrain allocates %d B a call at d=%d, budget %d B (upload %d B + 8 KiB)",
					perCall, len(global), budget, upload)
			}
		})
	}
}

// BenchmarkLocalTrain is one warm call of the worker's local step (two
// SGD steps of batch 32) on each pinned model, the call a fifl-node
// worker makes every round. -cpu 1 gives the one-core cost the
// wire-loopback workload's workers pay.
func BenchmarkLocalTrain(b *testing.B) {
	for _, c := range localTrainCases {
		b.Run(c.name, func(b *testing.B) {
			w, global := newCaseWorker(c)
			sink = w.LocalTrain(0, global)
			b.ReportAllocs()
			b.ResetTimer()
			for round := range b.N {
				sink = w.LocalTrain(1+round, global)
			}
		})
	}
}

// sink keeps the measured allocations alive past the compiler.
var sink []float64

// allocated returns the bytes f allocates on the heap.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}
