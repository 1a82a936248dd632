package nn

import (
	"math"
	"testing"

	"fifl/internal/rng"
)

// TestEvaluatePartialBatchBits: Evaluate over 50 examples in batches of 16
// ends on a batch of 2, so every layer meets a second shape; accuracy and
// loss must keep the bits they had before the layers kept their buffers,
// on a first call and on a second one that switches the shapes back.
func TestEvaluatePartialBatchBits(t *testing.T) {
	for _, c := range []struct {
		name      string
		build     Builder
		item      []int
		acc, loss uint64
	}{
		{"mlp", NewMLP(41, 28*28, []int{16}, 10), []int{1, 28, 28}, 0x3faeb851eb851eb8, 0x40086417d6f3a252},
		{"lenet", NewLeNet(42), []int{1, 28, 28}, 0x3fa47ae147ae147b, 0x4011bc8b447e55ab},
		{"tiny-resnet", NewTinyResNet(43), []int{3, 32, 32}, 0x3fb47ae147ae147b, 0x4008c3dabdaea324},
	} {
		t.Run(c.name, func(t *testing.T) {
			src := rng.New(44)
			const n = 50
			x := randN(src, 1, append([]int{n}, c.item...)...)
			labels := make([]int, n)
			for i := range labels {
				labels[i] = src.Intn(10)
			}
			model := c.build()
			for call := 0; call < 2; call++ {
				acc, loss := Evaluate(model, x, labels, 16)
				if math.Float64bits(acc) != c.acc || math.Float64bits(loss) != c.loss {
					t.Fatalf("call %d: acc %v loss %v (bits %#x %#x), want bits %#x %#x",
						call, acc, loss, math.Float64bits(acc), math.Float64bits(loss), c.acc, c.loss)
				}
			}
		})
	}
}
