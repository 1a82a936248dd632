package nn

import (
	"math"
	"testing"

	"fifl/internal/rng"
)

// TestConvBackwardBitsRepeat: at batch 64 Conv2D's backward pass fans the
// batch out over the cores, one partial dW and dB per chunk; the partials
// must merge in chunk order, so ten repeats of one backward pass through
// LeNet give the same gradient bits at any core count. tier1.sh runs it at
// one, two and three cores.
func TestConvBackwardBitsRepeat(t *testing.T) {
	src := rng.New(51)
	model := NewLeNet(52)()
	const batch = 64
	x := randN(src, 1, batch, 1, 28, 28)
	labels := make([]int, batch)
	for i := range labels {
		labels[i] = src.Intn(10)
	}
	var first []float64
	for rep := 0; rep < 10; rep++ {
		model.ZeroGrads()
		_, d := SoftmaxCrossEntropy(model.Forward(x, true), labels)
		model.Backward(d)
		g := gradsVector(model)
		if first == nil {
			first = g
			continue
		}
		for i, v := range g {
			if math.Float64bits(v) != math.Float64bits(first[i]) {
				t.Fatalf("repeat %d: gradient entry %d is %v, first pass gave %v", rep, i, v, first[i])
			}
		}
	}
}
