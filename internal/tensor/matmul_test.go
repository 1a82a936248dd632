package tensor

import (
	"math"
	"slices"
	"testing"

	"fifl/internal/rng"
)

// matMulKernel pairs one of the three kernels with its reference loop,
// the operand shapes that give an m×n output over k terms, and the
// (m, k, n) it runs at in a Linear layer of in→out features at batch 32.
type matMulKernel struct {
	name   string
	into   func(dst, a, b *Tensor)
	ref    func(dst, a, b *Tensor, lo, hi int)
	shapes func(m, k, n int) (a, b []int)
	layer  func(in, out int) (m, k, n int)
}

var matMulKernels = []matMulKernel{
	// dX = dY·W
	{"MatMul", MatMulInto, refMulRows,
		func(m, k, n int) ([]int, []int) { return []int{m, k}, []int{k, n} },
		func(in, out int) (int, int, int) { return 32, out, in }},
	// dW = dYᵀ·X
	{"MatMulT1", MatMulT1Into, refMulT1Rows,
		func(m, k, n int) ([]int, []int) { return []int{k, m}, []int{k, n} },
		func(in, out int) (int, int, int) { return out, 32, in }},
	// Y = X·Wᵀ
	{"MatMulT2", MatMulT2Into, refMulT2Rows,
		func(m, k, n int) ([]int, []int) { return []int{m, k}, []int{n, k} },
		func(in, out int) (int, int, int) { return 32, in, out }},
}

// specialInf and specialNaN hold the values a sum can go wrong on:
// signed zeros, subnormals, small integers whose sums cancel exactly to
// ±0, and either the infinities, the values whose products overflow and
// the NaN the hardware makes (Inf-Inf, 0·Inf: negative, no payload), or
// the NaN math.NaN() makes (positive, payload 1) — never both NaNs. When
// two NaNs of different payload meet in one add or multiply, x86 keeps
// the one in the destination register, and which operand lands there is
// the register allocator's choice, in the reference loops as in the
// kernels. The training plane only holds the hardware NaN, so each
// pattern carries one NaN payload and the bits must match throughout.
var (
	specialFinite = []float64{0, math.Copysign(0, -1), 1, -1, 2, -2,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1060}
	specialInf = append(slices.Clip(specialFinite), math.Inf(1), math.Inf(-1),
		math.Inf(1)-math.Inf(1), math.MaxFloat64, -math.MaxFloat64)
	specialNaN = append(slices.Clip(specialFinite), math.NaN())
)

// fill writes one of the operand patterns into d: "dense" (no zeros),
// "half" (about half zeros, as a ReLU gradient has), "zero" (all ±0),
// "inf" (drawn from specialInf) and "nan" (drawn from specialNaN).
func fill(src *rng.Source, d []float64, pattern string) {
	for i := range d {
		switch pattern {
		case "dense":
			d[i] = src.NormFloat64() + 0.5
		case "half":
			if d[i] = src.NormFloat64(); src.Float64() < 0.5 {
				d[i] = 0
			}
		case "zero":
			d[i] = math.Copysign(0, float64(i%2)-0.5)
		case "inf":
			d[i] = specialInf[src.Intn(len(specialInf))]
		case "nan":
			d[i] = specialNaN[src.Intn(len(specialNaN))]
		}
	}
}

// TestMatMulMatchesReference: each kernel writes the Float64bits of the
// one-accumulator loop it replaced, over ragged shapes (m, n and k at
// every residue mod 4, k = 0 and 1), A with no, half and all zeros, both
// operands full of signed zeros, subnormals, infinities and NaNs, and m on
// both sides of parallel's 64-row inline threshold, so at more than one
// core the rows split into chunks whose edges move with GOMAXPROCS.
func TestMatMulMatchesReference(t *testing.T) {
	src := rng.New(55)
	ms := []int{1, 2, 3, 4, 5, 7, 63, 64, 65, 70, 131}
	dims := []int{0, 1, 2, 3, 4, 5, 6, 7, 9, 16}
	patterns := []string{"dense", "half", "zero", "inf", "nan"}
	for _, kern := range matMulKernels {
		for _, m := range ms {
			for _, k := range dims {
				for _, n := range dims[1:] {
					for _, pa := range patterns {
						pb := "dense"
						if pa == "inf" || pa == "nan" {
							pb = pa
						}
						sa, sb := kern.shapes(m, k, n)
						a, b := New(sa...), New(sb...)
						fill(src, a.data, pa)
						fill(src, b.data, pb)
						got, want := Full(math.NaN(), m, n), Full(math.NaN(), m, n)
						kern.into(got, a, b)
						kern.ref(want, a, b, 0, m)
						for e, v := range got.data {
							if math.Float64bits(v) != math.Float64bits(want.data[e]) {
								t.Fatalf("%s m=%d k=%d n=%d A %s: entry (%d,%d) is %v (%#x), reference %v (%#x)",
									kern.name, m, k, n, pa, e/n, e%n, v, math.Float64bits(v), want.data[e], math.Float64bits(want.data[e]))
							}
						}
					}
				}
			}
		}
	}
}

// matMulBenchLayers are the Linear layers the federation trains: the
// wire MLP's 784→16 layer (the fifl-node worker's and the wire-loopback
// workload's model), LeNet's three FC layers and the MiniResNet head.
var matMulBenchLayers = []struct {
	name    string
	in, out int
}{
	{"wire-mlp-784x16", 784, 16},
	{"lenet-fc1-400x120", 400, 120},
	{"lenet-fc2-120x84", 120, 84},
	{"lenet-fc3-84x10", 84, 10},
	{"miniresnet-head-64x10", 64, 10},
}

// BenchmarkMatMul runs each kernel at each layer's batch-32 shape,
// blocked (the package's) and reference (the loop it replaced, as one
// chunk, the way a single core runs it), so -cpu 1 compares the two like
// for like. A is about half zeros, as dY is after a ReLU; the forward
// kernel does not skip zeros, so its time does not depend on them.
func BenchmarkMatMul(b *testing.B) {
	src := rng.New(7)
	for _, kern := range matMulKernels {
		for _, l := range matMulBenchLayers {
			m, k, n := kern.layer(l.in, l.out)
			sa, sb := kern.shapes(m, k, n)
			x, y, dst := New(sa...), New(sb...), New(m, n)
			fill(src, x.data, "half")
			fill(src, y.data, "dense")
			b.Run(kern.name+"/"+l.name+"/blocked", func(b *testing.B) {
				for range b.N {
					kern.into(dst, x, y)
				}
			})
			b.Run(kern.name+"/"+l.name+"/reference", func(b *testing.B) {
				for range b.N {
					kern.ref(dst, x, y, 0, m)
				}
			})
		}
	}
}
