package gradvec

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// The ref* functions are the per-element, multi-pass kernels this package
// shipped before the fused passes, kept verbatim as the oracle: every
// fused or branch-free kernel must return the same float, bit for bit.

func refNorm2(v Vector) float64 {
	s := 0.0
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return math.Inf(1)
		}
		s += x * x
	}
	return math.Sqrt(s)
}

func refHasNaN(v Vector) bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
	}
	return false
}

func refCosSim(v, o Vector) float64 {
	nv, no := refNorm2(v), refNorm2(o)
	if nv == 0 || no == 0 || math.IsInf(nv, 0) || math.IsInf(no, 0) {
		return 0
	}
	c := v.Dot(o) / nv / no
	switch {
	case math.IsNaN(c):
		return 0
	case c > 1:
		return 1
	case c < -1:
		return -1
	default:
		return c
	}
}

func refWeightedSum(n int, vs []Vector, weights []float64) Vector {
	out := Zeros(n)
	for i, v := range vs {
		if weights[i] != 0 {
			out.AddScaled(weights[i], v)
		}
	}
	return out
}

// kernelLengths covers the empty, tiny, odd and harness-sized (MiniResNet,
// 78,378 parameters) vectors.
var kernelLengths = []int{0, 1, 2, 7, 1001, 78378}

// kernelFills are the value regimes the kernels must agree on.
var kernelFills = map[string]func(r *rand.Rand, v Vector){
	"random": func(r *rand.Rand, v Vector) {
		for i := range v {
			v[i] = r.NormFloat64()
		}
	},
	"zero": func(*rand.Rand, Vector) {},
	"denormal": func(r *rand.Rand, v Vector) {
		for i := range v {
			v[i] = r.NormFloat64() * 1e-310
		}
	},
	// x*x overflows to +Inf on finite input.
	"huge": func(r *rand.Rand, v Vector) {
		for i := range v {
			v[i] = 1e200 * (1 + r.Float64())
			if r.Intn(2) == 0 {
				v[i] = -v[i]
			}
		}
	},
}

// plantings returns copies of v with NaN, +Inf and -Inf planted at the
// first, middle and last element, plus v itself.
func plantings(v Vector) map[string]Vector {
	out := map[string]Vector{"clean": v}
	if len(v) == 0 {
		return out
	}
	for pn, p := range map[string]float64{"nan": math.NaN(), "+inf": math.Inf(1), "-inf": math.Inf(-1)} {
		for an, at := range map[string]int{"first": 0, "middle": len(v) / 2, "last": len(v) - 1} {
			c := v.Clone()
			c[at] = p
			out[pn+"@"+an] = c
		}
	}
	return out
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func TestKernelsMatchReference(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, n := range kernelLengths {
		for fill, fn := range kernelFills {
			base := make(Vector, n)
			fn(r, base)
			other := make(Vector, n)
			kernelFills["random"](r, other)
			for plant, v := range plantings(base) {
				name := fmt.Sprintf("n=%d/%s/%s", n, fill, plant)
				if got, want := v.Norm2(), refNorm2(v); !sameBits(got, want) {
					t.Errorf("%s: Norm2 = %v, reference %v", name, got, want)
				}
				if got, want := v.HasNaN(), refHasNaN(v); got != want {
					t.Errorf("%s: HasNaN = %v, reference %v", name, got, want)
				}
				// Either operand may be the broken one.
				for _, pair := range [][2]Vector{{v, other}, {other, v}, {v, v}} {
					a, b := pair[0], pair[1]
					if got, want := a.CosSim(b), refCosSim(a, b); !sameBits(got, want) {
						t.Errorf("%s: CosSim = %v, reference %v", name, got, want)
					}
					dot, aa, bb := a.DotSumSq(b)
					if want := a.Dot(b); !sameBits(dot, want) {
						t.Errorf("%s: DotSumSq dot = %v, Dot %v", name, dot, want)
					}
					// Norm2 is the root of the same sum whenever no element
					// short-circuits the reference.
					if !refHasNaN(a) && !sameBits(math.Sqrt(aa), refNorm2(a)) {
						t.Errorf("%s: DotSumSq Σv² = %v disagrees with Norm2 %v", name, aa, refNorm2(a))
					}
					if !refHasNaN(b) && !sameBits(math.Sqrt(bb), refNorm2(b)) {
						t.Errorf("%s: DotSumSq Σo² = %v disagrees with Norm2 %v", name, bb, refNorm2(b))
					}
				}
			}
		}
	}
}

// TestSumOfSquaresCarriesFiniteness is the argument the fused screens rest
// on: Σx² is NaN iff an element is NaN, and +Inf iff an element is ±Inf or
// the finite sum overflowed — so a finite sum proves a finite vector.
func TestSumOfSquaresCarriesFiniteness(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for _, n := range kernelLengths {
		for fill, fn := range kernelFills {
			base := make(Vector, n)
			fn(r, base)
			for plant, v := range plantings(base) {
				_, _, ss := v.DotSumSq(v)
				finite := !math.IsNaN(ss) && !math.IsInf(ss, 0)
				if finite && refHasNaN(v) {
					t.Errorf("n=%d/%s/%s: Σx² = %v is finite but the vector is not", n, fill, plant, ss)
				}
				hasNaN := false
				for _, x := range v {
					hasNaN = hasNaN || math.IsNaN(x)
				}
				if math.IsNaN(ss) != hasNaN {
					t.Errorf("n=%d/%s/%s: Σx² NaN = %v, vector holds a NaN = %v", n, fill, plant, math.IsNaN(ss), hasNaN)
				}
				if ss < 0 {
					t.Errorf("n=%d/%s/%s: Σx² = %v is negative", n, fill, plant, ss)
				}
			}
		}
	}
}

// TestFourRowKernelsMatchReference holds DotSumSq4 and SqDist4 bit-equal
// to DotSumSq and SqDist on every row, whatever value regime or planted
// NaN or ±Inf each of the four rows and the shared vector hold.
func TestFourRowKernelsMatchReference(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for _, n := range kernelLengths {
		var pool []Vector
		for _, fn := range kernelFills {
			base := make(Vector, n)
			fn(r, base)
			for _, v := range plantings(base) {
				pool = append(pool, v)
			}
		}
		pick := func() Vector { return pool[r.Intn(len(pool))] }
		for trial := 0; trial < 24; trial++ {
			v, g := pick(), [4]Vector{pick(), pick(), pick(), pick()}
			var dot, ss, dist [4]float64
			dot[0], dot[1], dot[2], dot[3], ss[0], ss[1], ss[2], ss[3] = v.DotSumSq4(g[0], g[1], g[2], g[3])
			dist[0], dist[1], dist[2], dist[3] = v.SqDist4(g[0], g[1], g[2], g[3])
			for k := range g {
				wantDot, _, wantSS := v.DotSumSq(g[k])
				if !sameBits(dot[k], wantDot) || !sameBits(ss[k], wantSS) {
					t.Fatalf("n=%d trial %d row %d: DotSumSq4 = (%v, %v), DotSumSq (%v, %v)", n, trial, k, dot[k], ss[k], wantDot, wantSS)
				}
				if want := v.SqDist(g[k]); !sameBits(dist[k], want) {
					t.Fatalf("n=%d trial %d row %d: SqDist4 = %v, SqDist %v", n, trial, k, dist[k], want)
				}
			}
			// Σv² is the caller's to hoist: v.Dot(v) is DotSumSq's Σv².
			if _, vv, _ := v.DotSumSq(g[0]); !sameBits(v.Dot(v), vv) {
				t.Fatalf("n=%d trial %d: v.Dot(v) = %v, DotSumSq Σv² %v", n, trial, v.Dot(v), vv)
			}
		}
	}
}

// TestAddWeightedMatchesSerialFold holds the column-blocked, four-term fold
// bit-equal to one AddScaled per vector, on one core and on several, for
// every count of non-zero terms from 0 to 9 — each remainder of the
// four-term groups — interleaved with zero-weight rows that are nil or
// hold a NaN.
func TestAddWeightedMatchesSerialFold(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, procs := range []int{1, 2, 3, 4} {
		prev := runtime.GOMAXPROCS(procs)
		for _, n := range kernelLengths {
			for terms := 0; terms <= 9; terms++ {
				var vs []Vector
				var weights []float64
				for added := 0; added < terms; {
					// A zero weight skips its vector, whatever it holds.
					switch r.Intn(4) {
					case 0:
						vs, weights = append(vs, nil), append(weights, 0)
					case 1:
						vs, weights = append(vs, Vector{math.NaN()}), append(weights, 0)
					default:
						v := make(Vector, n)
						kernelFills["random"](r, v)
						vs, weights = append(vs, v), append(weights, r.NormFloat64())
						added++
					}
				}
				want := refWeightedSum(n, vs, weights)
				got := make(Vector, n)
				got.AddWeighted(vs, weights)
				for j := range want {
					if !sameBits(got[j], want[j]) {
						t.Fatalf("procs=%d n=%d terms=%d: element %d = %v, serial fold %v", procs, n, terms, j, got[j], want[j])
					}
				}
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// TestAddWeightedAllocatesNothingPerRow pins that the fold gathers its
// four-term groups on the stack: on one core folding 256 vectors allocates
// exactly what folding 8 does.
func TestAddWeightedAllocatesNothingPerRow(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	r := rand.New(rand.NewSource(5))
	const n = 1024
	allocs := func(k int) float64 {
		vs, weights := make([]Vector, k), make([]float64, k)
		for i := range vs {
			vs[i] = make(Vector, n)
			kernelFills["random"](r, vs[i])
			weights[i] = r.NormFloat64()
		}
		out := make(Vector, n)
		return testing.AllocsPerRun(20, func() { out.AddWeighted(vs, weights) })
	}
	if a8, a256 := allocs(8), allocs(256); a256 != a8 {
		t.Errorf("AddWeighted allocates %v objects folding 256 vectors, %v folding 8", a256, a8)
	}
}

// cohort is the harness's deep-flat shape: 64 gradients of MiniResNet
// dimension, 40 MB, in one arena.
func cohort(b *testing.B) (*Matrix, Vector) {
	b.Helper()
	const n, d = 64, 78378
	r := rand.New(rand.NewSource(1))
	m := NewMatrix(n, d)
	for i := 0; i < n; i++ {
		kernelFills["random"](r, m.Row(i))
	}
	ref := make(Vector, d)
	kernelFills["random"](r, ref)
	return m, ref
}

var benchSink float64

// BenchmarkScreenCohort is one Detect-stage read of the cohort: the fused
// cosine evidence of every gradient against a benchmark vector.
func BenchmarkScreenCohort(b *testing.B) {
	m, bench := cohort(b)
	b.SetBytes(int64(m.Rows() * m.Dim() * 8))
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		for i := 0; i < m.Rows(); i++ {
			benchSink += bench.CosSim(m.Row(i))
		}
	}
}

// BenchmarkScreenCohort4 is the same read four rows per pass: Σb² once,
// then DotSumSq4, as the Detect stage runs it.
func BenchmarkScreenCohort4(b *testing.B) {
	m, bench := cohort(b)
	b.SetBytes(int64(m.Rows() * m.Dim() * 8))
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		bb := bench.Dot(bench)
		for i := 0; i < m.Rows(); i += 4 {
			d0, d1, d2, d3, s0, s1, s2, s3 := bench.DotSumSq4(m.Row(i), m.Row(i+1), m.Row(i+2), m.Row(i+3))
			benchSink += CosFromSums(d0, bb, s0) + CosFromSums(d1, bb, s1) + CosFromSums(d2, bb, s2) + CosFromSums(d3, bb, s3)
		}
	}
}

// BenchmarkDistanceCohort is one Contribution-stage read of the cohort:
// every gradient's squared distance to the global gradient.
func BenchmarkDistanceCohort(b *testing.B) {
	m, global := cohort(b)
	b.SetBytes(int64(m.Rows() * m.Dim() * 8))
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		for i := 0; i < m.Rows(); i++ {
			benchSink += global.SqDist(m.Row(i))
		}
	}
}

// BenchmarkDistanceCohort4 is the same read four rows per pass (SqDist4).
func BenchmarkDistanceCohort4(b *testing.B) {
	m, global := cohort(b)
	b.SetBytes(int64(m.Rows() * m.Dim() * 8))
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		for i := 0; i < m.Rows(); i += 4 {
			d0, d1, d2, d3 := global.SqDist4(m.Row(i), m.Row(i+1), m.Row(i+2), m.Row(i+3))
			benchSink += d0 + d1 + d2 + d3
		}
	}
}

// BenchmarkFoldCohort is one Aggregate-stage read of the cohort on one
// core: every gradient scaled into the global gradient, one AddScaled each.
func BenchmarkFoldCohort(b *testing.B) {
	m, out := cohort(b)
	b.SetBytes(int64(m.Rows() * m.Dim() * 8))
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		for i := 0; i < m.Rows(); i++ {
			out.AddScaled(1.0/64, m.Row(i))
		}
	}
}

// BenchmarkFoldCohort4 is the same fold four rows per pass over the
// output (addScaled4), as each of AddWeighted's column blocks runs it.
func BenchmarkFoldCohort4(b *testing.B) {
	m, out := cohort(b)
	b.SetBytes(int64(m.Rows() * m.Dim() * 8))
	b.ResetTimer()
	const w = 1.0 / 64
	for k := 0; k < b.N; k++ {
		for i := 0; i < m.Rows(); i += 4 {
			out.addScaled4(w, m.Row(i), w, m.Row(i+1), w, m.Row(i+2), w, m.Row(i+3))
		}
	}
}
