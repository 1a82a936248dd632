package codec

import (
	"math"
	"sort"
	"testing"

	"fifl/internal/rng"
)

// boundedVec draws a vector inside float32 range: the lossy modes all
// project through float32, where randVec's 1e300 outliers overflow.
func boundedVec(src *rng.Source, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = src.NormFloat64()
		if src.Intn(8) == 0 {
			v[i] = 0
		}
	}
	return v
}

func TestParseCompression(t *testing.T) {
	for c := CompressionNone; c.Valid(); c++ {
		got, err := ParseCompression(c.String())
		if err != nil || got != c {
			t.Fatalf("ParseCompression(%q) = %v, %v", c.String(), got, err)
		}
	}
	if got, err := ParseCompression(""); err != nil || got != CompressionNone {
		t.Fatalf("empty spelling should mean none: %v, %v", got, err)
	}
	if _, err := ParseCompression("gzip"); err == nil {
		t.Fatal("unknown spelling accepted")
	}
	if _, err := EncodeUpload(Upload{Grad: []float64{1}}, Compression(99)); err == nil {
		t.Fatal("EncodeUpload accepted an invalid compression value")
	}
}

// TestTopKRoundTrip: a sparsified upload keeps exactly the k largest
// magnitudes (as their float32 projections), zeroes the rest, preserves
// the dense shape, and lands far under the dense frame size.
func TestTopKRoundTrip(t *testing.T) {
	src := rng.New(4)
	const dim = 500
	v := boundedVec(src, dim)
	in := Upload{Round: 2, Worker: 3, Samples: 40, Grad: v}
	dense, err := EncodeUpload(in, CompressionNone)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EncodeUpload(in, CompressionTopK)
	if err != nil {
		t.Fatal(err)
	}
	if len(b)*2 >= len(dense) {
		t.Fatalf("top-k frame is %d bytes vs %d dense — not even a 2x win", len(b), len(dense))
	}
	out, err := DecodeUpload(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Grad) != dim {
		t.Fatalf("dense shape changed: %d, want %d", len(out.Grad), dim)
	}
	// The k-th largest magnitude separates survivors from zeros.
	mags := make([]float64, dim)
	for i, x := range v {
		mags[i] = math.Abs(x)
	}
	k := dim / TopKDivisor
	kept := 0
	for i, x := range out.Grad {
		if x != 0 {
			kept++
			if x != float64(float32(v[i])) {
				t.Fatalf("survivor %d is %v, want float32 projection of %v", i, x, v[i])
			}
		}
	}
	// float32(small value) can round to 0, so kept <= k; it must not exceed.
	if kept > k {
		t.Fatalf("kept %d elements, budget is %d", kept, k)
	}
}

// TestTopKTinyVectors: dimensions at and below the divisor keep at least
// one element.
func TestTopKTinyVectors(t *testing.T) {
	for _, v := range [][]float64{{5}, {0, -3, 0}, make([]float64, TopKDivisor)} {
		out, err := RoundTrip(v, CompressionTopK)
		if err != nil {
			t.Fatalf("dim %d: %v", len(v), err)
		}
		if len(out) != len(v) {
			t.Fatalf("dim %d changed to %d", len(v), len(out))
		}
		for i, x := range v {
			if got, want := out[i], float64(float32(x)); got != want && math.Abs(x) >= math.Abs(v[imaxAbs(v)]) {
				t.Fatalf("dim %d: largest element %d decoded to %v, want %v", len(v), i, got, want)
			}
		}
	}
	if out, err := RoundTrip(nil, CompressionTopK); err != nil || len(out) != 0 {
		t.Fatalf("empty vector: %v, %v", out, err)
	}
}

// TestTopKSelectionMatchesFullSort holds the heap selection to the
// encoder's former definition — sort every index by (|v| descending, index
// ascending), keep the first k, emit them ascending — on inputs where the
// order matters: heavy ties, all zeros, signed zeros, sorted runs.
func TestTopKSelectionMatchesFullSort(t *testing.T) {
	src := rng.New(23)
	fullSort := func(v []float64, k int) []int {
		idx := make([]int, len(v))
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool {
			ma, mb := math.Abs(v[idx[a]]), math.Abs(v[idx[b]])
			if ma != mb {
				return ma > mb
			}
			return idx[a] < idx[b]
		})
		keep := idx[:k]
		sort.Ints(keep)
		return keep
	}
	fills := map[string]func(i int) float64{
		"random":     func(int) float64 { return src.NormFloat64() },
		"ties":       func(int) float64 { return math.Round(3 * src.NormFloat64()) },
		"zeros":      func(int) float64 { return 0 },
		"signed":     func(i int) float64 { return math.Copysign(float64(i%3), float64(i%2)-0.5) },
		"ascending":  func(i int) float64 { return float64(i) },
		"descending": func(i int) float64 { return -float64(i) },
	}
	for _, n := range []int{0, 1, 2, 9, 10, 11, 257, 5000} {
		for name, fill := range fills {
			v := make([]float64, n)
			for i := range v {
				v[i] = fill(i)
			}
			for _, k := range []int{0, 1, n / TopKDivisor, n / 2, n} {
				if k > n {
					continue
				}
				got, want := topKIndices(v, k), fullSort(v, k)
				if len(got) != len(want) {
					t.Fatalf("%s n=%d k=%d: kept %d indices, want %d", name, n, k, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s n=%d k=%d: kept %v, full sort keeps %v", name, n, k, got, want)
					}
				}
			}
		}
	}
}

func imaxAbs(v []float64) int {
	best := 0
	for i, x := range v {
		if math.Abs(x) > math.Abs(v[best]) {
			best = i
		}
	}
	return best
}

// TestQuantizedRoundTrip: int8/int16 round-trips keep every element
// within half a quantization step of the original and shrink the frame by
// the expected factor.
func TestQuantizedRoundTrip(t *testing.T) {
	src := rng.New(5)
	const dim = 1000
	v := make([]float64, dim)
	maxAbs := 0.0
	for i := range v {
		v[i] = src.NormFloat64()
		if a := math.Abs(v[i]); a > maxAbs {
			maxAbs = a
		}
	}
	in := Upload{Round: 1, Worker: 0, Samples: 10, Grad: v}
	dense, err := EncodeUpload(in, CompressionNone)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		mode  Compression
		limit float64
		ratio int
	}{
		{CompressionInt8, 127, 7},
		{CompressionInt16, 32767, 3},
	} {
		b, err := EncodeUpload(in, tc.mode)
		if err != nil {
			t.Fatal(err)
		}
		if len(b)*tc.ratio >= len(dense) {
			t.Fatalf("%s frame is %d bytes vs %d dense, want ~%dx smaller", tc.mode, len(b), len(dense), tc.ratio)
		}
		out, err := DecodeUpload(b)
		if err != nil {
			t.Fatal(err)
		}
		step := maxAbs / tc.limit
		for i := range v {
			if diff := math.Abs(out.Grad[i] - v[i]); diff > step/2+1e-12 {
				t.Fatalf("%s element %d off by %v, step is %v", tc.mode, i, diff, step)
			}
		}
	}
	// All-zero vectors encode a zero scale and decode to zeros.
	for _, mode := range []Compression{CompressionInt8, CompressionInt16} {
		out, err := RoundTrip(make([]float64, 5), mode)
		if err != nil {
			t.Fatal(err)
		}
		for i, x := range out {
			if x != 0 {
				t.Fatalf("%s zero vector decoded element %d as %v", mode, i, x)
			}
		}
	}
}

// TestCompressedDecodeHardening: handcrafted sparse/quantized frames with
// hostile fields are rejected, not honored.
func TestCompressedDecodeHardening(t *testing.T) {
	reseal := func(b []byte, patch func(body []byte)) []byte {
		w := &writer{b: append([]byte(nil), b[:len(b)-crcSize]...)}
		patch(w.b)
		return w.seal()
	}
	sparse := make([]float64, 40)
	sparse[7] = 3
	good, err := EncodeUpload(Upload{Round: 1, Worker: 1, Samples: 1, Grad: sparse}, CompressionTopK)
	if err != nil {
		t.Fatal(err)
	}
	// Body offset of the vector: header + round/worker/samples (12 bytes).
	vecOff := headerSize + 12
	if _, err := DecodeUpload(reseal(good, func(b []byte) {
		// Declare a huge dense dimension: the sparse cap must refuse before
		// allocating.
		b[vecOff], b[vecOff+1], b[vecOff+2], b[vecOff+3] = 0xff, 0xff, 0xff, 0xff
	})); err == nil {
		t.Fatal("decoder honored a 4-billion-element sparse shape")
	}
	if _, err := DecodeUpload(reseal(good, func(b []byte) {
		// Point the surviving index outside the dense dimension.
		b[vecOff+8] = 0xee
	})); err == nil {
		t.Fatal("decoder honored an out-of-range sparse index")
	}

	quant, err := EncodeUpload(Upload{Round: 1, Worker: 1, Samples: 1, Grad: []float64{1, -2, 3}}, CompressionInt8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeUpload(reseal(quant, func(b []byte) {
		// NaN scale.
		for i, by := range nanBytes() {
			b[vecOff+4+i] = by
		}
	})); err == nil {
		t.Fatal("decoder honored a NaN quantization scale")
	}
}

// TestModelReportDegradeTopK: dense broadcasts silently degrade top-k to
// float32 — the negotiation rule — instead of zeroing 90% of the model.
func TestModelReportDegradeTopK(t *testing.T) {
	src := rng.New(6)
	params := boundedVec(src, 64)
	b, err := EncodeModel(Model{Round: 1, Params: params}, CompressionTopK)
	if err != nil {
		t.Fatal(err)
	}
	if flags := b[6]; flags&FlagTopK != 0 || flags&FlagFloat32 == 0 {
		t.Fatalf("model frame flags %#x: want the f32 fallback, not top-k", flags)
	}
	out, err := DecodeModel(b)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range params {
		if out.Params[i] != float64(float32(x)) {
			t.Fatalf("param %d is %v, want its float32 projection", i, out.Params[i])
		}
	}
}
