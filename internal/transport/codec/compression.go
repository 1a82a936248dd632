package codec

import (
	"encoding/binary"
	"fmt"
	"math"

	"fifl/internal/frame"
)

// Compression selects how a frame's vector payloads are laid out on the
// wire. It is the negotiable half of the codec API: a worker picks a mode
// at dial time, sends its uploads in it, and asks for downloads in it via
// the `enc` query parameter; every decoder accepts every mode, keyed by
// the frame's flag bits, so the two directions can differ.
//
// CompressionNone is the only lossless mode — the transport's
// "bit-identical to the in-process engine" guarantee holds only under it,
// which is why the client carries an audit-round escape hatch that forces
// dense frames at a configurable cadence.
type Compression uint8

const (
	// CompressionNone ships dense little-endian float64 — lossless.
	CompressionNone Compression = iota
	// CompressionF32 ships dense float32: half the bytes, ~7 significant
	// digits.
	CompressionF32
	// CompressionTopK ships the k = max(1, dim/10) largest-magnitude
	// elements as sorted (index, float32) pairs; the rest decode as zero.
	// Only gradients sparsify meaningfully — model broadcasts degrade to
	// CompressionF32 (zeroing 90% of the parameters is not a model).
	CompressionTopK
	// CompressionInt8 ships dense symmetric 8-bit quantization: one f64
	// scale (maxAbs/127) and one int8 per element.
	CompressionInt8
	// CompressionInt16 ships dense symmetric 16-bit quantization: one f64
	// scale (maxAbs/32767) and one int16 per element.
	CompressionInt16
)

// TopKDivisor sets the sparsification budget: CompressionTopK keeps
// max(1, dim/TopKDivisor) elements.
const TopKDivisor = 10

// maxSparseDim caps the dense dimension a sparse frame may declare. A
// top-k payload's wire length does not bound its decoded size the way
// dense payloads do, so without this cap a 16-byte hostile frame could
// demand an 8-byte × 2^32 allocation. 8Mi elements matches the server's
// 64 MiB body limit divided by sizeof(float64).
const maxSparseDim = 8 << 20

// compressionNames orders the mode names by Compression value; it is the
// single source of truth for String, ParseCompression and error text.
var compressionNames = []string{"none", "f32", "topk", "int8", "int16"}

// String renders the mode as its flag/CLI spelling.
func (c Compression) String() string {
	if int(c) < len(compressionNames) {
		return compressionNames[c]
	}
	return fmt.Sprintf("compression(%d)", uint8(c))
}

// Valid reports whether c is a mode this package speaks.
func (c Compression) Valid() bool { return int(c) < len(compressionNames) }

// ParseCompression resolves a flag or query-parameter value to a mode.
// The empty string means CompressionNone; unknown values list every valid
// spelling.
func ParseCompression(s string) (Compression, error) {
	if s == "" {
		return CompressionNone, nil
	}
	for i, name := range compressionNames {
		if s == name {
			return Compression(i), nil
		}
	}
	return 0, fmt.Errorf("codec: unknown compression %q (want one of %v)", s, compressionNames)
}

// flag returns the frame flag bit announcing c (0 for None).
func (c Compression) flag() uint8 {
	switch c {
	case CompressionF32:
		return FlagFloat32
	case CompressionTopK:
		return FlagTopK
	case CompressionInt8:
		return FlagInt8
	case CompressionInt16:
		return FlagInt16
	default:
		return 0
	}
}

// CompressionFromFlags recovers the vector layout a frame's flag byte
// announces. Type has already rejected frames that set more than one
// compression bit, so the mapping is unambiguous.
func CompressionFromFlags(flags uint8) Compression {
	switch {
	case flags&FlagFloat32 != 0:
		return CompressionF32
	case flags&FlagTopK != 0:
		return CompressionTopK
	case flags&FlagInt8 != 0:
		return CompressionInt8
	case flags&FlagInt16 != 0:
		return CompressionInt16
	default:
		return CompressionNone
	}
}

// DenseFallback maps a mode to the one model/report broadcasts actually
// use: parameters and per-worker report vectors are dense quantities, so
// sparsification degrades to float32 while the dense modes pass through.
func (c Compression) DenseFallback() Compression {
	if c == CompressionTopK {
		return CompressionF32
	}
	return c
}

// RoundTrip pushes a vector through one encode/decode cycle of the given
// mode and returns what the receiving side would see. It is how the
// in-process simulator reproduces the wire transport's lossy modes
// without standing up an HTTP server: same encoder, same decoder, same
// bytes in between.
func RoundTrip(v []float64, c Compression) ([]float64, error) {
	b, err := EncodeUpload(Upload{Grad: v}, c)
	if err != nil {
		return nil, err
	}
	u, err := DecodeUpload(b)
	if err != nil {
		return nil, err
	}
	return u.Grad, nil
}

// topKCount is how many of n elements a sparse frame keeps:
// max(1, n/TopKDivisor), and none of none.
func topKCount(n int) int {
	return min(max(1, n/TopKDivisor), n)
}

// writeTopK appends the sparse layout: fullDim u32 | k u32 | k ascending
// u32 indices | k float32 values.
func (w *writer) writeTopK(v []float64) {
	k := topKCount(len(v))
	keep := topKIndices(v, k)
	w.u32(uint32(len(v)))
	w.u32(uint32(k))
	for _, i := range keep {
		w.u32(uint32(i))
	}
	for _, i := range keep {
		w.b = binary.LittleEndian.AppendUint32(w.b, math.Float32bits(float32(v[i])))
	}
}

// topKIndices returns, ascending, the indices of the k elements of v that
// rank first under the frame's total order: largest magnitude first, ties
// to the smaller index, so the frame bytes are deterministic. It selects
// instead of sorting all of v: kthLargest finds the cut — the k-th largest
// magnitude — and one more pass keeps everything above the cut plus the
// lowest-indexed ties at it, already in ascending order.
func topKIndices(v []float64, k int) []int {
	if k == 0 {
		return nil
	}
	mags := make([]float64, len(v))
	for i, x := range v {
		mags[i] = math.Abs(x)
	}
	cut, above := kthLargest(mags, k)
	ties := k - above
	keep := make([]int, 0, k)
	for i, x := range v {
		switch m := math.Abs(x); {
		case m > cut:
			keep = append(keep, i)
		case m == cut && ties > 0:
			keep = append(keep, i)
			ties--
		}
	}
	return keep
}

// kthLargest returns the k-th largest element of m (1 <= k <= len(m), no
// NaN) and how many elements are strictly greater. It is a three-way
// quickselect that scrambles m; the counting and compaction loops compare
// without branching, because on gradient data a branch on "x > pivot" is
// a coin flip the predictor loses. Every round drops at least the pivot,
// so it terminates on any input; the expected cost is O(len(m)).
func kthLargest(m []float64, k int) (kth float64, above int) {
	for {
		a, b, c := m[0], m[len(m)/2], m[len(m)-1]
		pivot := math.Max(math.Min(a, b), math.Min(math.Max(a, b), c)) // median of three
		gt, eq := 0, 0
		for _, x := range m {
			gt += b2i(x > pivot)
			eq += b2i(x == pivot)
		}
		switch {
		case k <= gt:
			w := 0
			for _, x := range m {
				m[w] = x
				w += b2i(x > pivot)
			}
			m = m[:w]
		case k <= gt+eq:
			return pivot, above + gt
		default:
			w := 0
			for _, x := range m {
				m[w] = x
				w += b2i(x < pivot)
			}
			m = m[:w]
			k -= gt + eq
			above += gt + eq
		}
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// readTopK decodes the sparse layout back to a dense vector.
func readTopK(r *frame.Reader, field string) []float64 {
	fullDim := r.U32(field)
	if fullDim > maxSparseDim {
		r.Failf("%s declares a %d-element dense shape, cap is %d", field, fullDim, maxSparseDim)
	}
	k := r.U32(field)
	if k > fullDim {
		r.Failf("%s keeps %d of %d elements", field, k, fullDim)
	}
	rawIdx := r.Bytes(4*int(k), field)
	rawVal := r.Bytes(4*int(k), field)
	if r.Err() != nil {
		return nil
	}
	out := make([]float64, fullDim)
	prev := -1
	for i := 0; i < int(k); i++ {
		j := binary.LittleEndian.Uint32(rawIdx[i*4:])
		if j >= fullDim {
			r.Failf("%s sparse index %d outside dimension %d", field, j, fullDim)
			return nil
		}
		if int(j) <= prev {
			r.Failf("%s sparse indices not strictly ascending at position %d", field, i)
			return nil
		}
		prev = int(j)
		x := float64(math.Float32frombits(binary.LittleEndian.Uint32(rawVal[i*4:])))
		if math.IsNaN(x) || math.IsInf(x, 0) {
			r.Failf("%s element %d is non-finite", field, i)
			return nil
		}
		out[j] = x
	}
	return out
}

// writeQuantized appends the dense quantized layout: count u32 | scale
// f64 | count int8/int16. The scale is maxAbs/limit (0 for an all-zero
// vector), so the representable range exactly covers the data.
func (w *writer) writeQuantized(v []float64, limit float64, wide bool) {
	maxAbs := 0.0
	for _, x := range v {
		if a := math.Abs(x); a > maxAbs {
			maxAbs = a
		}
	}
	scale := 0.0
	if maxAbs > 0 {
		scale = maxAbs / limit
	}
	w.u32(uint32(len(v)))
	w.b = binary.LittleEndian.AppendUint64(w.b, math.Float64bits(scale))
	for _, x := range v {
		q := 0.0
		if scale > 0 {
			q = math.RoundToEven(x / scale)
		}
		if q > limit {
			q = limit
		} else if q < -limit {
			q = -limit
		}
		if wide {
			w.b = binary.LittleEndian.AppendUint16(w.b, uint16(int16(q)))
		} else {
			w.b = append(w.b, byte(int8(q)))
		}
	}
}

// readQuantized decodes the dense quantized layout.
func readQuantized(r *frame.Reader, field string, wide bool) []float64 {
	elem := 1
	if wide {
		elem = 2
	}
	n := r.Count(elem, field)
	scale := math.Float64frombits(r.U64(field))
	if math.IsNaN(scale) || math.IsInf(scale, 0) || scale < 0 {
		r.Failf("%s quantization scale is invalid (%v)", field, scale)
	}
	raw := r.Bytes(n*elem, field)
	out := make([]float64, len(raw)/elem)
	for i := range out {
		var q float64
		if wide {
			q = float64(int16(binary.LittleEndian.Uint16(raw[i*2:])))
		} else {
			q = float64(int8(raw[i]))
		}
		x := q * scale
		if math.IsInf(x, 0) {
			r.Failf("%s element %d overflows under scale %v", field, i, scale)
			return nil
		}
		out[i] = x
	}
	return out
}
