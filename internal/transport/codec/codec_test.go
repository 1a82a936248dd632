package codec

import (
	"math"
	"testing"

	"fifl/internal/faults"
	"fifl/internal/rng"
)

// randVec draws a finite vector of length n with occasional extreme but
// finite magnitudes, exercising the full float64 range the codec must
// round-trip bit-exactly.
func randVec(src *rng.Source, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		x := src.NormFloat64()
		switch src.Intn(8) {
		case 0:
			x *= 1e300
		case 1:
			x *= 1e-300
		case 2:
			x = 0
		}
		v[i] = x
	}
	return v
}

// TestUploadRoundTrip is the codec's core property: for arbitrary finite
// gradients — empty, single-element, large — EncodeUpload∘DecodeUpload is
// the identity, bit for bit.
func TestUploadRoundTrip(t *testing.T) {
	src := rng.New(1)
	for trial := 0; trial < 50; trial++ {
		n := 0
		switch trial % 4 {
		case 1:
			n = 1
		case 2:
			n = src.Intn(64)
		case 3:
			n = 2048 + src.Intn(2048)
		}
		in := Upload{
			Round:   src.Intn(1 << 20),
			Worker:  src.Intn(1 << 16),
			Samples: src.Intn(1 << 16),
			Grad:    randVec(src, n),
		}
		b, err := EncodeUpload(in, CompressionNone)
		if err != nil {
			t.Fatalf("trial %d: encode: %v", trial, err)
		}
		out, err := DecodeUpload(b)
		if err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		if out.Round != in.Round || out.Worker != in.Worker || out.Samples != in.Samples {
			t.Fatalf("trial %d: header fields changed: %+v vs %+v", trial, out, in)
		}
		if len(out.Grad) != len(in.Grad) {
			t.Fatalf("trial %d: gradient length %d, want %d", trial, len(out.Grad), len(in.Grad))
		}
		for i := range in.Grad {
			if math.Float64bits(out.Grad[i]) != math.Float64bits(in.Grad[i]) {
				t.Fatalf("trial %d: element %d changed bits: %v vs %v", trial, i, out.Grad[i], in.Grad[i])
			}
		}
	}
}

// TestUploadFloat32Mode: the compression mode round-trips the float32
// projection of the gradient and halves the payload.
func TestUploadFloat32Mode(t *testing.T) {
	in := Upload{Round: 3, Worker: 1, Samples: 10, Grad: []float64{1.5, -0.25, 1e-3, 42}}
	b64, err := EncodeUpload(in, CompressionNone)
	if err != nil {
		t.Fatal(err)
	}
	b32, err := EncodeUpload(in, CompressionF32)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(b64) - 4*len(in.Grad); len(b32) != want {
		t.Fatalf("float32 frame is %d bytes, want %d", len(b32), want)
	}
	out, err := DecodeUpload(b32)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range in.Grad {
		if out.Grad[i] != float64(float32(x)) {
			t.Fatalf("element %d: %v, want float32 projection %v", i, out.Grad[i], float64(float32(x)))
		}
	}
}

// TestEncodeRejectsNonFinite: NaN and ±Inf must not reach the wire.
func TestEncodeRejectsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := EncodeUpload(Upload{Grad: []float64{1, bad}}, CompressionNone); err == nil {
			t.Fatalf("EncodeUpload accepted %v", bad)
		}
		if _, err := EncodeModel(Model{Params: []float64{bad}}, CompressionNone); err == nil {
			t.Fatalf("EncodeModel accepted %v", bad)
		}
	}
}

// TestDecodeRejectsNonFinite: a handcrafted frame smuggling NaN past the
// encoder is refused by the decoder.
func TestDecodeRejectsNonFinite(t *testing.T) {
	b, err := EncodeUpload(Upload{Round: 1, Worker: 2, Samples: 3, Grad: []float64{1, 2}}, CompressionNone)
	if err != nil {
		t.Fatal(err)
	}
	// Overwrite the first gradient element with NaN bits and re-seal.
	w := &writer{b: b[:len(b)-crcSize]}
	for i, by := range nanBytes() {
		w.b[headerSize+12+4+i] = by
	}
	if _, err := DecodeUpload(w.seal()); err == nil {
		t.Fatal("DecodeUpload accepted a NaN gradient element")
	}
}

func nanBytes() []byte {
	var out [8]byte
	bits := math.Float64bits(math.NaN())
	for i := range out {
		out[i] = byte(bits >> (8 * i))
	}
	return out[:]
}

// TestDecodeRejectsCorruption: any single-byte corruption of a valid frame
// must be detected (CRC) or yield a clean parse error — never wrong data.
func TestDecodeRejectsCorruption(t *testing.T) {
	in := Upload{Round: 9, Worker: 4, Samples: 77, Grad: []float64{0.5, -2, 3.25}}
	good, err := EncodeUpload(in, CompressionNone)
	if err != nil {
		t.Fatal(err)
	}
	for i := range good {
		bad := append([]byte(nil), good...)
		bad[i] ^= 0x41
		out, err := DecodeUpload(bad)
		if err != nil {
			continue
		}
		// A flip that decodes must have been a CRC collision — effectively
		// impossible for a single-byte XOR with CRC32.
		t.Fatalf("byte %d flip decoded cleanly to %+v", i, out)
	}
	if _, err := DecodeUpload(good[:len(good)-1]); err == nil {
		t.Fatal("truncated frame decoded")
	}
	if _, err := DecodeUpload(nil); err == nil {
		t.Fatal("nil frame decoded")
	}
}

// TestTypeDispatch: Type classifies frames so the submit endpoint can
// dispatch, and rejects foreign or mistyped input.
func TestTypeDispatch(t *testing.T) {
	hb, err := EncodeHello(Hello{Worker: 7, Samples: 120})
	if err != nil {
		t.Fatal(err)
	}
	if typ, err := Type(hb); err != nil || typ != TypeHello {
		t.Fatalf("Type(hello) = %v, %v", typ, err)
	}
	if _, err := DecodeUpload(hb); err == nil {
		t.Fatal("DecodeUpload accepted a hello frame")
	}
	if _, err := Type([]byte("HTTP/1.1 200 OK\r\n\r\n")); err == nil {
		t.Fatal("Type accepted non-FIFL bytes")
	}
	h, err := DecodeHello(hb)
	if err != nil || h.Worker != 7 || h.Samples != 120 {
		t.Fatalf("hello round trip: %+v, %v", h, err)
	}
}

// TestModelRoundTrip covers the broadcast frame, including the done flag.
func TestModelRoundTrip(t *testing.T) {
	src := rng.New(2)
	in := Model{Round: 12, Params: randVec(src, 513)}
	b, err := EncodeModel(in, CompressionNone)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeModel(b)
	if err != nil {
		t.Fatal(err)
	}
	if out.Round != in.Round || out.Done || len(out.Params) != len(in.Params) {
		t.Fatalf("model round trip: %+v", out)
	}
	for i := range in.Params {
		if math.Float64bits(out.Params[i]) != math.Float64bits(in.Params[i]) {
			t.Fatalf("param %d changed bits", i)
		}
	}

	done, err := EncodeModel(Model{Round: 13, Done: true}, CompressionNone)
	if err != nil {
		t.Fatal(err)
	}
	od, err := DecodeModel(done)
	if err != nil || !od.Done || od.Round != 13 || len(od.Params) != 0 {
		t.Fatalf("done frame round trip: %+v, %v", od, err)
	}
	if _, err := EncodeModel(Model{Done: true, Params: []float64{1}}, CompressionNone); err == nil {
		t.Fatal("EncodeModel accepted a done frame with parameters")
	}
}

// TestReportRoundTrip covers the assessment frame.
func TestReportRoundTrip(t *testing.T) {
	in := Report{
		Round:     4,
		Committed: true,
		Statuses: []faults.UploadStatus{
			faults.StatusOK, faults.StatusRetried, faults.StatusTimedOut,
			faults.StatusStale, faults.StatusPending,
		},
		Reputations: []float64{0.5, 0.25, 0.125, 0.0625, 0.03125},
		Rewards:     []float64{1, 0, -0.5, -1, 0},
	}
	b, err := EncodeReport(in, CompressionNone)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeReport(b)
	if err != nil {
		t.Fatal(err)
	}
	if out.Round != in.Round || !out.Committed {
		t.Fatalf("report header: %+v", out)
	}
	for i := range in.Statuses {
		if out.Statuses[i] != in.Statuses[i] ||
			out.Reputations[i] != in.Reputations[i] ||
			out.Rewards[i] != in.Rewards[i] {
			t.Fatalf("report worker %d changed: %+v", i, out)
		}
	}
	if _, err := EncodeReport(Report{Statuses: make([]faults.UploadStatus, 2), Reputations: []float64{1}, Rewards: []float64{1, 2}}, CompressionNone); err == nil {
		t.Fatal("EncodeReport accepted mismatched shapes")
	}
	bad, err := EncodeReport(Report{
		Statuses:    []faults.UploadStatus{faults.StatusPending + 1},
		Reputations: []float64{1},
		Rewards:     []float64{1},
	}, CompressionNone)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeReport(bad); err == nil {
		t.Fatal("DecodeReport accepted a status past the known range")
	}
}

// TestLedgerRoundTrip covers the opaque ledger wrapper.
func TestLedgerRoundTrip(t *testing.T) {
	payload := []byte("FIFLCHN1 arbitrary export bytes \x00\x01\x02")
	b, err := EncodeLedger(payload)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeLedger(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != string(payload) {
		t.Fatalf("ledger payload changed: %q", out)
	}
	empty, err := EncodeLedger(nil)
	if err != nil {
		t.Fatal(err)
	}
	if out, err := DecodeLedger(empty); err != nil || len(out) != 0 {
		t.Fatalf("empty ledger round trip: %v, %v", out, err)
	}
}

// FuzzDecodeUpload proves the decoder never panics on adversarial bytes:
// whatever the input, DecodeUpload returns its reference's verdict (and,
// on accept, an equal-to-the-bit upload), and an accepted upload's
// gradient is entirely finite and re-encodes canonically.
func FuzzDecodeUpload(f *testing.F) {
	seed1, _ := EncodeUpload(Upload{Round: 1, Worker: 2, Samples: 3, Grad: []float64{0.5, -1.25}}, CompressionNone)
	seed2, _ := EncodeUpload(Upload{Round: 7, Worker: 0, Samples: 0, Grad: nil}, CompressionNone)
	seed3, _ := EncodeUpload(Upload{Round: 2, Worker: 9, Samples: 4, Grad: []float64{1e30, -1e-30, 0}}, CompressionF32)
	seed4, _ := EncodeHello(Hello{Worker: 1, Samples: 10})
	sparse := make([]float64, 40)
	sparse[3], sparse[17], sparse[31] = 2.5, -7, 0.125
	seed5, _ := EncodeUpload(Upload{Round: 5, Worker: 1, Samples: 8, Grad: sparse}, CompressionTopK)
	seed6, _ := EncodeUpload(Upload{Round: 6, Worker: 2, Samples: 9, Grad: []float64{1, -0.5, 0.25, 127}}, CompressionInt8)
	seed7, _ := EncodeUpload(Upload{Round: 8, Worker: 3, Samples: 11, Grad: []float64{3e4, -2.75, 0}}, CompressionInt16)
	f.Add(seed1)
	f.Add(seed2)
	f.Add(seed3)
	f.Add(seed4)
	f.Add(seed5)
	f.Add(seed6)
	f.Add(seed7)
	f.Add([]byte(Magic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		matchReference(t, "input", data, workerDecoders[1:2])
		u, err := DecodeUpload(data)
		if err != nil {
			return
		}
		for i, x := range u.Grad {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				t.Fatalf("decoder passed non-finite element %d: %v", i, x)
			}
		}
		// A decodable frame must re-encode (in its own mode) to bytes that
		// decode to an upload of the same shape.
		re, err := EncodeUpload(u, CompressionFromFlags(data[6]))
		if err != nil {
			t.Fatalf("re-encode of decoded upload failed: %v", err)
		}
		u2, err := DecodeUpload(re)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if u2.Round != u.Round || u2.Worker != u.Worker || u2.Samples != u.Samples || len(u2.Grad) != len(u.Grad) {
			t.Fatalf("re-decode changed the upload: %+v vs %+v", u2, u)
		}
	})
}
