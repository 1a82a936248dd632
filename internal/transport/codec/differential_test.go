package codec

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"reflect"
	"testing"

	"fifl/internal/faults"
	"fifl/internal/rng"
)

// decoder pairs a shipped decoder with its reference (reference_test.go).
type decoder struct {
	name      string
	got, want func([]byte) (any, error)
}

func pair[T any](name string, got, want func([]byte) (T, error)) decoder {
	wrap := func(f func([]byte) (T, error)) func([]byte) (any, error) {
		return func(b []byte) (any, error) { return f(b) }
	}
	return decoder{name: name, got: wrap(got), want: wrap(want)}
}

var (
	workerDecoders = []decoder{
		pair("hello", DecodeHello, refDecodeHello),
		pair("upload", DecodeUpload, refDecodeUpload),
		pair("model", DecodeModel, refDecodeModel),
		pair("report", DecodeReport, refDecodeReport),
		pair("ledger", DecodeLedger, refDecodeLedger),
	}
	shardDecoders = []decoder{
		pair("shard submit", DecodeShardSubmit, refDecodeShardSubmit),
		pair("shard directive", DecodeShardDirective, refDecodeShardDirective),
	}
)

// sameValue reports whether two decoded values are equal to the bit:
// floats compare by their bits, slices by nil-ness, length and elements,
// pointers by what they point at.
func sameValue(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for i := range a.Len() {
			if !sameValue(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return sameValue(a.Elem(), b.Elem())
	case reflect.Struct:
		for i := range a.NumField() {
			if !sameValue(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	default:
		return a.Interface() == b.Interface()
	}
}

// matchReference runs data through every decoder and its reference: the
// verdicts must agree, and an accepted value must be equal to the bit.
func matchReference(t *testing.T, label string, data []byte, decoders []decoder) {
	t.Helper()
	for _, d := range decoders {
		v, err := d.got(data)
		rv, refErr := d.want(data)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("%s, %s decoder: error %v, reference %v", label, d.name, err, refErr)
		}
		if err == nil && !sameValue(reflect.ValueOf(v), reflect.ValueOf(rv)) {
			t.Fatalf("%s, %s decoder: %+v, reference %+v", label, d.name, v, rv)
		}
	}
}

// sealed returns body followed by its CRC: a frame whose checksum holds,
// so a mutation reaches the field parser instead of the CRC check.
func sealed(body []byte) []byte {
	out := append([]byte(nil), body...)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
}

// workerFrameFixtures encodes every worker-protocol frame type in every
// compression mode, at sizes from empty to 40 elements.
func workerFrameFixtures(t testing.TB) [][]byte {
	src := rng.New(29)
	var frames [][]byte
	add := func(b []byte, err error) {
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, b)
	}
	add(EncodeHello(Hello{Worker: 3, Samples: 120}))
	add(EncodeLedger(nil))
	add(EncodeLedger([]byte("FIFLCHN1 opaque export bytes")))
	add(EncodeModel(Model{Round: 9, Done: true}, CompressionNone))
	for _, dim := range []int{0, 1, 11, 40} {
		v := boundedVec(src, dim)
		statuses := make([]faults.UploadStatus, dim)
		for i := range statuses {
			statuses[i] = faults.UploadStatus(i % int(faults.StatusPending+1))
		}
		for mode := range compressionNames {
			c := Compression(mode)
			add(EncodeUpload(Upload{Round: 2, Worker: 1, Samples: 40, Grad: v}, c))
			add(EncodeModel(Model{Round: 2, Params: v}, c))
			add(EncodeReport(Report{Round: 2, Committed: dim%2 == 0, Statuses: statuses, Reputations: v, Rewards: v}, c))
		}
	}
	return frames
}

// shardFrameFixtures encodes every shard fixture frame.
func shardFrameFixtures(t testing.TB) [][]byte {
	var frames [][]byte
	for _, s := range shardSubmitFixtures() {
		b, err := EncodeShardSubmit(s)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, b)
	}
	for _, d := range shardDirectiveFixtures() {
		b, err := EncodeShardDirective(d)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, b)
	}
	return frames
}

// TestDecodersMatchReference holds every decoder to its reference on each
// fixture frame, on every truncation and one-byte extension of its body,
// and on every body byte set to 0x00, 0x01, 0x02, 0x7f, 0xff and its own
// bit complement — each resealed, so the field parser sees it — plus the
// deep-model shard frames whole.
func TestDecodersMatchReference(t *testing.T) {
	all := append(workerDecoders, shardDecoders...)
	frames := append(workerFrameFixtures(t), shardFrameFixtures(t)...)
	for fi, good := range frames {
		body := good[:len(good)-crcSize]
		matchReference(t, fmt.Sprintf("frame %d", fi), good, all)
		for n := headerSize; n <= len(body); n++ {
			matchReference(t, fmt.Sprintf("frame %d cut to %d", fi, n), sealed(body[:n]), all)
		}
		matchReference(t, fmt.Sprintf("frame %d extended", fi), sealed(append(body[:len(body):len(body)], 0)), all)
		for i := headerSize; i < len(body); i++ {
			for _, v := range []byte{0x00, 0x01, 0x02, 0x7f, 0xff, ^body[i]} {
				bad := append([]byte(nil), body...)
				bad[i] = v
				matchReference(t, fmt.Sprintf("frame %d byte %d = %#x", fi, i, v), sealed(bad), all)
			}
		}
	}
	for _, frame := range []func() ([]byte, error){
		func() ([]byte, error) { return EncodeShardSubmit(deepDetectSubmit()) },
		func() ([]byte, error) { return EncodeShardDirective(deepDetectDirective()) },
	} {
		b, err := frame()
		if err != nil {
			t.Fatal(err)
		}
		matchReference(t, "deep frame", b, shardDecoders)
	}
}

// FuzzDecodeWorkerFrames feeds hostile bytes to the hello, upload, model,
// report and ledger decoders, seeded with every worker-protocol fixture in
// every compression mode: each decoder must return its reference's
// verdict, and an equal-to-the-bit value whenever it accepts.
func FuzzDecodeWorkerFrames(f *testing.F) {
	for _, b := range workerFrameFixtures(f) {
		f.Add(b)
	}
	f.Add([]byte(Magic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		matchReference(t, "input", data, workerDecoders)
	})
}

// TestDecodeAllocsNoHigherThanReference: the shared reader costs no
// allocation the per-field reader did not.
func TestDecodeAllocsNoHigherThanReference(t *testing.T) {
	src := rng.New(31)
	params := boundedVec(src, deepDim)
	upload, err := EncodeUpload(Upload{Round: 1, Worker: 2, Samples: 3, Grad: params}, CompressionNone)
	if err != nil {
		t.Fatal(err)
	}
	model, err := EncodeModel(Model{Round: 1, Params: params}, CompressionNone)
	if err != nil {
		t.Fatal(err)
	}
	submit, err := EncodeShardSubmit(deepDetectSubmit())
	if err != nil {
		t.Fatal(err)
	}
	directive, err := EncodeShardDirective(deepDetectDirective())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		frame []byte
		d     decoder
	}{
		{upload, workerDecoders[1]},
		{model, workerDecoders[2]},
		{submit, shardDecoders[0]},
		{directive, shardDecoders[1]},
	} {
		var err, refErr error
		got := testing.AllocsPerRun(20, func() { _, err = tc.d.got(tc.frame) })
		want := testing.AllocsPerRun(20, func() { _, refErr = tc.d.want(tc.frame) })
		if err != nil || refErr != nil {
			t.Fatalf("%s: %v, reference %v", tc.d.name, err, refErr)
		}
		t.Logf("%s: %.0f allocations, reference %.0f", tc.d.name, got, want)
		if got > want {
			t.Errorf("%s: %.0f allocations, reference %.0f", tc.d.name, got, want)
		}
	}
}

func BenchmarkDecode(b *testing.B) {
	upload, err := EncodeUpload(Upload{Round: 1, Grad: boundedVec(rng.New(33), deepDim)}, CompressionNone)
	if err != nil {
		b.Fatal(err)
	}
	submit, err := EncodeShardSubmit(deepDetectSubmit())
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		frame []byte
		d     decoder
	}{
		{upload, workerDecoders[1]},
		{submit, shardDecoders[0]},
	} {
		for _, side := range []struct {
			name   string
			decode func([]byte) (any, error)
		}{{"shipped", tc.d.got}, {"reference", tc.d.want}} {
			b.Run(tc.d.name+"/"+side.name, func(b *testing.B) {
				b.SetBytes(int64(len(tc.frame)))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := side.decode(tc.frame); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
