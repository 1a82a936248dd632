package persist

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"reflect"
	"testing"
)

// churnedAsync returns a snapshot carrying every optional section but the
// shard one: async history and pending uploads, lifecycle states and an
// active cohort.
func churnedAsync() *Snapshot {
	s := sample()
	s.Shards = nil
	s.LifecycleStates = []uint8{stateActive, stateBanned, stateActive}
	s.ActiveCohort = []int{2, 0}
	s.Async = &AsyncState{
		HistRounds: []int64{2, 3},
		HistParams: [][]float64{{1, 2, 3, 4}, {5, 6, 7, 8}},
		Pending:    []AsyncUpload{{Worker: 2, TrainedRound: 3, Samples: 60, Grad: []float64{0.5, -0.5, 0, 1}}},
	}
	return s
}

// deepSnapshot is a checkpoint of the deep benchmark model's size.
func deepSnapshot() *Snapshot {
	s := sample()
	s.Params = make([]float64, 78378)
	for i := range s.Params {
		s.Params[i] = math.Sin(float64(i))
	}
	return s
}

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

// matchReference holds Decode to refDecode (reference_test.go) on data:
// the same verdict, and an equal-to-the-bit snapshot on accept.
func matchReference(t *testing.T, label string, data []byte) {
	t.Helper()
	s, err := Decode(data)
	ref, refErr := refDecode(data)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("%s: error %v, reference %v", label, err, refErr)
	}
	if err == nil && !sameValue(reflect.ValueOf(s), reflect.ValueOf(ref)) {
		t.Fatalf("%s: %+v, reference %+v", label, s, ref)
	}
}

// sealed returns body followed by its CRC, so a mutation reaches the
// field parser instead of the CRC check.
func sealed(body []byte) []byte {
	out := append([]byte(nil), body...)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
}

// TestDecodeMatchesReference holds Decode to the per-field decoder it
// replaced on each fixture checkpoint, on every truncation and one-byte
// extension of its body, and on every body byte set to 0x00, 0x01, 0x02,
// 0x7f, 0xff and its own bit complement — each resealed, so the field
// parser sees it — plus a deep-model checkpoint whole.
func TestDecodeMatchesReference(t *testing.T) {
	noLedger := sample()
	noLedger.Ledger = nil
	for name, s := range map[string]*Snapshot{"sharded": sample(), "async and churned": churnedAsync(), "no ledger": noLedger, "empty": {}} {
		good, err := Encode(s)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		body := good[:len(good)-crcSize]
		matchReference(t, name, good)
		for n := len(Magic); n <= len(body); n++ {
			matchReference(t, fmt.Sprintf("%s cut to %d", name, n), sealed(body[:n]))
		}
		matchReference(t, name+" extended", sealed(append(body[:len(body):len(body)], 0)))
		for i := len(Magic); i < len(body); i++ {
			for _, v := range []byte{0x00, 0x01, 0x02, 0x7f, 0xff, ^body[i]} {
				bad := append([]byte(nil), body...)
				bad[i] = v
				matchReference(t, fmt.Sprintf("%s byte %d = %#x", name, i, v), sealed(bad))
			}
		}
	}
	deep, err := Encode(deepSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	matchReference(t, "deep", deep)
}

// TestDecodeAllocsNoHigherThanReference: the shared reader costs no
// allocation the per-field reader did not.
func TestDecodeAllocsNoHigherThanReference(t *testing.T) {
	b, err := Encode(deepSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	var refErr error
	got := testing.AllocsPerRun(20, func() { _, err = Decode(b) })
	want := testing.AllocsPerRun(20, func() { _, refErr = refDecode(b) })
	if err != nil || refErr != nil {
		t.Fatalf("Decode: %v, reference %v", err, refErr)
	}
	t.Logf("Decode: %.0f allocations, reference %.0f", got, want)
	if got > want {
		t.Fatalf("Decode: %.0f allocations, reference %.0f", got, want)
	}
}

func BenchmarkDecode(b *testing.B) {
	ckpt, err := Encode(deepSnapshot())
	if err != nil {
		b.Fatal(err)
	}
	for _, side := range []struct {
		name   string
		decode func([]byte) (*Snapshot, error)
	}{{"shipped", Decode}, {"reference", refDecode}} {
		b.Run(side.name, func(b *testing.B) {
			b.SetBytes(int64(len(ckpt)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := side.decode(ckpt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
