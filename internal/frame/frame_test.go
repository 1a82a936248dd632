package frame

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// seal appends the CRC Open verifies.
func seal(b []byte) []byte {
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

func TestOpenVerifiesChecksum(t *testing.T) {
	good := seal([]byte("HDR\x07"))
	r := Open(good, 3, "test")
	if v := r.Byte("payload"); v != 7 || r.Done() != nil {
		t.Fatalf("read %d, %v from a sealed buffer", v, r.Done())
	}
	bad := append([]byte(nil), good...)
	bad[3] ^= 1
	for name, b := range map[string][]byte{"flipped": bad, "short": good[:5], "empty": nil} {
		r := Open(b, 3, "test")
		if err := r.Done(); err == nil || !strings.HasPrefix(err.Error(), "test: ") {
			t.Fatalf("%s buffer opened with error %v", name, err)
		}
	}
}

// TestStickyFirstError: after a failure every read returns zero and
// consumes nothing, and Done reports the first failure, not a later one
// and not the unread bytes.
func TestStickyFirstError(t *testing.T) {
	b := binary.LittleEndian.AppendUint32(nil, 5)
	b = append(b, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1)
	r := Reader{b: b, prefix: "test"}
	if v := r.U32("first"); v != 5 {
		t.Fatalf("first field %d, want 5", v)
	}
	if r.Bool("flag") || r.Err() == nil {
		t.Fatal("byte 2 read as a bool")
	}
	first := r.Err()
	if v := r.U32("after"); v != 0 {
		t.Fatalf("read %d after a failure", v)
	}
	if v := r.Float64s("after"); len(v) != 0 {
		t.Fatalf("read %v after a failure", v)
	}
	r.Failf("a later failure")
	if r.off != 5 || r.Done() != first {
		t.Fatalf("offset %d and error %v after the failure, want 5 and %v", r.off, r.Done(), first)
	}
}

// TestCountChecksBeforeAllocating: a count that the remaining bytes cannot
// back fails without allocating for it.
func TestCountChecksBeforeAllocating(t *testing.T) {
	b := binary.LittleEndian.AppendUint32(nil, math.MaxUint32)
	b = append(b, make([]byte, 64)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r := Reader{b: b, prefix: "test"}
	v := r.Float64s("huge")
	runtime.ReadMemStats(&after)
	if len(v) != 0 || r.Err() == nil {
		t.Fatalf("a %d-element count over 64 bytes decoded to %d elements, error %v", uint32(math.MaxUint32), len(v), r.Err())
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("a rejected count allocated %d bytes", grew)
	}

	// Callers size slices of records from Count, so the rule is count ×
	// size, not count alone: 2 records of 28 bytes fit in 64, 3 do not.
	for count, want := range map[uint32]int{2: 2, 3: 0} {
		r := Reader{b: append(binary.LittleEndian.AppendUint32(nil, count), make([]byte, 64)...), prefix: "test"}
		if got := r.Count(28, "records"); got != want || (want == 0) != (r.Err() != nil) {
			t.Fatalf("Count(28) of %d over 64 bytes = %d, error %v; want %d", count, got, r.Err(), want)
		}
	}
}

func TestLists(t *testing.T) {
	var b []byte
	u64s := func(vs ...uint64) {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(vs)))
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, v)
		}
	}
	u64s(math.Float64bits(-0.5), math.Float64bits(math.Inf(1)))
	u64s(1<<63, 7)
	u64s(3, math.MaxInt32)
	b = binary.LittleEndian.AppendUint32(b, 2)
	b = binary.LittleEndian.AppendUint32(b, 9)
	b = binary.LittleEndian.AppendUint32(b, math.MaxUint32)
	b = append(b, 1, 0, 1)
	r := Reader{b: b, prefix: "test"}
	if got := r.Float64s("f"); math.Float64bits(got[0]) != math.Float64bits(-0.5) || !math.IsInf(got[1], 1) {
		t.Fatalf("Float64s = %v", got)
	}
	if got := r.Int64s("i"); !reflect.DeepEqual(got, []int64{math.MinInt64, 7}) {
		t.Fatalf("Int64s = %v", got)
	}
	if got := r.Ints("n"); !reflect.DeepEqual(got, []int{3, math.MaxInt32}) {
		t.Fatalf("Ints = %v", got)
	}
	if got := r.Uint32s("u"); !reflect.DeepEqual(got, []int{9, math.MaxUint32}) {
		t.Fatalf("Uint32s = %v", got)
	}
	if got := r.Bools(3, "b"); !reflect.DeepEqual(got, []bool{true, false, true}) {
		t.Fatalf("Bools = %v", got)
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}

	over := Reader{b: binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint32(nil, 1), math.MaxInt32+1), prefix: "test"}
	if got := over.Ints("n"); got != nil || over.Err() == nil {
		t.Fatalf("an element past int32 read as %v, error %v", got, over.Err())
	}
	trailing := Reader{b: []byte{0, 0}, prefix: "test"}
	trailing.Byte("one")
	if err := trailing.Done(); err == nil {
		t.Fatal("a trailing byte passed Done")
	}
}
