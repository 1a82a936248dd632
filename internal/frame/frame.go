// Package frame is the hardening every binary decoder in this module
// shares: ReadFrame, the bounded read of a body off the network or disk,
// and Reader, the bounds-checked parser of a buffer whose checksum has
// been verified. The wire codec (internal/transport/codec) and the
// checkpoint codec (internal/persist) decode through it; neither keeps a
// reader of its own.
//
// A Reader is a value that a decoder keeps on its stack. Its first error
// is sticky: after a failure every read returns the zero value and
// consumes nothing, so a decoder reads its whole layout straight through
// and checks once, at Done. Every length prefix is checked before
// anything is allocated — count elements of size bytes each must fit in
// the bytes that remain — so no input makes a decoder allocate more than
// a small multiple of its own length. Lists decode with one bounds check
// and one loop.
//
// chain's exportReader stays separate on purpose: it streams a ledger
// export of unknown length from an io.Reader in bounded memory, which a
// reader over a buffer already in hand cannot do.
package frame

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
)

// crcSize is the trailing CRC-32 that Open verifies.
const crcSize = 4

// Reader parses a verified buffer front to back. The zero Reader reads
// an empty buffer.
type Reader struct {
	b      []byte
	off    int
	err    error
	prefix string // names the decoding package in error messages
}

// Open verifies b's trailing CRC-32 (IEEE, little-endian, over every byte
// before it) and returns a Reader over the bytes between the first skip
// bytes and the checksum. A mismatch, or a b too short to hold skip bytes
// and a checksum, is the Reader's error. prefix opens every error
// message, e.g. "codec".
func Open(b []byte, skip int, prefix string) Reader {
	r := Reader{prefix: prefix}
	if len(b) < skip+crcSize {
		r.Failf("%d bytes cannot hold a %d-byte header and a checksum", len(b), skip)
		return r
	}
	body := b[:len(b)-crcSize]
	stored := binary.LittleEndian.Uint32(b[len(body):])
	if sum := crc32.ChecksumIEEE(body); stored != sum {
		r.Failf("CRC mismatch (stored %#x, computed %#x)", stored, sum)
		return r
	}
	r.b = body[skip:]
	return r
}

// Err returns the first failure, or nil.
func (r *Reader) Err() error { return r.err }

// Fail records err as the Reader's failure unless one is already
// recorded.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Failf records a formatted failure, prefixed with the Reader's package
// name, unless one is already recorded. Decoders report the semantic
// checks of their own layouts through it.
func (r *Reader) Failf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%s: %s", r.prefix, fmt.Sprintf(format, args...))
	}
}

// Done returns the first failure, or an error if any byte is left unread.
func (r *Reader) Done() error {
	if r.err == nil && r.off != len(r.b) {
		r.Failf("%d trailing bytes", len(r.b)-r.off)
	}
	return r.err
}

// Bytes consumes the next n bytes and returns them without copying.
func (r *Reader) Bytes(n int, field string) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.b)-r.off {
		r.Failf("%s needs %d bytes, only %d remain", field, n, len(r.b)-r.off)
		return nil
	}
	out := r.b[r.off : r.off+n : r.off+n]
	r.off += n
	return out
}

// Byte consumes one byte.
func (r *Reader) Byte(field string) byte {
	if b := r.Bytes(1, field); b != nil {
		return b[0]
	}
	return 0
}

// Bool consumes one byte that must be 0 or 1.
func (r *Reader) Bool(field string) bool {
	v := r.Byte(field)
	if v > 1 {
		r.Failf("%s byte %d is not a bool", field, v)
	}
	return v == 1
}

// U32 consumes a little-endian uint32.
func (r *Reader) U32(field string) uint32 {
	if b := r.Bytes(4, field); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// U64 consumes a little-endian uint64.
func (r *Reader) U64(field string) uint64 {
	if b := r.Bytes(8, field); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// Int consumes a uint64 that must fit in an int32.
func (r *Reader) Int(field string) int {
	v := r.U64(field)
	if v > math.MaxInt32 {
		r.Failf("%s %d outside the supported range", field, v)
		return 0
	}
	return int(v)
}

// Count consumes a uint32 element count and checks that count elements of
// size bytes each fit in the bytes that remain.
func (r *Reader) Count(size int, field string) int {
	n := int64(r.U32(field))
	if rem := int64(len(r.b) - r.off); n*int64(size) > rem {
		r.Failf("%s declares %d elements of %d bytes, only %d bytes remain", field, n, size, rem)
		return 0
	}
	return int(n)
}

// Float64s consumes a counted list of float64s (bit patterns, not checked
// for finiteness).
func (r *Reader) Float64s(field string) []float64 {
	raw := r.Bytes(8*r.Count(8, field), field)
	out := make([]float64, len(raw)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	return out
}

// Int64s consumes a counted list of int64s.
func (r *Reader) Int64s(field string) []int64 {
	raw := r.Bytes(8*r.Count(8, field), field)
	out := make([]int64, len(raw)/8)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	return out
}

// Uint64s consumes a counted list of uint64s.
func (r *Reader) Uint64s(field string) []uint64 {
	raw := r.Bytes(8*r.Count(8, field), field)
	out := make([]uint64, len(raw)/8)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(raw[8*i:])
	}
	return out
}

// Ints consumes a counted list of uint64s that must each fit in an int32.
func (r *Reader) Ints(field string) []int {
	raw := r.Bytes(8*r.Count(8, field), field)
	out := make([]int, len(raw)/8)
	for i := range out {
		v := binary.LittleEndian.Uint64(raw[8*i:])
		if v > math.MaxInt32 {
			r.Failf("%s element %d (%d) outside the supported range", field, i, v)
			return nil
		}
		out[i] = int(v)
	}
	return out
}

// Uint32s consumes a counted list of uint32s, widened to int.
func (r *Reader) Uint32s(field string) []int {
	raw := r.Bytes(4*r.Count(4, field), field)
	out := make([]int, len(raw)/4)
	for i := range out {
		out[i] = int(binary.LittleEndian.Uint32(raw[4*i:]))
	}
	return out
}

// Bools consumes n bytes that must each be 0 or 1.
func (r *Reader) Bools(n int, field string) []bool {
	raw := r.Bytes(n, field)
	out := make([]bool, len(raw))
	for i, v := range raw {
		if v > 1 {
			r.Failf("%s byte %d is %d, not a bool", field, i, v)
			return nil
		}
		out[i] = v == 1
	}
	return out
}
