package persist

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
)

// This file keeps the checkpoint decoder as it was before it was rebuilt
// on frame.Reader: Decode (renamed refDecode), its reader and the vector
// cap that reader enforced, copied verbatim. It is the verdict and value
// reference the shipped Decode is held to (FuzzReadCheckpoint,
// TestDecodeMatchesReference).

// maxVecElems caps a single declared vector length. Each element occupies
// at least one byte on the wire, so any honest prefix is also bounded by
// the remaining input; this cap just gives a crisp error before the
// per-field remaining-bytes check.
const maxVecElems = MaxSnapshotBytes / 8

// refDecode reconstructs a snapshot from its encoding. It is hardened for
// hostile input: the CRC is verified before any field is parsed, every
// length prefix is checked against the remaining bytes before allocation,
// non-finite floats are rejected, and no input can make it panic.
func refDecode(b []byte) (*Snapshot, error) {
	if len(b) < len(Magic)+crcSize {
		return nil, fmt.Errorf("persist: %d bytes is shorter than any checkpoint", len(b))
	}
	if string(b[:len(Magic)]) != Magic {
		return nil, fmt.Errorf("persist: bad checkpoint header %q", b[:len(Magic)])
	}
	body := b[:len(b)-crcSize]
	got := binary.LittleEndian.Uint32(b[len(b)-crcSize:])
	if want := crc32.ChecksumIEEE(body); got != want {
		return nil, fmt.Errorf("persist: checkpoint CRC mismatch (stored %#x, computed %#x)", got, want)
	}
	r := &reader{b: body, off: len(Magic)}
	s := &Snapshot{}
	nextRound, err := r.u64("next round")
	if err != nil {
		return nil, err
	}
	if nextRound > math.MaxInt32 {
		return nil, fmt.Errorf("persist: next round %d outside the supported range", nextRound)
	}
	s.NextRound = int(nextRound)
	if s.Params, err = r.f64s("params"); err != nil {
		return nil, err
	}
	if s.Reputations, err = r.f64s("reputations"); err != nil {
		return nil, err
	}
	if s.PosCounts, err = r.i64s("positive counts"); err != nil {
		return nil, err
	}
	if s.NegCounts, err = r.i64s("negative counts"); err != nil {
		return nil, err
	}
	if s.UncCounts, err = r.i64s("uncertain counts"); err != nil {
		return nil, err
	}
	if s.Cumulative, err = r.f64s("cumulative rewards"); err != nil {
		return nil, err
	}
	if s.Banned, err = r.ints("banned set"); err != nil {
		return nil, err
	}
	if s.Servers, err = r.ints("server cluster"); err != nil {
		return nil, err
	}
	bhInit, err := r.byte("b_h flag")
	if err != nil {
		return nil, err
	}
	if bhInit > 1 {
		return nil, fmt.Errorf("persist: b_h flag byte %d is not a bool", bhInit)
	}
	s.BHInitialized = bhInit == 1
	bhBits, err := r.u64("b_h value")
	if err != nil {
		return nil, err
	}
	s.BHValue = math.Float64frombits(bhBits)
	if s.EngineDraws, err = r.u64("engine draws"); err != nil {
		return nil, err
	}
	if s.MechDraws, err = r.u64("mechanism draws"); err != nil {
		return nil, err
	}
	if s.WorkerDraws, err = r.u64s("worker draws"); err != nil {
		return nil, err
	}
	if s.Samples, err = r.ints("samples"); err != nil {
		return nil, err
	}
	ledgerLen, err := r.u32("ledger length")
	if err != nil {
		return nil, err
	}
	ledger, err := r.bytes(int(ledgerLen), "ledger export")
	if err != nil {
		return nil, err
	}
	s.Ledger = append([]byte(nil), ledger...)
	asyncFlag, err := r.byte("async flag")
	if err != nil {
		return nil, err
	}
	switch asyncFlag {
	case 0:
	case 1:
		a := &AsyncState{}
		if a.HistRounds, err = r.i64s("async history rounds"); err != nil {
			return nil, err
		}
		histLen, err := r.vecLen(4, "async history params")
		if err != nil {
			return nil, err
		}
		a.HistParams = make([][]float64, histLen)
		for i := range a.HistParams {
			if a.HistParams[i], err = r.f64s("async history params"); err != nil {
				return nil, err
			}
		}
		pendLen, err := r.vecLen(28, "async pending uploads")
		if err != nil {
			return nil, err
		}
		a.Pending = make([]AsyncUpload, pendLen)
		for i := range a.Pending {
			p := &a.Pending[i]
			for _, f := range []struct {
				name string
				dst  *int
			}{
				{"async pending worker", &p.Worker},
				{"async pending round", &p.TrainedRound},
				{"async pending samples", &p.Samples},
			} {
				v, err := r.u64(f.name)
				if err != nil {
					return nil, err
				}
				if v > math.MaxInt32 {
					return nil, fmt.Errorf("persist: %s %d outside the supported range", f.name, v)
				}
				*f.dst = int(v)
			}
			if p.Grad, err = r.f64s("async pending gradient"); err != nil {
				return nil, err
			}
		}
		s.Async = a
	default:
		return nil, fmt.Errorf("persist: async flag byte %d is not a bool", asyncFlag)
	}
	shardLen, err := r.vecLen(36, "shard sections")
	if err != nil {
		return nil, err
	}
	if shardLen > 0 {
		s.Shards = make([]ShardState, shardLen)
		for i := range s.Shards {
			sh := &s.Shards[i]
			for _, f := range []struct {
				name string
				dst  *int
			}{
				{"shard first worker", &sh.First},
				{"shard cohort size", &sh.Count},
				{"shard directive cursor", &sh.LastSeq},
			} {
				v, err := r.u64(f.name)
				if err != nil {
					return nil, err
				}
				if v > math.MaxInt32 {
					return nil, fmt.Errorf("persist: %s %d outside the supported range", f.name, v)
				}
				*f.dst = int(v)
			}
			if sh.EngineDraws, err = r.u64("shard engine draws"); err != nil {
				return nil, err
			}
			if sh.WorkerDraws, err = r.u64s("shard worker draws"); err != nil {
				return nil, err
			}
		}
	}
	statesLen, err := r.vecLen(1, "lifecycle states")
	if err != nil {
		return nil, err
	}
	if statesLen > 0 {
		states, err := r.bytes(statesLen, "lifecycle states")
		if err != nil {
			return nil, err
		}
		s.LifecycleStates = append([]uint8(nil), states...)
	}
	if s.ActiveCohort, err = r.ints("active cohort"); err != nil {
		return nil, err
	}
	if len(s.ActiveCohort) == 0 {
		s.ActiveCohort = nil
	}
	if r.remaining() != 0 {
		return nil, fmt.Errorf("persist: %d trailing bytes after checkpoint body", r.remaining())
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// reader consumes a CRC-verified checkpoint body with bounds checking.
type reader struct {
	b   []byte
	off int
}

func (r *reader) remaining() int { return len(r.b) - r.off }

func (r *reader) bytes(n int, field string) ([]byte, error) {
	if n < 0 || r.remaining() < n {
		return nil, fmt.Errorf("persist: %s declares %d bytes, only %d remain", field, n, r.remaining())
	}
	out := r.b[r.off : r.off+n]
	r.off += n
	return out, nil
}

func (r *reader) byte(field string) (byte, error) {
	b, err := r.bytes(1, field)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

func (r *reader) u32(field string) (uint32, error) {
	b, err := r.bytes(4, field)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (r *reader) u64(field string) (uint64, error) {
	b, err := r.bytes(8, field)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

// vecLen reads and bounds-checks a vector length prefix for elemSize-byte
// elements.
func (r *reader) vecLen(elemSize int, field string) (int, error) {
	count, err := r.u32(field)
	if err != nil {
		return 0, err
	}
	if int64(count) > maxVecElems {
		return 0, fmt.Errorf("persist: %s declares %d elements, cap is %d", field, count, int64(maxVecElems))
	}
	if int64(count)*int64(elemSize) > int64(r.remaining()) {
		return 0, fmt.Errorf("persist: %s declares %d elements, only %d bytes remain", field, count, r.remaining())
	}
	return int(count), nil
}

func (r *reader) f64s(field string) ([]float64, error) {
	n, err := r.vecLen(8, field)
	if err != nil {
		return nil, err
	}
	out := make([]float64, n)
	for i := range out {
		v, err := r.u64(field)
		if err != nil {
			return nil, err
		}
		out[i] = math.Float64frombits(v)
	}
	return out, nil
}

func (r *reader) i64s(field string) ([]int64, error) {
	n, err := r.vecLen(8, field)
	if err != nil {
		return nil, err
	}
	out := make([]int64, n)
	for i := range out {
		v, err := r.u64(field)
		if err != nil {
			return nil, err
		}
		out[i] = int64(v)
	}
	return out, nil
}

func (r *reader) u64s(field string) ([]uint64, error) {
	n, err := r.vecLen(8, field)
	if err != nil {
		return nil, err
	}
	out := make([]uint64, n)
	for i := range out {
		v, err := r.u64(field)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

func (r *reader) ints(field string) ([]int, error) {
	n, err := r.vecLen(8, field)
	if err != nil {
		return nil, err
	}
	out := make([]int, n)
	for i := range out {
		v, err := r.u64(field)
		if err != nil {
			return nil, err
		}
		if v > math.MaxInt32 {
			return nil, fmt.Errorf("persist: %s element %d (%d) outside the supported range", field, i, v)
		}
		out[i] = int(v)
	}
	return out, nil
}
