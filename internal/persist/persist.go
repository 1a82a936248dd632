// Package persist implements durable checkpointing for a FIFL federation:
// a deterministic, versioned, CRC-framed binary snapshot of the full
// coordinator state, and atomic file persistence (write-temp → fsync →
// rename) so a crash can never leave a half-written checkpoint behind.
//
// The snapshot captures everything the coordinator accumulates across
// rounds — the global model parameters, the Eq. 10 decayed reputations and
// the SLM period counters of Eq. 8–9, cumulative rewards, the banned
// executor set, the current server cluster, the smoothed b_h threshold
// state, the RNG stream positions of the engine and (resumable) workers,
// and the audit ledger via chain.WriteBinary. Restoring it into a freshly
// rebuilt federation continues the run bit for bit, the same equivalence
// bar the wire transport holds against the in-process engine.
//
// Snapshots must only be taken between rounds (after a commit): mid-round
// state lives in worker goroutines, hub mailboxes and the collection
// fan-out, none of which can be captured consistently. The coordinator's
// Checkpoint method enforces this by construction — it serializes only the
// committed inter-round state.
//
// The encoding is little-endian throughout and ends in a CRC32 (IEEE) over
// the whole snapshot, checked before any field is parsed. Decode reads the
// body through internal/frame's Reader, the one the wire codec uses: every
// length prefix is checked against the remaining input before allocation,
// and the first error is kept, so the decoder checks once, after the last
// field. Non-finite floats are rejected on both encode and decode. Decode
// never panics; FuzzReadCheckpoint holds it to the verdict and value of
// the per-field decoder it replaced (reference_test.go).
package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"

	"fifl/internal/frame"
)

// Magic opens every checkpoint and carries the format version; an
// incompatible change to the layout below must bump the trailing digit.
// Version 2 added MechDraws (the reward mechanism's RNG stream position)
// after EngineDraws. Version 3 appended the optional async-collector
// state (flag byte + AsyncState) after the ledger export. Version 4
// appended the per-shard sections of a hierarchical run (count + one
// ShardState each) after the async section. Version 5 appended the
// membership registry (per-ID lifecycle states + the active cohort in
// slot order) after the shard sections, and re-keyed every per-worker
// field by stable worker ID — a federation that churned knows more
// identities than it currently seats.
const Magic = "FIFLCKP5"

// MaxSnapshotBytes bounds one checkpoint read. The dominant terms are the
// model parameters and the ledger export; 1 GiB accommodates the largest
// federation this repo trains with two orders of magnitude of slack while
// keeping a corrupted length field from buffering unbounded input.
const MaxSnapshotBytes = 1 << 30

// crcSize trails every snapshot.
const crcSize = 4

// Snapshot is the complete inter-round coordinator state. It is pure
// data — the core package converts to and from live objects.
type Snapshot struct {
	// NextRound is the first round the resumed run should execute: one
	// past the last committed round (0 for a checkpoint of a coordinator
	// that has not run any round yet).
	NextRound int
	// Params is the global model parameter vector θ_t.
	Params []float64
	// Reputations holds the decayed Eq. 10 reputations R_i(t).
	Reputations []float64
	// PosCounts, NegCounts, UncCounts are the SLM period counters of
	// Eq. 8–9 (positive, negative, uncertain events per worker).
	PosCounts, NegCounts, UncCounts []int64
	// Cumulative is each worker's running reward total.
	Cumulative []float64
	// Banned lists the worker indices excluded by the audit, ascending.
	Banned []int
	// Servers is the current server cluster (worker indices) that will
	// execute the next round.
	Servers []int
	// BHInitialized/BHValue carry the exponential moving average of the
	// b_h contribution threshold (EXPERIMENTS finding 3).
	BHInitialized bool
	BHValue       float64
	// EngineDraws is the engine's fault/retry RNG stream position.
	EngineDraws uint64
	// MechDraws is the reward mechanism's private RNG stream position
	// (core.ResumableMechanism), 0 for deterministic mechanisms.
	MechDraws uint64
	// WorkerDraws is each worker's training RNG stream position (0 for
	// workers that do not expose one, e.g. remote transport stubs whose
	// real state lives in the worker process).
	WorkerDraws []uint64
	// Samples is each worker's registered dataset size; a restarted
	// transport hub is reseeded from it so reconnecting workers are
	// already known. Zero marks a worker that never registered.
	Samples []int
	// Ledger is the audit chain's deterministic binary export
	// (chain.WriteBinary), empty when the run kept no ledger.
	Ledger []byte
	// Async carries the bounded-staleness collector's inter-round state —
	// the recent-model history stale submissions train against and the
	// uploads accepted but not yet folded into an advance. nil for
	// synchronous runs.
	Async *AsyncState
	// Shards carries one section per edge aggregator of a hierarchical
	// (sharded) run, in shard order; empty for flat runs. The root
	// coordinator's own fields above describe the virtual-worker view
	// (worker draws all zero — the real streams live at the edges), and
	// each shard section restores its cohort engine independently.
	Shards []ShardState
	// LifecycleStates is the membership registry: one state byte per
	// stable worker ID (core.LifecycleState values — 0 joining, 1 active,
	// 2 departed, 3 banned). Every per-worker field above is indexed by
	// worker ID over the same range; departed and banned identities keep
	// their reputation/counter/reward entries and carry zero Samples and
	// WorkerDraws. Empty means the fixed-cohort identity registry (every
	// worker active, slot == ID).
	LifecycleStates []uint8
	// ActiveCohort lists the currently seated worker IDs in cohort slot
	// order; empty together with LifecycleStates for fixed cohorts.
	ActiveCohort []int
}

// Lifecycle state bytes the registry section may carry; the values mirror
// core's LifecycleState constants and are part of the format.
const (
	stateJoining  = 0
	stateActive   = 1
	stateDeparted = 2
	stateBanned   = 3
)

// ShardState is one edge aggregator's inter-round state in a sharded
// run: which cohort it owns, how far its directive cursor advanced, and
// the RNG stream positions of its cohort engine and workers.
type ShardState struct {
	// First is the global index of the cohort's first worker; Count the
	// cohort size — [First, First+Count) in shard order must tile the
	// federation without gaps or overlap.
	First, Count int
	// LastSeq is the highest directive sequence number the shard had
	// processed when the checkpoint was taken (Aggregator.LastSeq). It is
	// a record, not a resume point: a restart replays a fresh directive
	// stream and ignores it.
	LastSeq int
	// EngineDraws is the cohort engine's fault/retry RNG stream position.
	EngineDraws uint64
	// WorkerDraws is each cohort worker's training RNG stream position,
	// in cohort order (len == Count).
	WorkerDraws []uint64
}

// AsyncState is the inter-round state of an async bounded-staleness
// collector. Kill-and-resume stays bit-identical only if the resumed
// collector sees the same model history and the same pending fold the
// interrupted one held.
type AsyncState struct {
	// HistRounds lists the advance indices whose parameter vectors are
	// retained for stale training, strictly ascending; HistParams[i] is
	// the model of advance HistRounds[i].
	HistRounds []int64
	HistParams [][]float64
	// Pending holds uploads the hub accepted after the last committed
	// advance window closed — they belong to the next window and must not
	// be lost across a restart.
	Pending []AsyncUpload
}

// AsyncUpload is one accepted-but-unfolded async submission.
type AsyncUpload struct {
	// Worker is the submitting worker's federation index.
	Worker int
	// TrainedRound is the model round the gradient was trained against.
	TrainedRound int
	// Samples is the worker's registered dataset size at submission.
	Samples int
	// Grad is the submitted gradient.
	Grad []float64
}

// Validate checks the snapshot's internal consistency: one entry per
// worker in every per-worker field, finite floats, in-range indices.
// Encode and Decode both call it, so a snapshot that round-trips is
// structurally sound; semantic checks against a live federation (worker
// count, model dimension, ledger keys) belong to the restoring layer.
func (s *Snapshot) Validate() error {
	if s.NextRound < 0 {
		return fmt.Errorf("persist: negative next round %d", s.NextRound)
	}
	n := len(s.Reputations)
	for _, f := range []struct {
		name string
		l    int
	}{
		{"positive counts", len(s.PosCounts)},
		{"negative counts", len(s.NegCounts)},
		{"uncertain counts", len(s.UncCounts)},
		{"cumulative rewards", len(s.Cumulative)},
		{"worker draws", len(s.WorkerDraws)},
		{"samples", len(s.Samples)},
	} {
		if f.l != n {
			return fmt.Errorf("persist: %s for %d workers, reputations for %d", f.name, f.l, n)
		}
	}
	for name, vec := range map[string][]float64{
		"params":      s.Params,
		"reputations": s.Reputations,
		"cumulative":  s.Cumulative,
	} {
		for i, v := range vec {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("persist: %s[%d] is non-finite (%v)", name, i, v)
			}
		}
	}
	if math.IsNaN(s.BHValue) || math.IsInf(s.BHValue, 0) {
		return fmt.Errorf("persist: b_h state is non-finite (%v)", s.BHValue)
	}
	for i, c := range append(append(append([]int64(nil), s.PosCounts...), s.NegCounts...), s.UncCounts...) {
		if c < 0 {
			return fmt.Errorf("persist: negative SLM counter at position %d", i)
		}
	}
	for _, b := range s.Banned {
		if b < 0 || b >= n {
			return fmt.Errorf("persist: banned index %d outside federation of %d", b, n)
		}
	}
	for _, sv := range s.Servers {
		if sv < 0 || sv >= n {
			return fmt.Errorf("persist: server index %d outside federation of %d", sv, n)
		}
	}
	for i, smp := range s.Samples {
		if smp < 0 {
			return fmt.Errorf("persist: negative sample count %d for worker %d", smp, i)
		}
	}
	if s.Async != nil {
		if err := s.Async.validate(n); err != nil {
			return err
		}
	}
	if len(s.LifecycleStates) > 0 || len(s.ActiveCohort) > 0 {
		if len(s.LifecycleStates) != n {
			return fmt.Errorf("persist: %d lifecycle states for %d workers", len(s.LifecycleStates), n)
		}
		nActive := 0
		for id, st := range s.LifecycleStates {
			if st > stateBanned {
				return fmt.Errorf("persist: worker %d has unknown lifecycle state %d", id, st)
			}
			if st == stateActive {
				nActive++
			}
		}
		if nActive != len(s.ActiveCohort) {
			return fmt.Errorf("persist: %d active lifecycle states but %d cohort slots", nActive, len(s.ActiveCohort))
		}
		seen := make(map[int]bool, len(s.ActiveCohort))
		for slot, id := range s.ActiveCohort {
			if id < 0 || id >= n {
				return fmt.Errorf("persist: cohort slot %d holds worker %d outside federation of %d", slot, id, n)
			}
			if s.LifecycleStates[id] != stateActive {
				return fmt.Errorf("persist: cohort slot %d holds worker %d with non-active state %d", slot, id, s.LifecycleStates[id])
			}
			if seen[id] {
				return fmt.Errorf("persist: worker %d seated in two cohort slots", id)
			}
			seen[id] = true
		}
	}
	if len(s.Shards) > 0 {
		if len(s.Shards) > n {
			return fmt.Errorf("persist: %d shard sections for a federation of %d", len(s.Shards), n)
		}
		at := 0
		for i, sh := range s.Shards {
			if sh.Count < 1 {
				return fmt.Errorf("persist: shard %d owns %d workers", i, sh.Count)
			}
			if sh.First != at {
				return fmt.Errorf("persist: shard %d's cohort starts at worker %d, want %d — cohorts must tile the federation in shard order", i, sh.First, at)
			}
			if sh.LastSeq < 0 {
				return fmt.Errorf("persist: shard %d has negative directive cursor %d", i, sh.LastSeq)
			}
			if len(sh.WorkerDraws) != sh.Count {
				return fmt.Errorf("persist: shard %d records %d worker streams for a %d-worker cohort", i, len(sh.WorkerDraws), sh.Count)
			}
			at += sh.Count
		}
		if at != n {
			return fmt.Errorf("persist: shard cohorts cover %d of %d workers", at, n)
		}
	}
	return nil
}

// validate checks the async-collector state against a federation of n
// workers.
func (a *AsyncState) validate(n int) error {
	if len(a.HistRounds) != len(a.HistParams) {
		return fmt.Errorf("persist: %d history rounds for %d parameter vectors", len(a.HistRounds), len(a.HistParams))
	}
	for i, r := range a.HistRounds {
		if r < 0 {
			return fmt.Errorf("persist: negative history round %d", r)
		}
		if i > 0 && r <= a.HistRounds[i-1] {
			return fmt.Errorf("persist: history rounds not strictly ascending at position %d", i)
		}
		for j, v := range a.HistParams[i] {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("persist: history params[%d][%d] is non-finite (%v)", i, j, v)
			}
		}
	}
	for i, p := range a.Pending {
		if p.Worker < 0 || p.Worker >= n {
			return fmt.Errorf("persist: pending upload %d from worker %d outside federation of %d", i, p.Worker, n)
		}
		if p.TrainedRound < 0 {
			return fmt.Errorf("persist: pending upload %d trained against negative round %d", i, p.TrainedRound)
		}
		if p.Samples <= 0 {
			return fmt.Errorf("persist: pending upload %d declares %d samples", i, p.Samples)
		}
		for j, v := range p.Grad {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("persist: pending upload %d gradient[%d] is non-finite (%v)", i, j, v)
			}
		}
	}
	return nil
}

// Encode serializes the snapshot: magic, fields in declaration order, a
// trailing CRC32 over everything before it. The same snapshot always
// produces the same bytes.
func Encode(s *Snapshot) ([]byte, error) {
	b, _, err := encodeBody(s, true)
	if err != nil {
		return nil, err
	}
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b)), nil
}

// encodeBody serializes everything the CRC covers. With inlineLedger
// false the ledger's bytes are left out and ledgerAt is where they belong
// — right after their length prefix — so Write can send s.Ledger itself
// without first copying a tall chain's export into the buffer.
func encodeBody(s *Snapshot, inlineLedger bool) (b []byte, ledgerAt int, err error) {
	if err := s.Validate(); err != nil {
		return nil, 0, err
	}
	if int64(len(s.Ledger)) > math.MaxUint32 {
		return nil, 0, fmt.Errorf("persist: ledger export of %d bytes exceeds the format range", len(s.Ledger))
	}
	// Room for the fixed fields, the ten vectors of at most one entry per
	// worker, the lifecycle bytes and the CRC, so that appending them never
	// recopies the parameters or an inlined ledger; async history and shard
	// sections grow the buffer where a run has them.
	size := 128 + 8*(len(s.Params)+11*len(s.Reputations))
	if inlineLedger {
		size += len(s.Ledger)
	}
	b = make([]byte, 0, size)
	b = append(b, Magic...)
	b = putU64(b, uint64(s.NextRound))
	b = putF64s(b, s.Params)
	b = putF64s(b, s.Reputations)
	b = putI64s(b, s.PosCounts)
	b = putI64s(b, s.NegCounts)
	b = putI64s(b, s.UncCounts)
	b = putF64s(b, s.Cumulative)
	b = putInts(b, s.Banned)
	b = putInts(b, s.Servers)
	if s.BHInitialized {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = putU64(b, math.Float64bits(s.BHValue))
	b = putU64(b, s.EngineDraws)
	b = putU64(b, s.MechDraws)
	b = putU64s(b, s.WorkerDraws)
	b = putInts(b, s.Samples)
	b = putU32(b, uint32(len(s.Ledger)))
	ledgerAt = len(b)
	if inlineLedger {
		b = append(b, s.Ledger...)
	}
	if s.Async == nil {
		b = append(b, 0)
	} else {
		b = append(b, 1)
		b = putI64s(b, s.Async.HistRounds)
		b = putU32(b, uint32(len(s.Async.HistParams)))
		for _, p := range s.Async.HistParams {
			b = putF64s(b, p)
		}
		b = putU32(b, uint32(len(s.Async.Pending)))
		for _, p := range s.Async.Pending {
			b = putU64(b, uint64(p.Worker))
			b = putU64(b, uint64(p.TrainedRound))
			b = putU64(b, uint64(p.Samples))
			b = putF64s(b, p.Grad)
		}
	}
	b = putU32(b, uint32(len(s.Shards)))
	for _, sh := range s.Shards {
		b = putU64(b, uint64(sh.First))
		b = putU64(b, uint64(sh.Count))
		b = putU64(b, uint64(sh.LastSeq))
		b = putU64(b, sh.EngineDraws)
		b = putU64s(b, sh.WorkerDraws)
	}
	b = putU32(b, uint32(len(s.LifecycleStates)))
	b = append(b, s.LifecycleStates...)
	b = putInts(b, s.ActiveCohort)
	return b, ledgerAt, nil
}

// Decode reconstructs a snapshot from its encoding. It is hardened for
// hostile input: the CRC is verified before any field is parsed, every
// length prefix is checked against the remaining bytes before allocation,
// non-finite floats are rejected, and no input can make it panic.
func Decode(b []byte) (*Snapshot, error) {
	if len(b) < len(Magic)+crcSize {
		return nil, fmt.Errorf("persist: %d bytes is shorter than any checkpoint", len(b))
	}
	if string(b[:len(Magic)]) != Magic {
		return nil, fmt.Errorf("persist: bad checkpoint header %q", b[:len(Magic)])
	}
	r := frame.Open(b, len(Magic), "persist")
	// Calls in a composite literal run left to right: the encoding's order.
	s := &Snapshot{
		NextRound:     r.Int("next round"),
		Params:        r.Float64s("params"),
		Reputations:   r.Float64s("reputations"),
		PosCounts:     r.Int64s("positive counts"),
		NegCounts:     r.Int64s("negative counts"),
		UncCounts:     r.Int64s("uncertain counts"),
		Cumulative:    r.Float64s("cumulative rewards"),
		Banned:        r.Ints("banned set"),
		Servers:       r.Ints("server cluster"),
		BHInitialized: r.Bool("b_h flag"),
		BHValue:       math.Float64frombits(r.U64("b_h value")),
		EngineDraws:   r.U64("engine draws"),
		MechDraws:     r.U64("mechanism draws"),
		WorkerDraws:   r.Uint64s("worker draws"),
		Samples:       r.Ints("samples"),
		Ledger:        append([]byte(nil), r.Bytes(r.Count(1, "ledger export"), "ledger export")...),
	}
	if r.Bool("async flag") {
		a := &AsyncState{HistRounds: r.Int64s("async history rounds")}
		a.HistParams = make([][]float64, r.Count(4, "async history params"))
		for i := range a.HistParams {
			a.HistParams[i] = r.Float64s("async history params")
		}
		a.Pending = make([]AsyncUpload, r.Count(28, "async pending uploads"))
		for i := range a.Pending {
			a.Pending[i] = AsyncUpload{
				Worker:       r.Int("async pending worker"),
				TrainedRound: r.Int("async pending round"),
				Samples:      r.Int("async pending samples"),
				Grad:         r.Float64s("async pending gradient"),
			}
		}
		s.Async = a
	}
	if n := r.Count(36, "shard sections"); n > 0 {
		s.Shards = make([]ShardState, n)
		for i := range s.Shards {
			s.Shards[i] = ShardState{
				First:       r.Int("shard first worker"),
				Count:       r.Int("shard cohort size"),
				LastSeq:     r.Int("shard directive cursor"),
				EngineDraws: r.U64("shard engine draws"),
				WorkerDraws: r.Uint64s("shard worker draws"),
			}
		}
	}
	s.LifecycleStates = append([]uint8(nil), r.Bytes(r.Count(1, "lifecycle states"), "lifecycle states")...)
	if s.ActiveCohort = r.Ints("active cohort"); len(s.ActiveCohort) == 0 {
		s.ActiveCohort = nil
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// Write encodes the snapshot to w: the bytes Encode returns, with the
// ledger export — most of a tall run's checkpoint — written straight from
// s.Ledger rather than copied into the encoding first.
func Write(w io.Writer, s *Snapshot) error {
	b, ledgerAt, err := encodeBody(s, false)
	if err != nil {
		return err
	}
	parts := [][]byte{b[:ledgerAt], s.Ledger, b[ledgerAt:]}
	var crc uint32
	for _, part := range parts {
		crc = crc32.Update(crc, crc32.IEEETable, part)
	}
	parts[2] = binary.LittleEndian.AppendUint32(parts[2], crc)
	for _, part := range parts {
		if _, err := w.Write(part); err != nil {
			return fmt.Errorf("persist: writing checkpoint: %w", err)
		}
	}
	return nil
}

// Read decodes one snapshot from r, reading at most MaxSnapshotBytes.
func Read(r io.Reader) (*Snapshot, error) {
	b, err := frame.ReadFrame(r, -1, MaxSnapshotBytes)
	if errors.Is(err, frame.ErrFrameTooLarge) {
		return nil, fmt.Errorf("persist: checkpoint exceeds the %d-byte limit", int64(MaxSnapshotBytes))
	}
	if err != nil {
		return nil, fmt.Errorf("persist: reading checkpoint: %w", err)
	}
	return Decode(b)
}

// WriteFile atomically replaces path with the snapshot: the bytes are
// written to a temporary file in the same directory, fsynced, renamed over
// path, and the directory fsynced — so a crash at any instant leaves
// either the previous complete checkpoint or the new one, never a torn
// file. The CRC catches the residual case of a corrupted sector.
func WriteFile(path string, s *Snapshot) error {
	b, err := Encode(s)
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("persist: creating temp checkpoint: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		return fmt.Errorf("persist: writing temp checkpoint: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("persist: syncing temp checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("persist: closing temp checkpoint: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("persist: installing checkpoint: %w", err)
	}
	// Persist the rename itself; not all platforms support fsync on a
	// directory handle, so a failure here is not fatal to the data.
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
	return nil
}

// ReadFile loads and decodes a checkpoint file.
func ReadFile(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("persist: opening checkpoint: %w", err)
	}
	defer f.Close()
	return Read(f)
}

func putU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func putU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

func putF64s(b []byte, v []float64) []byte {
	b = putU32(b, uint32(len(v)))
	for _, x := range v {
		b = putU64(b, math.Float64bits(x))
	}
	return b
}

func putI64s(b []byte, v []int64) []byte {
	b = putU32(b, uint32(len(v)))
	for _, x := range v {
		b = putU64(b, uint64(x))
	}
	return b
}

func putU64s(b []byte, v []uint64) []byte {
	b = putU32(b, uint32(len(v)))
	for _, x := range v {
		b = putU64(b, x)
	}
	return b
}

func putInts(b []byte, v []int) []byte {
	b = putU32(b, uint32(len(v)))
	for _, x := range v {
		b = putU64(b, uint64(x))
	}
	return b
}
