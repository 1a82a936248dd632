package codec

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"fifl/internal/faults"
)

// This file keeps the frame writer as it was before encoders sized their
// frames exactly: a size hint (64 bytes for shard submits, the parameters
// alone for directives) grown by append, and a vec that appends one
// element at a time. The encoders below are verbatim copies over that
// writer. They are the byte-for-byte reference the exact-size encoders
// are held to (TestFramesMatchReference, FuzzDecodeShard).

type refWriter struct{ b []byte }

func newRefWriter(t MsgType, flags uint8, sizeHint int) *refWriter {
	w := &refWriter{b: make([]byte, 0, headerSize+sizeHint+crcSize)}
	w.b = append(w.b, Magic...)
	w.b = append(w.b, Version, byte(t), flags, 0)
	return w
}

func (w *refWriter) u32(v uint32) {
	w.b = binary.LittleEndian.AppendUint32(w.b, v)
}

func (w *refWriter) vec(v []float64, c Compression) {
	switch c {
	case CompressionF32:
		w.u32(uint32(len(v)))
		for _, x := range v {
			w.b = binary.LittleEndian.AppendUint32(w.b, math.Float32bits(float32(x)))
		}
	case CompressionTopK:
		w.writeTopK(v)
	case CompressionInt8:
		w.writeQuantized(v, 127, false)
	case CompressionInt16:
		w.writeQuantized(v, 32767, true)
	default:
		w.u32(uint32(len(v)))
		for _, x := range v {
			w.b = binary.LittleEndian.AppendUint64(w.b, math.Float64bits(x))
		}
	}
}

func (w *refWriter) seal() []byte {
	return binary.LittleEndian.AppendUint32(w.b, crc32.ChecksumIEEE(w.b))
}

func (w *refWriter) writeTopK(v []float64) {
	k := len(v) / TopKDivisor
	if k < 1 {
		k = 1
	}
	if k > len(v) {
		k = len(v)
	}
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

func (w *refWriter) writeQuantized(v []float64, limit float64, wide bool) {
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

func (w *refWriter) putInts(v []int, field string) error {
	if err := checkU32(len(v), field); err != nil {
		return err
	}
	w.u32(uint32(len(v)))
	for i, x := range v {
		if err := checkU32(x, field); err != nil {
			return fmt.Errorf("codec: %s element %d: %w", field, i, err)
		}
		w.u32(uint32(x))
	}
	return nil
}

func refEncodeUpload(u Upload, c Compression) ([]byte, error) {
	if !c.Valid() {
		return nil, fmt.Errorf("codec: invalid compression mode %s", c)
	}
	if err := checkU32(u.Round, "upload round"); err != nil {
		return nil, err
	}
	if err := checkU32(u.Worker, "upload worker"); err != nil {
		return nil, err
	}
	if err := checkU32(u.Samples, "upload samples"); err != nil {
		return nil, err
	}
	if err := checkFinite(u.Grad, "upload gradient"); err != nil {
		return nil, err
	}
	if len(u.Grad) > maxSparseDim && c == CompressionTopK {
		return nil, fmt.Errorf("codec: %d-element gradient exceeds the sparse frame cap %d", len(u.Grad), maxSparseDim)
	}
	w := newRefWriter(TypeUpload, c.flag(), 16+8*len(u.Grad))
	w.u32(uint32(u.Round))
	w.u32(uint32(u.Worker))
	w.u32(uint32(u.Samples))
	w.vec(u.Grad, c)
	return w.seal(), nil
}

func refEncodeModel(m Model, c Compression) ([]byte, error) {
	if !c.Valid() {
		return nil, fmt.Errorf("codec: invalid compression mode %s", c)
	}
	c = c.DenseFallback()
	if err := checkU32(m.Round, "model round"); err != nil {
		return nil, err
	}
	if m.Done && len(m.Params) > 0 {
		return nil, fmt.Errorf("codec: a done model frame must carry no parameters, got %d", len(m.Params))
	}
	if err := checkFinite(m.Params, "model parameters"); err != nil {
		return nil, err
	}
	flags := c.flag()
	if m.Done {
		flags |= FlagDone
	}
	w := newRefWriter(TypeModel, flags, 8+8*len(m.Params))
	w.u32(uint32(m.Round))
	w.vec(m.Params, c)
	return w.seal(), nil
}

func refEncodeReport(rep Report, c Compression) ([]byte, error) {
	if !c.Valid() {
		return nil, fmt.Errorf("codec: invalid compression mode %s", c)
	}
	c = c.DenseFallback()
	if err := checkU32(rep.Round, "report round"); err != nil {
		return nil, err
	}
	n := len(rep.Statuses)
	if len(rep.Reputations) != n || len(rep.Rewards) != n {
		return nil, fmt.Errorf("codec: report shape mismatch: %d statuses, %d reputations, %d rewards",
			n, len(rep.Reputations), len(rep.Rewards))
	}
	if err := checkFinite(rep.Reputations, "report reputations"); err != nil {
		return nil, err
	}
	if err := checkFinite(rep.Rewards, "report rewards"); err != nil {
		return nil, err
	}
	flags := c.flag()
	if rep.Committed {
		flags |= FlagCommitted
	}
	w := newRefWriter(TypeReport, flags, 8+n+16*n)
	w.u32(uint32(rep.Round))
	w.u32(uint32(n))
	for _, s := range rep.Statuses {
		w.b = append(w.b, byte(s))
	}
	w.vec(rep.Reputations, c)
	w.vec(rep.Rewards, c)
	return w.seal(), nil
}

func refEncodeShardSubmit(s ShardSubmit) ([]byte, error) {
	if err := checkU32(s.Shard, "shard index"); err != nil {
		return nil, err
	}
	if err := checkU32(s.Round, "shard round"); err != nil {
		return nil, err
	}
	w := newRefWriter(TypeShardSubmit, 0, 64)
	w.u32(uint32(s.Shard))
	w.u32(uint32(s.Round))
	w.b = append(w.b, byte(s.Phase))
	switch s.Phase {
	case ShardPhaseHello:
		if s.Hello == nil {
			return nil, fmt.Errorf("codec: hello shard submit carries no hello payload")
		}
		if err := checkU32(s.Hello.First, "shard first"); err != nil {
			return nil, err
		}
		w.u32(uint32(s.Hello.First))
		if err := w.putInts(s.Hello.Samples, "shard samples"); err != nil {
			return nil, err
		}
	case ShardPhaseCollect:
		c := s.Collect
		if c == nil {
			return nil, fmt.Errorf("codec: collect shard submit carries no collect payload")
		}
		k := len(c.Statuses)
		if len(c.Retries) != k {
			return nil, fmt.Errorf("codec: collect evidence shape mismatch: %d statuses, %d retries", k, len(c.Retries))
		}
		if len(c.ServerIDs) != len(c.ServerGrads) {
			return nil, fmt.Errorf("codec: %d server ids for %d server gradients", len(c.ServerIDs), len(c.ServerGrads))
		}
		if err := checkU32(k, "collect cohort size"); err != nil {
			return nil, err
		}
		w.u32(uint32(k))
		for i, st := range c.Statuses {
			if st > faults.StatusPending {
				return nil, fmt.Errorf("codec: collect status %d for member %d unknown", st, i)
			}
			w.b = append(w.b, byte(st))
		}
		for i, rt := range c.Retries {
			if err := checkU32(rt, "collect retries"); err != nil {
				return nil, fmt.Errorf("codec: member %d: %w", i, err)
			}
			w.u32(uint32(rt))
		}
		if err := checkU32(len(c.ServerIDs), "collect server count"); err != nil {
			return nil, err
		}
		w.u32(uint32(len(c.ServerIDs)))
		for i, id := range c.ServerIDs {
			if err := checkU32(id, "collect server id"); err != nil {
				return nil, err
			}
			if err := checkFinite(c.ServerGrads[i], "collect server gradient"); err != nil {
				return nil, err
			}
			w.u32(uint32(id))
			w.vec(c.ServerGrads[i], CompressionNone)
		}
	case ShardPhaseDetect:
		d := s.Detect
		if d == nil {
			return nil, fmt.Errorf("codec: detect shard submit carries no detect payload")
		}
		k := len(d.Scores)
		if len(d.Accept) != k {
			return nil, fmt.Errorf("codec: detect evidence shape mismatch: %d scores, %d accepts", k, len(d.Accept))
		}
		if err := checkU32(k, "detect cohort size"); err != nil {
			return nil, err
		}
		if math.IsNaN(d.Weight) || math.IsInf(d.Weight, 0) || d.Weight < 0 {
			return nil, fmt.Errorf("codec: detect weight %v is not a finite non-negative mass", d.Weight)
		}
		if err := checkFinite(d.Partial, "detect partial"); err != nil {
			return nil, err
		}
		w.u32(uint32(k))
		masked := make([]float64, k)
		for i, sc := range d.Scores {
			switch {
			case math.IsNaN(sc):
				w.b = append(w.b, scoreNaN)
			case math.IsInf(sc, -1):
				w.b = append(w.b, scoreNegInf)
			case math.IsInf(sc, 1):
				return nil, fmt.Errorf("codec: detect score %d is +Inf", i)
			default:
				w.b = append(w.b, scoreFinite)
				masked[i] = sc
			}
		}
		w.vec(masked, CompressionNone)
		for _, a := range d.Accept {
			if a {
				w.b = append(w.b, 1)
			} else {
				w.b = append(w.b, 0)
			}
		}
		w.vec([]float64{d.Weight}, CompressionNone)
		if d.Partial == nil {
			w.b = append(w.b, 0)
		} else {
			w.b = append(w.b, 1)
			w.vec(d.Partial, CompressionNone)
		}
	case ShardPhaseDist:
		d := s.Dist
		if d == nil {
			return nil, fmt.Errorf("codec: dist shard submit carries no dist payload")
		}
		if err := checkU32(len(d.Dists), "dist cohort size"); err != nil {
			return nil, err
		}
		w.u32(uint32(len(d.Dists)))
		masked := make([]float64, len(d.Dists))
		for i, v := range d.Dists {
			switch {
			case math.IsNaN(v):
				w.b = append(w.b, 0)
			case math.IsInf(v, 0) || v < 0:
				return nil, fmt.Errorf("codec: distance %d is %v, not a finite non-negative value", i, v)
			default:
				w.b = append(w.b, 1)
				masked[i] = v
			}
		}
		w.vec(masked, CompressionNone)
	default:
		return nil, fmt.Errorf("codec: shard submit phase %s is not encodable", s.Phase)
	}
	return w.seal(), nil
}

func refEncodeShardDirective(d ShardDirective) ([]byte, error) {
	if err := checkU32(d.Seq, "directive seq"); err != nil {
		return nil, err
	}
	if err := checkU32(d.Round, "directive round"); err != nil {
		return nil, err
	}
	w := newRefWriter(TypeShardDirective, 0, 64+8*len(d.Params))
	w.u32(uint32(d.Seq))
	w.u32(uint32(d.Round))
	w.b = append(w.b, byte(d.Phase))
	switch d.Phase {
	case ShardPhaseCollect:
		if err := checkFinite(d.Params, "directive parameters"); err != nil {
			return nil, err
		}
		w.vec(d.Params, CompressionNone)
		if err := w.putInts(d.Servers, "directive servers"); err != nil {
			return nil, err
		}
	case ShardPhaseDetect:
		if d.Benchmark == nil {
			w.b = append(w.b, 0)
		} else {
			if err := checkFinite(d.Benchmark, "directive benchmark"); err != nil {
				return nil, err
			}
			if len(d.Owners) == 0 {
				return nil, fmt.Errorf("codec: detect directive carries a benchmark but no owners")
			}
			w.b = append(w.b, 1)
			w.vec(d.Benchmark, CompressionNone)
			if err := w.putInts(d.Owners, "directive owners"); err != nil {
				return nil, err
			}
		}
		if math.IsNaN(d.Threshold) || math.IsInf(d.Threshold, 0) {
			return nil, fmt.Errorf("codec: directive threshold %v is non-finite", d.Threshold)
		}
		w.vec([]float64{d.Threshold}, CompressionNone)
	case ShardPhaseDist:
		if d.Global == nil {
			w.b = append(w.b, 0)
		} else {
			if err := checkFinite(d.Global, "directive global"); err != nil {
				return nil, err
			}
			w.b = append(w.b, 1)
			w.vec(d.Global, CompressionNone)
		}
	case ShardPhaseDone:
	default:
		return nil, fmt.Errorf("codec: shard directive phase %s is not encodable", d.Phase)
	}
	return w.seal(), nil
}

// The decoders below are the ones every frame type had before they were
// rebuilt on frame.Reader, copied verbatim with their own reader (renamed
// only: open → refOpen, DecodeX → refDecodeX). They are the verdict and
// value reference the shipped decoders are held to (FuzzDecodeUpload,
// FuzzDecodeWorkerFrames, FuzzDecodeShard, TestDecodersMatchReference).

// reader consumes a verified frame body.
type reader struct {
	b   []byte
	off int
}

func (r *reader) remaining() int { return len(r.b) - r.off }

func (r *reader) u32() (uint32, error) {
	if r.remaining() < 4 {
		return 0, fmt.Errorf("codec: truncated frame at offset %d", r.off)
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v, nil
}

func (r *reader) bytes(n int) ([]byte, error) {
	if n < 0 || r.remaining() < n {
		return nil, fmt.Errorf("codec: truncated frame at offset %d", r.off)
	}
	out := r.b[r.off : r.off+n]
	r.off += n
	return out, nil
}

// vec reads a vector in the frame's negotiated layout, rejecting
// non-finite elements. Every declared length is validated against the
// remaining bytes before allocation, so adversarial prefixes cannot force
// huge allocations (sparse frames additionally cap their declared dense
// dimension — see maxSparseDim).
func (r *reader) vec(c Compression, field string) ([]float64, error) {
	switch c {
	case CompressionTopK:
		return r.readTopK(field)
	case CompressionInt8:
		return r.readQuantized(field, false)
	case CompressionInt16:
		return r.readQuantized(field, true)
	}
	count, err := r.u32()
	if err != nil {
		return nil, err
	}
	elem := 8
	if c == CompressionF32 {
		elem = 4
	}
	if int64(count)*int64(elem) > int64(r.remaining()) {
		return nil, fmt.Errorf("codec: %s declares %d elements, only %d bytes remain", field, count, r.remaining())
	}
	raw, err := r.bytes(int(count) * elem)
	if err != nil {
		return nil, err
	}
	out := make([]float64, count)
	for i := range out {
		var x float64
		if c == CompressionF32 {
			x = float64(math.Float32frombits(binary.LittleEndian.Uint32(raw[i*4:])))
		} else {
			x = math.Float64frombits(binary.LittleEndian.Uint64(raw[i*8:]))
		}
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return nil, fmt.Errorf("codec: %s element %d is non-finite", field, i)
		}
		out[i] = x
	}
	return out, nil
}

// done reports a parse error if the frame body has trailing bytes.
func (r *reader) done() error {
	if r.remaining() != 0 {
		return fmt.Errorf("codec: %d trailing bytes after frame body", r.remaining())
	}
	return nil
}

// refOpen validates a frame end to end — header, expected type and CRC — and
// returns a reader positioned at the body plus the frame's flags.
func refOpen(b []byte, want MsgType) (*reader, uint8, error) {
	t, err := Type(b)
	if err != nil {
		return nil, 0, err
	}
	if t != want {
		return nil, 0, fmt.Errorf("codec: got a %s frame, want %s", t, want)
	}
	body := b[:len(b)-crcSize]
	got := binary.LittleEndian.Uint32(b[len(b)-crcSize:])
	if want := crc32.ChecksumIEEE(body); got != want {
		return nil, 0, fmt.Errorf("codec: CRC mismatch (frame %#x, computed %#x)", got, want)
	}
	return &reader{b: body, off: headerSize}, b[6], nil
}

// refDecodeHello decodes a worker registration.
func refDecodeHello(b []byte) (Hello, error) {
	r, _, err := refOpen(b, TypeHello)
	if err != nil {
		return Hello{}, err
	}
	worker, err := r.u32()
	if err != nil {
		return Hello{}, err
	}
	samples, err := r.u32()
	if err != nil {
		return Hello{}, err
	}
	if err := r.done(); err != nil {
		return Hello{}, err
	}
	return Hello{Worker: int(worker), Samples: int(samples)}, nil
}

// refDecodeUpload decodes a gradient submission. It never panics: malformed,
// truncated or corrupted frames — and frames smuggling NaN/Inf gradient
// elements — are reported as errors.
func refDecodeUpload(b []byte) (Upload, error) {
	r, flags, err := refOpen(b, TypeUpload)
	if err != nil {
		return Upload{}, err
	}
	round, err := r.u32()
	if err != nil {
		return Upload{}, err
	}
	worker, err := r.u32()
	if err != nil {
		return Upload{}, err
	}
	samples, err := r.u32()
	if err != nil {
		return Upload{}, err
	}
	grad, err := r.vec(CompressionFromFlags(flags), "upload gradient")
	if err != nil {
		return Upload{}, err
	}
	if err := r.done(); err != nil {
		return Upload{}, err
	}
	return Upload{Round: int(round), Worker: int(worker), Samples: int(samples), Grad: grad}, nil
}

// refDecodeModel decodes a global-parameter broadcast.
func refDecodeModel(b []byte) (Model, error) {
	r, flags, err := refOpen(b, TypeModel)
	if err != nil {
		return Model{}, err
	}
	round, err := r.u32()
	if err != nil {
		return Model{}, err
	}
	params, err := r.vec(CompressionFromFlags(flags), "model parameters")
	if err != nil {
		return Model{}, err
	}
	if err := r.done(); err != nil {
		return Model{}, err
	}
	m := Model{Round: int(round), Done: flags&FlagDone != 0, Params: params}
	if m.Done && len(m.Params) > 0 {
		return Model{}, fmt.Errorf("codec: done model frame carries %d parameters", len(m.Params))
	}
	return m, nil
}

// refDecodeReport decodes a round assessment.
func refDecodeReport(b []byte) (Report, error) {
	r, flags, err := refOpen(b, TypeReport)
	if err != nil {
		return Report{}, err
	}
	round, err := r.u32()
	if err != nil {
		return Report{}, err
	}
	n, err := r.u32()
	if err != nil {
		return Report{}, err
	}
	raw, err := r.bytes(int(n))
	if err != nil {
		return Report{}, fmt.Errorf("codec: report declares %d workers: %w", n, err)
	}
	statuses := make([]faults.UploadStatus, n)
	for i, s := range raw {
		if faults.UploadStatus(s) > faults.StatusPending {
			return Report{}, fmt.Errorf("codec: report status %d for worker %d unknown", s, i)
		}
		statuses[i] = faults.UploadStatus(s)
	}
	comp := CompressionFromFlags(flags)
	reps, err := r.vec(comp, "report reputations")
	if err != nil {
		return Report{}, err
	}
	rewards, err := r.vec(comp, "report rewards")
	if err != nil {
		return Report{}, err
	}
	if err := r.done(); err != nil {
		return Report{}, err
	}
	if len(reps) != int(n) || len(rewards) != int(n) {
		return Report{}, fmt.Errorf("codec: report shape mismatch: %d statuses, %d reputations, %d rewards",
			n, len(reps), len(rewards))
	}
	return Report{
		Round:       int(round),
		Committed:   flags&FlagCommitted != 0,
		Statuses:    statuses,
		Reputations: reps,
		Rewards:     rewards,
	}, nil
}

// refDecodeLedger unwraps a framed chain binary export.
func refDecodeLedger(b []byte) ([]byte, error) {
	r, _, err := refOpen(b, TypeLedger)
	if err != nil {
		return nil, err
	}
	n, err := r.u32()
	if err != nil {
		return nil, err
	}
	export, err := r.bytes(int(n))
	if err != nil {
		return nil, fmt.Errorf("codec: ledger declares %d bytes: %w", n, err)
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return append([]byte(nil), export...), nil
}

// ints reads a u32-count-prefixed list of u32 values.
func (r *reader) ints(field string) ([]int, error) {
	count, err := r.u32()
	if err != nil {
		return nil, err
	}
	if int64(count)*4 > int64(r.remaining()) {
		return nil, fmt.Errorf("codec: %s declares %d elements, only %d bytes remain", field, count, r.remaining())
	}
	out := make([]int, count)
	for i := range out {
		v, err := r.u32()
		if err != nil {
			return nil, err
		}
		out[i] = int(v)
	}
	return out, nil
}

// bools reads a count of 0/1 bytes.
func (r *reader) bools(n int, field string) ([]bool, error) {
	raw, err := r.bytes(n)
	if err != nil {
		return nil, fmt.Errorf("codec: %s declares %d entries: %w", field, n, err)
	}
	out := make([]bool, n)
	for i, b := range raw {
		if b > 1 {
			return nil, fmt.Errorf("codec: %s byte %d is %d, not a bool", field, i, b)
		}
		out[i] = b == 1
	}
	return out, nil
}

// refDecodeShardSubmit decodes one shard's per-phase evidence. Like every
// decoder in this package it never panics; non-finite application values
// (absent scores, -Inf rejections, invalid distances) are reconstituted
// from their wire masks.
func refDecodeShardSubmit(b []byte) (ShardSubmit, error) {
	r, _, err := refOpen(b, TypeShardSubmit)
	if err != nil {
		return ShardSubmit{}, err
	}
	shard, err := r.u32()
	if err != nil {
		return ShardSubmit{}, err
	}
	round, err := r.u32()
	if err != nil {
		return ShardSubmit{}, err
	}
	phaseRaw, err := r.bytes(1)
	if err != nil {
		return ShardSubmit{}, err
	}
	s := ShardSubmit{Shard: int(shard), Round: int(round), Phase: ShardPhase(phaseRaw[0])}
	switch s.Phase {
	case ShardPhaseHello:
		first, err := r.u32()
		if err != nil {
			return ShardSubmit{}, err
		}
		samples, err := r.ints("shard samples")
		if err != nil {
			return ShardSubmit{}, err
		}
		s.Hello = &ShardHello{First: int(first), Samples: samples}
	case ShardPhaseCollect:
		k, err := r.u32()
		if err != nil {
			return ShardSubmit{}, err
		}
		raw, err := r.bytes(int(k))
		if err != nil {
			return ShardSubmit{}, fmt.Errorf("codec: collect evidence declares %d members: %w", k, err)
		}
		c := &ShardCollectEvidence{
			Statuses: make([]faults.UploadStatus, k),
			Retries:  make([]int, k),
		}
		for i, st := range raw {
			if faults.UploadStatus(st) > faults.StatusPending {
				return ShardSubmit{}, fmt.Errorf("codec: collect status %d for member %d unknown", st, i)
			}
			c.Statuses[i] = faults.UploadStatus(st)
		}
		for i := range c.Retries {
			v, err := r.u32()
			if err != nil {
				return ShardSubmit{}, err
			}
			c.Retries[i] = int(v)
		}
		sc, err := r.u32()
		if err != nil {
			return ShardSubmit{}, err
		}
		// Each server entry occupies at least 8 bytes (id + empty vec).
		if int64(sc)*8 > int64(r.remaining()) {
			return ShardSubmit{}, fmt.Errorf("codec: collect evidence declares %d server gradients, only %d bytes remain", sc, r.remaining())
		}
		c.ServerIDs = make([]int, sc)
		c.ServerGrads = make([][]float64, sc)
		for i := range c.ServerIDs {
			id, err := r.u32()
			if err != nil {
				return ShardSubmit{}, err
			}
			g, err := r.vec(CompressionNone, "collect server gradient")
			if err != nil {
				return ShardSubmit{}, err
			}
			c.ServerIDs[i] = int(id)
			c.ServerGrads[i] = g
		}
		s.Collect = c
	case ShardPhaseDetect:
		k, err := r.u32()
		if err != nil {
			return ShardSubmit{}, err
		}
		kinds, err := r.bytes(int(k))
		if err != nil {
			return ShardSubmit{}, fmt.Errorf("codec: detect evidence declares %d members: %w", k, err)
		}
		scores, err := r.vec(CompressionNone, "detect scores")
		if err != nil {
			return ShardSubmit{}, err
		}
		if len(scores) != int(k) {
			return ShardSubmit{}, fmt.Errorf("codec: detect evidence carries %d scores for %d members", len(scores), k)
		}
		d := &ShardDetectEvidence{Scores: scores}
		for i, kind := range kinds {
			switch kind {
			case scoreFinite:
			case scoreNaN:
				d.Scores[i] = math.NaN()
			case scoreNegInf:
				d.Scores[i] = math.Inf(-1)
			default:
				return ShardSubmit{}, fmt.Errorf("codec: detect score kind %d for member %d unknown", kind, i)
			}
		}
		if d.Accept, err = r.bools(int(k), "detect accepts"); err != nil {
			return ShardSubmit{}, err
		}
		wv, err := r.vec(CompressionNone, "detect weight")
		if err != nil {
			return ShardSubmit{}, err
		}
		if len(wv) != 1 || wv[0] < 0 {
			return ShardSubmit{}, fmt.Errorf("codec: detect weight payload %v is not one non-negative mass", wv)
		}
		d.Weight = wv[0]
		flag, err := r.bytes(1)
		if err != nil {
			return ShardSubmit{}, err
		}
		switch flag[0] {
		case 0:
		case 1:
			if d.Partial, err = r.vec(CompressionNone, "detect partial"); err != nil {
				return ShardSubmit{}, err
			}
		default:
			return ShardSubmit{}, fmt.Errorf("codec: detect partial flag byte %d is not a bool", flag[0])
		}
		s.Detect = d
	case ShardPhaseDist:
		k, err := r.u32()
		if err != nil {
			return ShardSubmit{}, err
		}
		valid, err := r.bools(int(k), "dist validity")
		if err != nil {
			return ShardSubmit{}, err
		}
		dists, err := r.vec(CompressionNone, "dist values")
		if err != nil {
			return ShardSubmit{}, err
		}
		if len(dists) != int(k) {
			return ShardSubmit{}, fmt.Errorf("codec: dist evidence carries %d values for %d members", len(dists), k)
		}
		for i, ok := range valid {
			if !ok {
				dists[i] = math.NaN()
			} else if dists[i] < 0 {
				return ShardSubmit{}, fmt.Errorf("codec: distance %d is negative", i)
			}
		}
		s.Dist = &ShardDistEvidence{Dists: dists}
	default:
		return ShardSubmit{}, fmt.Errorf("codec: shard submit phase %s unknown", s.Phase)
	}
	if err := r.done(); err != nil {
		return ShardSubmit{}, err
	}
	return s, nil
}

// refDecodeShardDirective decodes a root broadcast.
func refDecodeShardDirective(b []byte) (ShardDirective, error) {
	r, _, err := refOpen(b, TypeShardDirective)
	if err != nil {
		return ShardDirective{}, err
	}
	seq, err := r.u32()
	if err != nil {
		return ShardDirective{}, err
	}
	round, err := r.u32()
	if err != nil {
		return ShardDirective{}, err
	}
	phaseRaw, err := r.bytes(1)
	if err != nil {
		return ShardDirective{}, err
	}
	d := ShardDirective{Seq: int(seq), Round: int(round), Phase: ShardPhase(phaseRaw[0])}
	switch d.Phase {
	case ShardPhaseCollect:
		if d.Params, err = r.vec(CompressionNone, "directive parameters"); err != nil {
			return ShardDirective{}, err
		}
		if d.Servers, err = r.ints("directive servers"); err != nil {
			return ShardDirective{}, err
		}
	case ShardPhaseDetect:
		flag, err := r.bytes(1)
		if err != nil {
			return ShardDirective{}, err
		}
		switch flag[0] {
		case 0:
		case 1:
			if d.Benchmark, err = r.vec(CompressionNone, "directive benchmark"); err != nil {
				return ShardDirective{}, err
			}
			if d.Owners, err = r.ints("directive owners"); err != nil {
				return ShardDirective{}, err
			}
			if len(d.Owners) == 0 {
				return ShardDirective{}, fmt.Errorf("codec: detect directive carries a benchmark but no owners")
			}
		default:
			return ShardDirective{}, fmt.Errorf("codec: benchmark flag byte %d is not a bool", flag[0])
		}
		tv, err := r.vec(CompressionNone, "directive threshold")
		if err != nil {
			return ShardDirective{}, err
		}
		if len(tv) != 1 {
			return ShardDirective{}, fmt.Errorf("codec: directive threshold payload has %d elements, want 1", len(tv))
		}
		d.Threshold = tv[0]
	case ShardPhaseDist:
		flag, err := r.bytes(1)
		if err != nil {
			return ShardDirective{}, err
		}
		switch flag[0] {
		case 0:
		case 1:
			if d.Global, err = r.vec(CompressionNone, "directive global"); err != nil {
				return ShardDirective{}, err
			}
		default:
			return ShardDirective{}, fmt.Errorf("codec: global flag byte %d is not a bool", flag[0])
		}
	case ShardPhaseDone:
	default:
		return ShardDirective{}, fmt.Errorf("codec: shard directive phase %s unknown", d.Phase)
	}
	if err := r.done(); err != nil {
		return ShardDirective{}, err
	}
	return d, nil
}

// readTopK decodes the sparse layout back to a dense vector.
func (r *reader) readTopK(field string) ([]float64, error) {
	fullDim, err := r.u32()
	if err != nil {
		return nil, err
	}
	if fullDim > maxSparseDim {
		return nil, fmt.Errorf("codec: %s declares a %d-element dense shape, cap is %d", field, fullDim, maxSparseDim)
	}
	k, err := r.u32()
	if err != nil {
		return nil, err
	}
	if k > fullDim {
		return nil, fmt.Errorf("codec: %s keeps %d of %d elements", field, k, fullDim)
	}
	if int64(k)*8 > int64(r.remaining()) {
		return nil, fmt.Errorf("codec: %s declares %d sparse elements, only %d bytes remain", field, k, r.remaining())
	}
	rawIdx, err := r.bytes(int(k) * 4)
	if err != nil {
		return nil, err
	}
	rawVal, err := r.bytes(int(k) * 4)
	if err != nil {
		return nil, err
	}
	out := make([]float64, fullDim)
	prev := -1
	for i := 0; i < int(k); i++ {
		j := binary.LittleEndian.Uint32(rawIdx[i*4:])
		if j >= fullDim {
			return nil, fmt.Errorf("codec: %s sparse index %d outside dimension %d", field, j, fullDim)
		}
		if int(j) <= prev {
			return nil, fmt.Errorf("codec: %s sparse indices not strictly ascending at position %d", field, i)
		}
		prev = int(j)
		x := float64(math.Float32frombits(binary.LittleEndian.Uint32(rawVal[i*4:])))
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return nil, fmt.Errorf("codec: %s element %d is non-finite", field, i)
		}
		out[j] = x
	}
	return out, nil
}

// readQuantized decodes the dense quantized layout.
func (r *reader) readQuantized(field string, wide bool) ([]float64, error) {
	count, err := r.u32()
	if err != nil {
		return nil, err
	}
	elem := 1
	if wide {
		elem = 2
	}
	if int64(count)*int64(elem) > int64(r.remaining())-8 {
		return nil, fmt.Errorf("codec: %s declares %d elements, only %d bytes remain", field, count, r.remaining())
	}
	rawScale, err := r.bytes(8)
	if err != nil {
		return nil, err
	}
	scale := math.Float64frombits(binary.LittleEndian.Uint64(rawScale))
	if math.IsNaN(scale) || math.IsInf(scale, 0) || scale < 0 {
		return nil, fmt.Errorf("codec: %s quantization scale is invalid (%v)", field, scale)
	}
	raw, err := r.bytes(int(count) * elem)
	if err != nil {
		return nil, err
	}
	out := make([]float64, count)
	for i := range out {
		var q float64
		if wide {
			q = float64(int16(binary.LittleEndian.Uint16(raw[i*2:])))
		} else {
			q = float64(int8(raw[i]))
		}
		x := q * scale
		if math.IsInf(x, 0) {
			return nil, fmt.Errorf("codec: %s element %d overflows under scale %v", field, i, scale)
		}
		out[i] = x
	}
	return out, nil
}
