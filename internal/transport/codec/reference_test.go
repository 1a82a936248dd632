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
