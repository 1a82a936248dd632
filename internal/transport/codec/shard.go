package codec

import (
	"encoding/binary"
	"fmt"
	"math"

	"fifl/internal/faults"
	"fifl/internal/frame"
)

// Shard frames carry the 1-level hierarchical federation protocol: an edge
// aggregator (shard) registers its contiguous worker cohort, then per
// round exchanges three evidence/instruction pairs with the root —
//
//	root  → shard  directive  collect {params, servers}
//	shard → root   submit     collect {statuses, retries, server grads}
//	root  → shard  directive  detect  {benchmark, owners, threshold}
//	shard → root   submit     detect  {scores, accepts, weight, partial}
//	root  → shard  directive  dist    {global}
//	shard → root   submit     dist    {distances}
//
// — so full worker gradients never leave the shard except for cohort
// members serving in the global benchmark cluster. Directives are
// broadcast on a monotonically increasing sequence number; a shard that
// misses a phase (e.g. the root degraded the round) simply dispatches on
// the next directive's round/phase pair. Both frame types share the
// transport's header/CRC layout and hardening rules; score and distance
// vectors, whose application values may legitimately be NaN or -Inf,
// travel as a kind/validity mask plus finite placeholders so the codec's
// non-finite rejection holds.

// ShardPhase labels one step of the per-round shard protocol.
type ShardPhase uint8

// Protocol phases. Submissions use Hello..Dist; directives use
// Collect..Done.
const (
	// ShardPhaseHello registers a shard and its cohort with the root.
	ShardPhaseHello ShardPhase = 1
	// ShardPhaseCollect carries collection evidence (and, on the directive
	// side, the round's parameters and server cluster).
	ShardPhaseCollect ShardPhase = 2
	// ShardPhaseDetect carries detection evidence and the pre-aggregated
	// partial (directive side: the composite benchmark).
	ShardPhaseDetect ShardPhase = 3
	// ShardPhaseDist carries contribution distances (directive side: the
	// filtered global gradient).
	ShardPhaseDist ShardPhase = 4
	// ShardPhaseDone is the root's terminal directive: the federation
	// finished and shard loops should exit.
	ShardPhaseDone ShardPhase = 5
)

// String renders the phase for errors and logs.
func (p ShardPhase) String() string {
	switch p {
	case ShardPhaseHello:
		return "hello"
	case ShardPhaseCollect:
		return "collect"
	case ShardPhaseDetect:
		return "detect"
	case ShardPhaseDist:
		return "dist"
	case ShardPhaseDone:
		return "done"
	default:
		return fmt.Sprintf("phase(%d)", uint8(p))
	}
}

// ShardHello registers a shard's contiguous cohort [First, First+len(Samples)).
type ShardHello struct {
	// First is the cohort's first global worker index.
	First int
	// Samples is each cohort member's local dataset size, in cohort order.
	Samples []int
}

// ShardCollectEvidence is a shard's post-collection report: the fate of
// every cohort member's upload plus the full gradients of the members
// serving in the global benchmark cluster this round.
type ShardCollectEvidence struct {
	// Statuses and Retries index the cohort in order.
	Statuses []faults.UploadStatus
	Retries  []int
	// ServerIDs lists the GLOBAL worker indices whose gradients ride along
	// (cohort members of the round's server cluster with a usable upload);
	// ServerGrads[i] is ServerIDs[i]'s full local gradient.
	ServerIDs   []int
	ServerGrads [][]float64
}

// ShardDetectEvidence is a shard's detection verdict plus its
// pre-aggregated partial sum.
type ShardDetectEvidence struct {
	// Scores holds each cohort member's detection score; NaN for members
	// without an upload, -Inf for malformed/NaN-poisoned ones. (On the
	// wire non-finite scores travel as a kind mask.)
	Scores []float64
	// Accept holds each member's r_i verdict.
	Accept []bool
	// Weight is the shard's scalar aggregation mass T_s = Σ w_i·n_i over
	// accepted arrivals.
	Weight float64
	// Partial is the shard's UNNORMALIZED pre-aggregate
	// P_s = Σ w_i·n_i·G_i over accepted arrivals in cohort order; nil when
	// no gradient survived.
	Partial []float64
}

// ShardDistEvidence carries each cohort member's squared distance to the
// filtered global gradient; NaN marks members without a usable upload.
type ShardDistEvidence struct {
	Dists []float64
}

// ShardSubmit is one shard's per-phase upload to the root. Exactly one of
// the phase payloads is non-nil, matching Phase.
type ShardSubmit struct {
	Shard   int
	Round   int // 0 for hello
	Phase   ShardPhase
	Hello   *ShardHello
	Collect *ShardCollectEvidence
	Detect  *ShardDetectEvidence
	Dist    *ShardDistEvidence
}

// ShardDirective is the root's per-phase broadcast. Seq increases by one
// per directive; shards long-poll for seq > last-seen.
type ShardDirective struct {
	Seq   int
	Round int // 0 for done
	Phase ShardPhase
	// Collect: the round's global parameters and server cluster.
	Params  []float64
	Servers []int
	// Detect: the composite benchmark (nil = no server upload survived,
	// shards accept arrivals), region owners and the S_y threshold.
	Benchmark []float64
	Owners    []int
	Threshold float64
	// Dist: the filtered global gradient (nil = degenerate round, shards
	// skip the phase).
	Global []float64
}

// Score kind bytes for the wire mask.
const (
	scoreFinite byte = 0
	scoreNaN    byte = 1
	scoreNegInf byte = 2
)

// putInts appends a u32-count-prefixed list of u32 values.
func (w *writer) putInts(v []int, field string) error {
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

// shardSubmitSize is the body size EncodeShardSubmit writes for s, byte
// for byte; a payload the encoder rejects may be sized arbitrarily.
func shardSubmitSize(s ShardSubmit) int {
	n := 9 // shard u32, round u32, phase u8
	switch {
	case s.Phase == ShardPhaseHello && s.Hello != nil:
		n += 8 + 4*len(s.Hello.Samples)
	case s.Phase == ShardPhaseCollect && s.Collect != nil:
		n += 8 + 5*len(s.Collect.Statuses) // counts, statuses, retries
		for _, g := range s.Collect.ServerGrads {
			n += 4 + vecSize(len(g), CompressionNone)
		}
	case s.Phase == ShardPhaseDetect && s.Detect != nil:
		k := len(s.Detect.Scores) // count, kinds, scores, accepts, weight, flag
		n += 4 + 2*k + vecSize(k, CompressionNone) + vecSize(1, CompressionNone) + 1
		if s.Detect.Partial != nil {
			n += vecSize(len(s.Detect.Partial), CompressionNone)
		}
	case s.Phase == ShardPhaseDist && s.Dist != nil:
		k := len(s.Dist.Dists) // count, validity, values
		n += 4 + k + vecSize(k, CompressionNone)
	}
	return n
}

// shardDirectiveSize is the body size EncodeShardDirective writes for d,
// byte for byte.
func shardDirectiveSize(d ShardDirective) int {
	n := 9 // seq u32, round u32, phase u8
	switch d.Phase {
	case ShardPhaseCollect:
		n += vecSize(len(d.Params), CompressionNone) + 4 + 4*len(d.Servers)
	case ShardPhaseDetect:
		n += 1 + vecSize(1, CompressionNone) // flag, threshold
		if d.Benchmark != nil {
			n += vecSize(len(d.Benchmark), CompressionNone) + 4 + 4*len(d.Owners)
		}
	case ShardPhaseDist:
		n++ // flag
		if d.Global != nil {
			n += vecSize(len(d.Global), CompressionNone)
		}
	}
	return n
}

// EncodeShardSubmit encodes one shard's per-phase evidence. Shard frames
// are always dense float64: the payloads are either tiny or already
// pre-aggregated, and the root's bit-identity guarantee rests on them.
func EncodeShardSubmit(s ShardSubmit) ([]byte, error) {
	if err := checkU32(s.Shard, "shard index"); err != nil {
		return nil, err
	}
	if err := checkU32(s.Round, "shard round"); err != nil {
		return nil, err
	}
	w := newWriter(TypeShardSubmit, 0, shardSubmitSize(s))
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

// DecodeShardSubmit decodes one shard's per-phase evidence. Like every
// decoder in this package it never panics; non-finite application values
// (absent scores, -Inf rejections, invalid distances) are reconstituted
// from their wire masks.
func DecodeShardSubmit(b []byte) (ShardSubmit, error) {
	r, _ := open(b, TypeShardSubmit)
	s := ShardSubmit{
		Shard: int(r.U32("shard index")),
		Round: int(r.U32("shard round")),
		Phase: ShardPhase(r.Byte("shard phase")),
	}
	switch s.Phase {
	case ShardPhaseHello:
		s.Hello = &ShardHello{First: int(r.U32("shard first")), Samples: r.Uint32s("shard samples")}
	case ShardPhaseCollect:
		s.Collect = readCollectEvidence(&r)
	case ShardPhaseDetect:
		s.Detect = readDetectEvidence(&r)
	case ShardPhaseDist:
		s.Dist = readDistEvidence(&r)
	default:
		r.Failf("shard submit phase %s unknown", s.Phase)
	}
	if err := r.Done(); err != nil {
		return ShardSubmit{}, err
	}
	return s, nil
}

// readCollectEvidence reads a collect submit's payload.
func readCollectEvidence(r *frame.Reader) *ShardCollectEvidence {
	raw := r.Bytes(r.Count(1, "collect statuses"), "collect statuses")
	c := &ShardCollectEvidence{Statuses: make([]faults.UploadStatus, len(raw))}
	for i, st := range raw {
		if faults.UploadStatus(st) > faults.StatusPending {
			r.Failf("collect status %d for member %d unknown", st, i)
		}
		c.Statuses[i] = faults.UploadStatus(st)
	}
	retries := r.Bytes(4*len(raw), "collect retries")
	c.Retries = make([]int, len(raw))
	for i := range len(retries) / 4 {
		c.Retries[i] = int(binary.LittleEndian.Uint32(retries[4*i:]))
	}
	// Each server entry occupies at least 8 bytes (id + empty vec).
	n := r.Count(8, "collect server gradients")
	c.ServerIDs = make([]int, n)
	c.ServerGrads = make([][]float64, n)
	for i := range c.ServerIDs {
		c.ServerIDs[i] = int(r.U32("collect server id"))
		c.ServerGrads[i] = readVec(r, CompressionNone, "collect server gradient")
	}
	return c
}

// readDetectEvidence reads a detect submit's payload, reconstituting
// absent (NaN) and rejected (-Inf) scores from the kind mask.
func readDetectEvidence(r *frame.Reader) *ShardDetectEvidence {
	kinds := r.Bytes(r.Count(1, "detect score kinds"), "detect score kinds")
	d := &ShardDetectEvidence{Scores: readVec(r, CompressionNone, "detect scores")}
	if len(d.Scores) != len(kinds) {
		r.Failf("detect evidence carries %d scores for %d members", len(d.Scores), len(kinds))
		kinds = nil
	}
	for i, kind := range kinds {
		switch kind {
		case scoreFinite:
		case scoreNaN:
			d.Scores[i] = math.NaN()
		case scoreNegInf:
			d.Scores[i] = math.Inf(-1)
		default:
			r.Failf("detect score kind %d for member %d unknown", kind, i)
		}
	}
	d.Accept = r.Bools(len(kinds), "detect accepts")
	if wv := readVec(r, CompressionNone, "detect weight"); len(wv) != 1 || wv[0] < 0 {
		r.Failf("detect weight payload %v is not one non-negative mass", wv)
	} else {
		d.Weight = wv[0]
	}
	if r.Bool("detect partial flag") {
		d.Partial = readVec(r, CompressionNone, "detect partial")
	}
	return d
}

// readDistEvidence reads a dist submit's payload; NaN marks members
// the validity mask flags as without a usable upload.
func readDistEvidence(r *frame.Reader) *ShardDistEvidence {
	valid := r.Bools(r.Count(1, "dist validity"), "dist validity")
	dists := readVec(r, CompressionNone, "dist values")
	if len(dists) != len(valid) {
		r.Failf("dist evidence carries %d values for %d members", len(dists), len(valid))
		valid = nil
	}
	for i, ok := range valid {
		if !ok {
			dists[i] = math.NaN()
		} else if dists[i] < 0 {
			r.Failf("distance %d is negative", i)
		}
	}
	return &ShardDistEvidence{Dists: dists}
}

// EncodeShardDirective encodes a root broadcast. Directives, like
// submissions, are always dense float64.
func EncodeShardDirective(d ShardDirective) ([]byte, error) {
	if err := checkU32(d.Seq, "directive seq"); err != nil {
		return nil, err
	}
	if err := checkU32(d.Round, "directive round"); err != nil {
		return nil, err
	}
	w := newWriter(TypeShardDirective, 0, shardDirectiveSize(d))
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

// DecodeShardDirective decodes a root broadcast.
func DecodeShardDirective(b []byte) (ShardDirective, error) {
	r, _ := open(b, TypeShardDirective)
	d := ShardDirective{
		Seq:   int(r.U32("directive seq")),
		Round: int(r.U32("directive round")),
		Phase: ShardPhase(r.Byte("directive phase")),
	}
	switch d.Phase {
	case ShardPhaseCollect:
		d.Params = readVec(&r, CompressionNone, "directive parameters")
		d.Servers = r.Uint32s("directive servers")
	case ShardPhaseDetect:
		if r.Bool("benchmark flag") {
			d.Benchmark = readVec(&r, CompressionNone, "directive benchmark")
			if d.Owners = r.Uint32s("directive owners"); len(d.Owners) == 0 {
				r.Failf("detect directive carries a benchmark but no owners")
			}
		}
		if tv := readVec(&r, CompressionNone, "directive threshold"); len(tv) != 1 {
			r.Failf("directive threshold payload has %d elements, want 1", len(tv))
		} else {
			d.Threshold = tv[0]
		}
	case ShardPhaseDist:
		if r.Bool("global flag") {
			d.Global = readVec(&r, CompressionNone, "directive global")
		}
	case ShardPhaseDone:
	default:
		r.Failf("shard directive phase %s unknown", d.Phase)
	}
	if err := r.Done(); err != nil {
		return ShardDirective{}, err
	}
	return d, nil
}
