// Package codec is the wire format of the FIFL transport layer: a
// deterministic, versioned binary encoding for the messages a networked
// federation exchanges — worker hellos, gradient uploads, global-model
// broadcasts, reputation/reward reports and ledger exports.
//
// Every frame shares one layout:
//
//	magic "FIFL" | version u8 | type u8 | flags u8 | reserved u8
//	  ... type-specific fixed fields (little-endian) ...
//	  ... length-prefixed payload vectors ...
//	crc32 (IEEE, little-endian) over everything before it
//
// Gradient and parameter payloads default to length-prefixed float64
// arrays in little-endian bit order, so a float64 round-trips bit-exactly
// — the property the transport's "bit-identical to the in-process engine"
// guarantee rests on. The compression flag bits switch a frame's vector
// payloads to one of the lossy layouts (dense float32, top-k sparse,
// int8/int16 quantized — see Compression); each side of a connection
// picks its mode per request, and decoders accept every mode.
//
// Decoders are hardened against adversarial bytes: unknown
// versions/types/flags are rejected, the CRC is verified before any field
// is parsed, and the body is read through internal/frame's Reader, which
// checks every declared length against the remaining input before
// allocating and keeps the first error, so each decoder checks once per
// frame. Non-finite vector elements (NaN, ±Inf) are refused so a
// malicious worker cannot inject detection-poisoning values below the
// application layer. The decoders never panic; the package's fuzz targets
// hold each of them to the verdict and value of the per-field decoder it
// replaced (reference_test.go).
package codec

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"slices"

	"fifl/internal/faults"
	"fifl/internal/frame"
)

// Magic opens every frame.
const Magic = "FIFL"

// Version is the wire-format version this package speaks. Decoders reject
// frames from other versions, so incompatible format changes must bump it.
const Version = 1

// MsgType labels what a frame carries.
type MsgType uint8

// Message types of wire-format version 1.
const (
	// TypeHello registers a worker with the coordinator before round 0.
	TypeHello MsgType = 1
	// TypeUpload carries one worker's local gradient for one round.
	TypeUpload MsgType = 2
	// TypeModel broadcasts the global parameters for one round.
	TypeModel MsgType = 3
	// TypeReport carries one round's assessment: statuses, reputations and
	// rewards.
	TypeReport MsgType = 4
	// TypeLedger wraps a chain binary export (see chain.WriteBinary).
	TypeLedger MsgType = 5
	// TypeShardSubmit carries one edge aggregator's per-phase evidence for
	// one round of a hierarchical federation (see shard.go).
	TypeShardSubmit MsgType = 6
	// TypeShardDirective is the root's per-phase instruction broadcast to
	// its edge aggregators (see shard.go).
	TypeShardDirective MsgType = 7
)

// String renders the message type for errors and logs.
func (t MsgType) String() string {
	switch t {
	case TypeHello:
		return "hello"
	case TypeUpload:
		return "upload"
	case TypeModel:
		return "model"
	case TypeReport:
		return "report"
	case TypeLedger:
		return "ledger"
	case TypeShardSubmit:
		return "shard-submit"
	case TypeShardDirective:
		return "shard-directive"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// Frame flags. The four compression bits are mutually exclusive — Type
// rejects frames that set more than one.
const (
	// FlagFloat32 switches the frame's vector payloads to float32 (half
	// the bytes, lossy) — CompressionF32.
	FlagFloat32 uint8 = 1 << 0
	// FlagDone on a model frame tells workers the federation has finished;
	// the frame carries no parameters.
	FlagDone uint8 = 1 << 1
	// FlagCommitted on a report frame records that the round met its
	// quorum.
	FlagCommitted uint8 = 1 << 2
	// FlagTopK switches vector payloads to top-k sparse (index, float32)
	// pairs — CompressionTopK.
	FlagTopK uint8 = 1 << 3
	// FlagInt8 switches vector payloads to 8-bit symmetric quantization —
	// CompressionInt8.
	FlagInt8 uint8 = 1 << 4
	// FlagInt16 switches vector payloads to 16-bit symmetric quantization
	// — CompressionInt16.
	FlagInt16 uint8 = 1 << 5

	compressionFlags = FlagFloat32 | FlagTopK | FlagInt8 | FlagInt16
	knownFlags       = compressionFlags | FlagDone | FlagCommitted
)

// headerSize is magic + version + type + flags + reserved.
const headerSize = len(Magic) + 4

// crcSize trails every frame.
const crcSize = 4

// Hello registers a worker with the coordinator: its stable federation
// index and its local dataset size (the n_i aggregation weight the
// coordinator will trust for the whole run).
type Hello struct {
	Worker  int
	Samples int
}

// Upload is one worker's gradient submission for one round.
type Upload struct {
	Round   int
	Worker  int
	Samples int
	Grad    []float64
}

// Model is the global-parameter broadcast for one round. Done marks the
// federation's final frame; a done frame carries no parameters.
type Model struct {
	Round  int
	Done   bool
	Params []float64
}

// Report is one round's public assessment: each worker's upload status in
// the shared faults vocabulary, its reputation after the round, and its
// reward. Committed records whether the round met its quorum.
type Report struct {
	Round       int
	Committed   bool
	Statuses    []faults.UploadStatus
	Reputations []float64
	Rewards     []float64
}

// writer accumulates a frame. Every encoder passes newWriter the exact
// body size it is about to write, so a frame is one allocation whose
// capacity equals its length.
type writer struct{ b []byte }

func newWriter(t MsgType, flags uint8, bodySize int) *writer {
	w := &writer{b: make([]byte, 0, headerSize+bodySize+crcSize)}
	w.b = append(w.b, Magic...)
	w.b = append(w.b, Version, byte(t), flags, 0)
	return w
}

func (w *writer) u32(v uint32) {
	w.b = binary.LittleEndian.AppendUint32(w.b, v)
}

// extend lengthens the frame by n bytes and returns them for the caller
// to fill.
func (w *writer) extend(n int) []byte {
	off := len(w.b)
	w.b = slices.Grow(w.b, n)[:off+n]
	return w.b[off:]
}

// vecSize is the wire size of an n-element vector in layout c — the
// count prefix included — matching what vec writes byte for byte.
func vecSize(n int, c Compression) int {
	switch c {
	case CompressionF32:
		return 4 + 4*n
	case CompressionTopK:
		return 8 + 8*topKCount(n)
	case CompressionInt8:
		return 12 + n
	case CompressionInt16:
		return 12 + 2*n
	default:
		return 4 + 8*n
	}
}

// vec appends a vector in the frame's negotiated layout (see the
// Compression modes in compression.go for the per-mode wire formats).
func (w *writer) vec(v []float64, c Compression) {
	switch c {
	case CompressionF32:
		w.u32(uint32(len(v)))
		dst := w.extend(4 * len(v))
		for i, x := range v {
			binary.LittleEndian.PutUint32(dst[4*i:], math.Float32bits(float32(x)))
		}
	case CompressionTopK:
		w.writeTopK(v)
	case CompressionInt8:
		w.writeQuantized(v, 127, false)
	case CompressionInt16:
		w.writeQuantized(v, 32767, true)
	default:
		w.u32(uint32(len(v)))
		dst := w.extend(8 * len(v))
		for i, x := range v {
			binary.LittleEndian.PutUint64(dst[8*i:], math.Float64bits(x))
		}
	}
}

// seal appends the CRC and returns the finished frame.
func (w *writer) seal() []byte {
	return binary.LittleEndian.AppendUint32(w.b, crc32.ChecksumIEEE(w.b))
}

// readVec reads a vector in the frame's negotiated layout, rejecting
// non-finite elements. A dense layout is one bounds check and one loop;
// sparse frames additionally cap their declared dense dimension (see
// maxSparseDim).
func readVec(r *frame.Reader, c Compression, field string) []float64 {
	switch c {
	case CompressionTopK:
		return readTopK(r, field)
	case CompressionInt8:
		return readQuantized(r, field, false)
	case CompressionInt16:
		return readQuantized(r, field, true)
	}
	elem := 8
	if c == CompressionF32 {
		elem = 4
	}
	raw := r.Bytes(elem*r.Count(elem, field), field)
	out := make([]float64, len(raw)/elem)
	for i := range out {
		var x float64
		if c == CompressionF32 {
			x = float64(math.Float32frombits(binary.LittleEndian.Uint32(raw[i*4:])))
		} else {
			x = math.Float64frombits(binary.LittleEndian.Uint64(raw[i*8:]))
		}
		if math.IsNaN(x) || math.IsInf(x, 0) {
			r.Failf("%s element %d is non-finite", field, i)
			return nil
		}
		out[i] = x
	}
	return out
}

// checkFinite rejects vectors the encoder must not put on the wire.
func checkFinite(v []float64, field string) error {
	for i, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("codec: %s element %d is non-finite", field, i)
		}
	}
	return nil
}

// checkU32 rejects fixed fields outside the wire range.
func checkU32(v int, field string) error {
	if v < 0 || int64(v) > math.MaxUint32 {
		return fmt.Errorf("codec: %s %d outside the wire range [0, 2^32)", field, v)
	}
	return nil
}

// Type classifies a frame without decoding it: it validates the magic,
// version and flag bits and returns the message type. The CRC is NOT
// checked here — callers dispatch on Type and let the per-type decoder
// verify integrity.
func Type(b []byte) (MsgType, error) {
	if len(b) < headerSize+crcSize {
		return 0, fmt.Errorf("codec: frame of %d bytes is shorter than any message", len(b))
	}
	if string(b[:len(Magic)]) != Magic {
		return 0, fmt.Errorf("codec: bad magic %q", b[:len(Magic)])
	}
	if b[4] != Version {
		return 0, fmt.Errorf("codec: unsupported wire version %d (speaking %d)", b[4], Version)
	}
	if b[6]&^knownFlags != 0 {
		return 0, fmt.Errorf("codec: unknown flag bits %#x", b[6]&^knownFlags)
	}
	if comp := b[6] & compressionFlags; comp&(comp-1) != 0 {
		return 0, fmt.Errorf("codec: conflicting compression flag bits %#x", comp)
	}
	t := MsgType(b[5])
	switch t {
	case TypeHello, TypeUpload, TypeModel, TypeReport, TypeLedger,
		TypeShardSubmit, TypeShardDirective:
		return t, nil
	default:
		return 0, fmt.Errorf("codec: unknown message type %d", b[5])
	}
}

// open validates a frame end to end — header, expected type and CRC — and
// returns a reader positioned at the body plus the frame's flags. A frame
// that fails validation comes back as a failed reader, so its decoder
// still checks once, at Done.
func open(b []byte, want MsgType) (frame.Reader, uint8) {
	t, err := Type(b)
	if err == nil && t != want {
		err = fmt.Errorf("codec: got a %s frame, want %s", t, want)
	}
	if err != nil {
		var r frame.Reader
		r.Fail(err)
		return r, 0
	}
	return frame.Open(b, headerSize, "codec"), b[6]
}

// EncodeHello encodes a worker registration.
func EncodeHello(h Hello) ([]byte, error) {
	if err := checkU32(h.Worker, "hello worker"); err != nil {
		return nil, err
	}
	if err := checkU32(h.Samples, "hello samples"); err != nil {
		return nil, err
	}
	w := newWriter(TypeHello, 0, 8)
	w.u32(uint32(h.Worker))
	w.u32(uint32(h.Samples))
	return w.seal(), nil
}

// DecodeHello decodes a worker registration.
func DecodeHello(b []byte) (Hello, error) {
	r, _ := open(b, TypeHello)
	h := Hello{Worker: int(r.U32("hello worker")), Samples: int(r.U32("hello samples"))}
	if err := r.Done(); err != nil {
		return Hello{}, err
	}
	return h, nil
}

// EncodeUpload encodes a gradient submission in the given compression
// mode. Every mode except CompressionNone is lossy and forfeits the
// transport's bit-identity guarantee for this frame.
func EncodeUpload(u Upload, c Compression) ([]byte, error) {
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
	w := newWriter(TypeUpload, c.flag(), 12+vecSize(len(u.Grad), c))
	w.u32(uint32(u.Round))
	w.u32(uint32(u.Worker))
	w.u32(uint32(u.Samples))
	w.vec(u.Grad, c)
	return w.seal(), nil
}

// DecodeUpload decodes a gradient submission. It never panics: malformed,
// truncated or corrupted frames — and frames smuggling NaN/Inf gradient
// elements — are reported as errors.
func DecodeUpload(b []byte) (Upload, error) {
	r, flags := open(b, TypeUpload)
	// Calls in a composite literal run left to right: the wire order.
	u := Upload{
		Round:   int(r.U32("upload round")),
		Worker:  int(r.U32("upload worker")),
		Samples: int(r.U32("upload samples")),
		Grad:    readVec(&r, CompressionFromFlags(flags), "upload gradient"),
	}
	if err := r.Done(); err != nil {
		return Upload{}, err
	}
	return u, nil
}

// EncodeModel encodes a global-parameter broadcast. A done frame must
// carry no parameters. Parameters are a dense quantity, so
// CompressionTopK degrades to CompressionF32 — the negotiation rule
// DESIGN.md §4.15 documents: a worker that asked for sparse uploads still
// receives every parameter.
func EncodeModel(m Model, c Compression) ([]byte, error) {
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
	w := newWriter(TypeModel, flags, 4+vecSize(len(m.Params), c))
	w.u32(uint32(m.Round))
	w.vec(m.Params, c)
	return w.seal(), nil
}

// DecodeModel decodes a global-parameter broadcast.
func DecodeModel(b []byte) (Model, error) {
	r, flags := open(b, TypeModel)
	m := Model{
		Round:  int(r.U32("model round")),
		Done:   flags&FlagDone != 0,
		Params: readVec(&r, CompressionFromFlags(flags), "model parameters"),
	}
	if m.Done && len(m.Params) > 0 {
		r.Failf("done model frame carries %d parameters", len(m.Params))
	}
	if err := r.Done(); err != nil {
		return Model{}, err
	}
	return m, nil
}

// EncodeReport encodes a round assessment. Statuses, Reputations and
// Rewards must agree on the federation size. Like model broadcasts, the
// per-worker vectors are dense, so CompressionTopK degrades to
// CompressionF32.
func EncodeReport(rep Report, c Compression) ([]byte, error) {
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
	w := newWriter(TypeReport, flags, 8+n+2*vecSize(n, c))
	w.u32(uint32(rep.Round))
	w.u32(uint32(n))
	for _, s := range rep.Statuses {
		w.b = append(w.b, byte(s))
	}
	w.vec(rep.Reputations, c)
	w.vec(rep.Rewards, c)
	return w.seal(), nil
}

// DecodeReport decodes a round assessment.
func DecodeReport(b []byte) (Report, error) {
	r, flags := open(b, TypeReport)
	rep := Report{Round: int(r.U32("report round")), Committed: flags&FlagCommitted != 0}
	raw := r.Bytes(r.Count(1, "report statuses"), "report statuses")
	rep.Statuses = make([]faults.UploadStatus, len(raw))
	for i, s := range raw {
		if faults.UploadStatus(s) > faults.StatusPending {
			r.Failf("report status %d for worker %d unknown", s, i)
		}
		rep.Statuses[i] = faults.UploadStatus(s)
	}
	comp := CompressionFromFlags(flags)
	rep.Reputations = readVec(&r, comp, "report reputations")
	rep.Rewards = readVec(&r, comp, "report rewards")
	if n := len(rep.Statuses); len(rep.Reputations) != n || len(rep.Rewards) != n {
		r.Failf("report shape mismatch: %d statuses, %d reputations, %d rewards",
			n, len(rep.Reputations), len(rep.Rewards))
	}
	if err := r.Done(); err != nil {
		return Report{}, err
	}
	return rep, nil
}

// EncodeLedger frames a chain binary export (an opaque byte payload; see
// chain.WriteBinary for its inner format) with the transport's header and
// CRC.
func EncodeLedger(export []byte) ([]byte, error) {
	if int64(len(export)) > math.MaxUint32 {
		return nil, fmt.Errorf("codec: ledger export of %d bytes exceeds the wire range", len(export))
	}
	w := newWriter(TypeLedger, 0, 4+len(export))
	w.u32(uint32(len(export)))
	w.b = append(w.b, export...)
	return w.seal(), nil
}

// DecodeLedger unwraps a framed chain binary export.
func DecodeLedger(b []byte) ([]byte, error) {
	r, _ := open(b, TypeLedger)
	export := r.Bytes(r.Count(1, "ledger export"), "ledger export")
	if err := r.Done(); err != nil {
		return nil, err
	}
	return append([]byte(nil), export...), nil
}
