package nn

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// The checkpoint format is a minimal, architecture-agnostic binary layout:
// a magic header, the number of parameter tensors, then each tensor's rank,
// shape and float64 payload in little-endian order. The architecture
// itself is NOT serialized — a checkpoint is loaded into a model built by
// the same Builder, and every shape is verified on load. This matches how
// the FL runtime already treats models (parameters move as flat vectors,
// architecture travels as a Builder).

// checkpointMagic identifies the format and its version.
const checkpointMagic = "FIFLCKPT1"

// Save writes the model's parameters to w in the FIFL checkpoint format.
// Every layer keeps all of its state in Params (the residual nets use
// GroupNorm, which has no running statistics), so the parameters are the
// model's whole state.
func (s *Sequential) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(checkpointMagic); err != nil {
		return fmt.Errorf("nn: writing checkpoint header: %w", err)
	}
	ts := s.Params()
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(ts))); err != nil {
		return fmt.Errorf("nn: writing tensor count: %w", err)
	}
	for i, t := range ts {
		shape := t.Shape()
		if err := binary.Write(bw, binary.LittleEndian, uint32(len(shape))); err != nil {
			return fmt.Errorf("nn: writing tensor %d rank: %w", i, err)
		}
		for _, d := range shape {
			if err := binary.Write(bw, binary.LittleEndian, uint32(d)); err != nil {
				return fmt.Errorf("nn: writing tensor %d shape: %w", i, err)
			}
		}
		var buf [8]byte
		for _, v := range t.Data() {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			if _, err := bw.Write(buf[:]); err != nil {
				return fmt.Errorf("nn: writing tensor %d data: %w", i, err)
			}
		}
	}
	return bw.Flush()
}

// Load restores a model's state from r. The model must have been built by
// the same Builder that produced the checkpoint; every tensor shape is
// verified and a descriptive error returned on mismatch.
func (s *Sequential) Load(r io.Reader) error {
	br := bufio.NewReader(r)
	head := make([]byte, len(checkpointMagic))
	if _, err := io.ReadFull(br, head); err != nil {
		return fmt.Errorf("nn: reading checkpoint header: %w", err)
	}
	if string(head) != checkpointMagic {
		return fmt.Errorf("nn: bad checkpoint header %q", head)
	}
	ts := s.Params()
	var count uint32
	if err := binary.Read(br, binary.LittleEndian, &count); err != nil {
		return fmt.Errorf("nn: reading tensor count: %w", err)
	}
	if int(count) != len(ts) {
		return fmt.Errorf("nn: checkpoint has %d tensors, model has %d", count, len(ts))
	}
	for i, t := range ts {
		var rank uint32
		if err := binary.Read(br, binary.LittleEndian, &rank); err != nil {
			return fmt.Errorf("nn: reading tensor %d rank: %w", i, err)
		}
		if int(rank) != t.Rank() {
			return fmt.Errorf("nn: tensor %d rank %d, model expects %d", i, rank, t.Rank())
		}
		for a := 0; a < int(rank); a++ {
			var d uint32
			if err := binary.Read(br, binary.LittleEndian, &d); err != nil {
				return fmt.Errorf("nn: reading tensor %d shape: %w", i, err)
			}
			if int(d) != t.Dim(a) {
				return fmt.Errorf("nn: tensor %d axis %d is %d, model expects %d", i, a, d, t.Dim(a))
			}
		}
		data := t.Data()
		var buf [8]byte
		for j := range data {
			if _, err := io.ReadFull(br, buf[:]); err != nil {
				return fmt.Errorf("nn: reading tensor %d data: %w", i, err)
			}
			data[j] = math.Float64frombits(binary.LittleEndian.Uint64(buf[:]))
		}
	}
	return nil
}
