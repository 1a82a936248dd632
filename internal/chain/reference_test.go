package chain

import (
	"bufio"
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sort"
)

// The reference implementations the differential tests compare against:
// verbatim copies of the ledger's serial Verify, Scan-based Query and
// Audit, and reflection-based export codec as they stood before the read
// plane was rebuilt (DESIGN §4.21). They exist only in this file; the only
// edits are the ref prefix and calls into each other.

// payload serializes the record deterministically for hashing and signing.
func (r Record) payload() []byte { return r.appendPayload(nil) }

// refVerify is the serial walk: the index of the first bad block wrapped
// around ErrTampered, or nil.
func refVerify(l *Ledger) error {
	l.mu.RLock()
	defer l.mu.RUnlock()
	var prev [32]byte
	for i, b := range l.blocks {
		if b.PrevHash != prev {
			return fmt.Errorf("%w: block %d has broken hash link", ErrTampered, i)
		}
		msg := append(b.PrevHash[:], b.Record.payload()...)
		pub, ok := l.keys[b.Record.Executor]
		if !ok {
			return fmt.Errorf("%w: block %d signed by unknown executor %q", ErrTampered, i, b.Record.Executor)
		}
		if !ed25519.Verify(pub, msg, b.Signature) {
			return fmt.Errorf("%w: block %d has invalid signature by %q", ErrTampered, i, b.Record.Executor)
		}
		want := sha256.Sum256(append(msg, b.Signature...))
		if b.Hash != want {
			return fmt.Errorf("%w: block %d hash mismatch", ErrTampered, i)
		}
		prev = b.Hash
	}
	return nil
}

// refQuery filters a whole-chain Scan.
func refQuery(l *Ledger, kind RecordKind, iteration, worker int) []Record {
	var out []Record
	_ = l.Scan(kind, func(r Record) error {
		if iteration >= 0 && r.Iteration != iteration {
			return nil
		}
		if worker >= 0 && r.WorkerID != worker {
			return nil
		}
		out = append(out, r)
		return nil
	})
	return out
}

// refAudit keeps the last match of a whole-chain Scan.
func refAudit(l *Ledger, kind RecordKind, iteration, worker int, recomputed, tol float64) (culprit string, err error) {
	var r Record
	found := false
	_ = l.Scan(kind, func(rec Record) error {
		if iteration >= 0 && rec.Iteration != iteration {
			return nil
		}
		if worker >= 0 && rec.WorkerID != worker {
			return nil
		}
		r, found = rec, true
		return nil
	})
	if !found {
		return "", fmt.Errorf("chain: no %s record for iteration %d worker %d", kind, iteration, worker)
	}
	if isNonFinite(r.Value) || isNonFinite(recomputed) || isNonFinite(tol) {
		return r.Executor, nil
	}
	if diff := r.Value - recomputed; diff > tol || diff < -tol {
		return r.Executor, nil
	}
	return "", nil
}

// refWriteBinaryFrom is the binary.Write export writer.
func refWriteBinaryFrom(l *Ledger, w io.Writer, from int) error {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if from < 0 || from > len(l.blocks) {
		return fmt.Errorf("chain: export offset %d out of range [0,%d]", from, len(l.blocks))
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(binaryMagic); err != nil {
		return fmt.Errorf("chain: writing export header: %w", err)
	}
	names := make([]string, 0, len(l.keys))
	for name := range l.keys {
		names = append(names, name)
	}
	sort.Strings(names)
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(names))); err != nil {
		return fmt.Errorf("chain: writing key count: %w", err)
	}
	for _, name := range names {
		if err := refWriteBytes(bw, []byte(name)); err != nil {
			return fmt.Errorf("chain: writing executor %q: %w", name, err)
		}
		if err := refWriteBytes(bw, l.keys[name]); err != nil {
			return fmt.Errorf("chain: writing key of %q: %w", name, err)
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(l.blocks)-from)); err != nil {
		return fmt.Errorf("chain: writing block count: %w", err)
	}
	for _, b := range l.blocks[from:] {
		if err := refWriteBlock(bw, b); err != nil {
			return fmt.Errorf("chain: writing block %d: %w", b.Index, err)
		}
	}
	return bw.Flush()
}

func refWriteBlock(w io.Writer, b Block) error {
	if err := binary.Write(w, binary.LittleEndian, uint32(b.Index)); err != nil {
		return err
	}
	if _, err := w.Write(b.PrevHash[:]); err != nil {
		return err
	}
	if _, err := w.Write(b.Hash[:]); err != nil {
		return err
	}
	if err := refWriteBytes(w, []byte(b.Record.Kind)); err != nil {
		return err
	}
	for _, v := range []uint64{uint64(b.Record.Iteration), uint64(b.Record.WorkerID), math.Float64bits(b.Record.Value)} {
		if err := binary.Write(w, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	if err := refWriteBytes(w, []byte(b.Record.Executor)); err != nil {
		return err
	}
	return refWriteBytes(w, b.Signature)
}

func refWriteBytes(w io.Writer, b []byte) error {
	if len(b) > math.MaxUint16 {
		return fmt.Errorf("field of %d bytes exceeds the export range", len(b))
	}
	if err := binary.Write(w, binary.LittleEndian, uint16(len(b))); err != nil {
		return err
	}
	_, err := w.Write(b)
	return err
}

// refStreamExport is the binary.Read export parser.
func refStreamExport(r io.Reader, keyFn func(string, ed25519.PublicKey) error, fn func(Block) error) error {
	br := bufio.NewReader(r)
	head := make([]byte, len(binaryMagic))
	if _, err := io.ReadFull(br, head); err != nil {
		return fmt.Errorf("chain: reading export header: %w", err)
	}
	if string(head) != binaryMagic {
		return fmt.Errorf("chain: bad export header %q", head)
	}
	var nKeys uint32
	if err := binary.Read(br, binary.LittleEndian, &nKeys); err != nil {
		return fmt.Errorf("chain: reading key count: %w", err)
	}
	for i := 0; i < int(nKeys); i++ {
		name, err := refReadBytes(br)
		if err != nil {
			return fmt.Errorf("chain: reading executor %d: %w", i, err)
		}
		key, err := refReadBytes(br)
		if err != nil {
			return fmt.Errorf("chain: reading key of %q: %w", name, err)
		}
		if len(key) != ed25519.PublicKeySize {
			return fmt.Errorf("chain: key of %q is %d bytes, want %d", name, len(key), ed25519.PublicKeySize)
		}
		if keyFn != nil {
			if err := keyFn(string(name), ed25519.PublicKey(key)); err != nil {
				return err
			}
		}
	}
	var nBlocks uint32
	if err := binary.Read(br, binary.LittleEndian, &nBlocks); err != nil {
		return fmt.Errorf("chain: reading block count: %w", err)
	}
	for i := 0; i < int(nBlocks); i++ {
		b, err := refReadBlock(br)
		if err != nil {
			return fmt.Errorf("chain: reading block %d: %w", i, err)
		}
		if err := fn(b); err != nil {
			return err
		}
	}
	return nil
}

func refReadBlock(r io.Reader) (Block, error) {
	var b Block
	var idx uint32
	if err := binary.Read(r, binary.LittleEndian, &idx); err != nil {
		return b, err
	}
	b.Index = int(idx)
	if _, err := io.ReadFull(r, b.PrevHash[:]); err != nil {
		return b, err
	}
	if _, err := io.ReadFull(r, b.Hash[:]); err != nil {
		return b, err
	}
	kind, err := refReadBytes(r)
	if err != nil {
		return b, err
	}
	b.Record.Kind = RecordKind(kind)
	var fields [3]uint64
	for i := range fields {
		if err := binary.Read(r, binary.LittleEndian, &fields[i]); err != nil {
			return b, err
		}
	}
	b.Record.Iteration = int(fields[0])
	b.Record.WorkerID = int(fields[1])
	b.Record.Value = math.Float64frombits(fields[2])
	exec, err := refReadBytes(r)
	if err != nil {
		return b, err
	}
	b.Record.Executor = string(exec)
	b.Signature, err = refReadBytes(r)
	return b, err
}

func refReadBytes(r io.Reader) ([]byte, error) {
	var n uint16
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return nil, err
	}
	out := make([]byte, n)
	if _, err := io.ReadFull(r, out); err != nil {
		return nil, err
	}
	return out, nil
}
