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

// The reference implementations the differential tests compare against.
// Two are written for the tests: refVerify, the serial walk of the sealed
// rule, and refMerkleRoot. The rest are verbatim copies of code the ledger
// has replaced, the only edits being the ref prefix, calls into each other
// and the export codec taking its version tag as a parameter:
//
//   - the version 1 ledger (FIFLCHN1), in which every record carried its
//     executor's signature over (prevHash ‖ payload): its per-record
//     signer refAppendV1 (once Ledger.seal) and serial verifier
//     refVerifyV1, the oracle for what the sealed format must still hold;
//   - the Scan-based Query and Audit, and the reflection-based export
//     codec, as they stood before the read plane was rebuilt (DESIGN
//     §4.21); the layout is unchanged from version 1 to 2.

// v1Magic tags a version 1 export, which the shipped reader refuses.
const v1Magic = "FIFLCHN1"

// payload serializes the record deterministically for hashing and signing.
func (r Record) payload() []byte { return r.appendPayload(nil) }

// refAppendV1 signs r as s on top of the current tip and pushes the block,
// the version 1 way.
func refAppendV1(l *Ledger, s *Signer, r Record) Block {
	l.mu.Lock()
	defer l.mu.Unlock()
	r.Executor = s.Name
	var prev [32]byte
	if n := l.blocks.len(); n > 0 {
		prev = l.blocks.at(n - 1).Hash
	}
	l.scratch = append(l.scratch[:0], prev[:]...)
	l.scratch = r.appendPayload(l.scratch)
	sig := ed25519.Sign(s.priv, l.scratch)
	b := Block{
		Index:     l.blocks.len(),
		PrevHash:  prev,
		Record:    r,
		Signature: sig,
	}
	l.scratch = append(l.scratch, sig...)
	b.Hash = sha256.Sum256(l.scratch)
	l.push(b)
	return b
}

// refVerifyV1 is the version 1 serial walk: the index of the first bad
// block wrapped around ErrTampered, or nil.
func refVerifyV1(l *Ledger) error {
	l.mu.RLock()
	defer l.mu.RUnlock()
	var prev [32]byte
	for i, b := range l.blocks.list() {
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

// refMerkleRoot is RFC 6962's Merkle tree hash as the RFC defines it,
// recursively: a leaf hashes under prefix 0, and a longer list splits at
// the largest power of two below its length, the halves hashing under
// prefix 1.
func refMerkleRoot(leaves [][32]byte) [32]byte {
	if len(leaves) == 1 {
		return sha256.Sum256(append([]byte{0}, leaves[0][:]...))
	}
	k := 1
	for 2*k < len(leaves) {
		k *= 2
	}
	left, right := refMerkleRoot(leaves[:k]), refMerkleRoot(leaves[k:])
	return sha256.Sum256(append(append([]byte{1}, left[:]...), right[:]...))
}

// refVerify walks the sealed chain block by block, carrying the open
// batch's state forward, and returns Verify's verdict. Per block, in order:
// the hash link, a registered executor, the hash, the batch rule (an
// executor that has sealed in the open batch writes nothing more in it),
// and for a block with a signature — a seal — the signature over the tip
// before the batch and the Merkle root of the executor's leaves in it. A
// batch opens at the first block after the previous one closed and closes
// once every executor that has written in it has sealed; a chain that ends
// inside a batch fails as an unsealed tail.
func refVerify(l *Ledger) error {
	l.mu.RLock()
	defer l.mu.RUnlock()
	var (
		prev, batchTip [32]byte
		batchStart     int
		order          []string                  // the open batch's executors, as they appeared
		sealedAt       = map[string]int{}        // executor -> its seal in the open batch, or -1
		leaves         = map[string][][32]byte{} // executor -> its leaves in the open batch
	)
	for i, b := range l.blocks.list() {
		if b.PrevHash != prev {
			return fmt.Errorf("%w: block %d has broken hash link", ErrTampered, i)
		}
		e := b.Record.Executor
		pub, ok := l.keys[e]
		if !ok {
			return fmt.Errorf("%w: block %d written by unknown executor %q", ErrTampered, i, e)
		}
		msg := append(b.PrevHash[:], b.Record.payload()...)
		leaf := sha256.Sum256(msg)
		if sha256.Sum256(append(msg, b.Signature...)) != b.Hash {
			return fmt.Errorf("%w: block %d hash mismatch", ErrTampered, i)
		}
		if len(order) == 0 {
			batchTip, batchStart = prev, i
		}
		at, seen := sealedAt[e]
		if seen && at >= 0 {
			return fmt.Errorf("%w: block %d by %q follows its executor's seal at block %d", ErrTampered, i, e, at)
		}
		if !seen {
			order = append(order, e)
			sealedAt[e] = -1
		}
		leaves[e] = append(leaves[e], leaf)
		if len(b.Signature) > 0 {
			root := refMerkleRoot(leaves[e])
			sealed := append(append([]byte(sealDomain), batchTip[:]...), root[:]...)
			if !ed25519.Verify(pub, sealed, b.Signature) {
				return fmt.Errorf("%w: block %d has an invalid seal by %q", ErrTampered, i, e)
			}
			sealedAt[e] = i
			closed := true
			for _, o := range order {
				closed = closed && sealedAt[o] >= 0
			}
			if closed {
				order, sealedAt, leaves = nil, map[string]int{}, map[string][][32]byte{}
			}
		}
		prev = b.Hash
	}
	for _, e := range order {
		if sealedAt[e] < 0 {
			return fmt.Errorf("%w: unsealed tail: the batch from block %d ends before %q seals", ErrTampered, batchStart, e)
		}
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
func refWriteBinaryFrom(magic string, l *Ledger, w io.Writer, from int) error {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if from < 0 || from > l.blocks.len() {
		return fmt.Errorf("chain: export offset %d out of range [0,%d]", from, l.blocks.len())
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(magic); err != nil {
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
	if err := binary.Write(bw, binary.LittleEndian, uint32(l.blocks.len()-from)); err != nil {
		return fmt.Errorf("chain: writing block count: %w", err)
	}
	for _, b := range l.blocks.list()[from:] {
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
func refStreamExport(magic string, r io.Reader, keyFn func(string, ed25519.PublicKey) error, fn func(Block) error) error {
	br := bufio.NewReader(r)
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(br, head); err != nil {
		return fmt.Errorf("chain: reading export header: %w", err)
	}
	if string(head) != magic {
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
