package chain

import (
	"bufio"
	"bytes"
	"crypto/ed25519"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
)

// The binary export is a deterministic, self-contained serialization of
// the ledger: the registered executor keys (sorted by name) followed by
// every block in chain order, all little-endian. Unlike MarshalJSON it
// carries the public keys, so a reader can verify the chain — hash links
// and seals — without any out-of-band state: that is what VerifyFrom does,
// and what the transport's /v1/ledger endpoint serves to workers auditing
// the coordinator over the wire.

// binaryMagic identifies the export format and its version. Version 2
// carries sealed rounds; the per-record signatures of version 1 are not
// read.
const binaryMagic = "FIFLCHN2"

// Layout, every integer little-endian, every variable field a u16 length
// followed by that many bytes:
//
//	"FIFLCHN2"
//	u32 executors, then per executor (sorted by name): name, public key
//	u32 blocks, then per block:
//	    u32 index | 32 B prev hash | 32 B hash | kind |
//	    u64 iteration | u64 worker | u64 float64 bits of value |
//	    executor | signature (empty unless the block is a seal)
//
// blockFixedLen is what a block occupies beyond the bytes of its three
// variable fields.
const blockFixedLen = 4 + 32 + 32 + 2 + 8 + 8 + 8 + 2 + 2

// exportChunk is how many export bytes WriteBinaryFrom gathers between
// writes to its destination.
const exportChunk = 32 << 10

// WriteBinary writes the ledger's deterministic binary export to w: the
// same ledger state always produces the same bytes.
func (l *Ledger) WriteBinary(w io.Writer) error { return l.WriteBinaryFrom(w, 0) }

// WriteBinaryFrom writes a partial export carrying the full executor key
// table but only the blocks with index >= from. The suffix is what the
// transport's incremental /v1/ledger?from=N endpoint serves: a follower
// that already holds blocks [0,from) splices the new ones onto its chain
// (each block still carries PrevHash, so continuity stays checkable)
// without re-downloading the whole ledger. ReadBinary rejects partial
// exports — consume them with StreamBinary.
func (l *Ledger) WriteBinaryFrom(w io.Writer, from int) error {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if from < 0 || from > l.blocks.len() {
		return fmt.Errorf("chain: export offset %d out of range [0,%d]", from, l.blocks.len())
	}
	// A seal is about 180 bytes, so the slack keeps the buffer from
	// regrowing between flushes.
	buf, err := l.appendExportHeader(make([]byte, 0, exportChunk+512), from)
	if err != nil {
		return err
	}
	for i := from; i < l.blocks.len(); i++ {
		if buf, err = appendBlock(buf, l.blocks.at(i)); err != nil {
			return err
		}
		if len(buf) >= exportChunk {
			if _, err := w.Write(buf); err != nil {
				return fmt.Errorf("chain: writing export: %w", err)
			}
			buf = buf[:0]
		}
	}
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("chain: writing export: %w", err)
	}
	return nil
}

// MarshalBinary returns the bytes WriteBinary writes, in one buffer
// allocated at exactly the export's size — the shape a checkpoint wants,
// which keeps the whole export in memory anyway.
func (l *Ledger) MarshalBinary() ([]byte, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	size := len(binaryMagic) + 4 + 4 + blockFixedLen*l.blocks.len()
	for name, key := range l.keys {
		size += 2 + len(name) + 2 + len(key)
	}
	for i := range l.blocks.len() {
		b := l.blocks.at(i)
		size += len(b.Record.Kind) + len(b.Record.Executor) + len(b.Signature)
	}
	buf, err := l.appendExportHeader(make([]byte, 0, size), 0)
	if err != nil {
		return nil, err
	}
	for i := range l.blocks.len() {
		if buf, err = appendBlock(buf, l.blocks.at(i)); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// appendExportHeader appends everything that precedes the blocks of an
// export starting at block from: magic, key table, block count. The
// caller holds mu.
func (l *Ledger) appendExportHeader(dst []byte, from int) ([]byte, error) {
	dst = append(dst, binaryMagic...)
	names := make([]string, 0, len(l.keys))
	for name := range l.keys {
		names = append(names, name)
	}
	sort.Strings(names)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(names)))
	var err error
	for _, name := range names {
		if dst, err = appendField(dst, name); err != nil {
			return nil, fmt.Errorf("chain: writing executor %q: %w", name, err)
		}
		if dst, err = appendField(dst, l.keys[name]); err != nil {
			return nil, fmt.Errorf("chain: writing key of %q: %w", name, err)
		}
	}
	return binary.LittleEndian.AppendUint32(dst, uint32(l.blocks.len()-from)), nil
}

// appendBlock appends one block's serialization.
func appendBlock(dst []byte, b *Block) ([]byte, error) {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(b.Index))
	dst = append(dst, b.PrevHash[:]...)
	dst = append(dst, b.Hash[:]...)
	dst, err := appendField(dst, b.Record.Kind)
	if err == nil {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(b.Record.Iteration))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(b.Record.WorkerID))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(b.Record.Value))
		dst, err = appendField(dst, b.Record.Executor)
	}
	if err == nil {
		dst, err = appendField(dst, b.Signature)
	}
	if err != nil {
		return nil, fmt.Errorf("chain: writing block %d: %w", b.Index, err)
	}
	return dst, nil
}

// appendField appends a u16 length prefix followed by the bytes.
func appendField[T ~string | ~[]byte](dst []byte, f T) ([]byte, error) {
	if len(f) > math.MaxUint16 {
		return nil, fmt.Errorf("field of %d bytes exceeds the export range", len(f))
	}
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(f)))
	return append(dst, f...), nil
}

// ReadBinary reconstructs a ledger from its binary export. The returned
// ledger is fully functional (Query, Audit, Verify, re-export); call
// Verify — or use VerifyFrom, which does both — before trusting it.
// ReadBinary materializes every block; readers that only fold over the
// records (the score collector) should use StreamBinary instead, which
// holds one block at a time. Partial exports (WriteBinaryFrom with a
// positive offset) are rejected: splicing a suffix onto existing state is
// a streaming-consumer concern.
func ReadBinary(r io.Reader) (*Ledger, error) {
	l := NewLedger()
	err := streamExport(r,
		func(name string, key ed25519.PublicKey) error {
			return l.RegisterExecutor(name, key)
		},
		func(b Block) error {
			if b.Index != l.blocks.len() {
				return fmt.Errorf("chain: block %d carries index %d", l.blocks.len(), b.Index)
			}
			l.push(b)
			return nil
		})
	if err != nil {
		return nil, err
	}
	return l, nil
}

// StreamBinary reads a binary export record by record, invoking fn for
// every block in chain order without ever materializing the whole ledger:
// peak memory is one block, independent of chain length, so million-record
// exports fold in O(records) time and O(1) space. Block indices are
// checked for contiguity (partial exports start wherever their first block
// says). fn returning ErrStop ends the stream early with a nil error; any
// other error aborts and propagates.
func StreamBinary(r io.Reader, fn func(Block) error) error {
	return StreamBinaryKeys(r, nil, fn)
}

// StreamBinaryKeys is StreamBinary with access to the export's executor
// key table: keyFn (if non-nil) is invoked once per registered executor,
// before any block, so a streaming consumer holds what it needs to check
// the seals of the blocks that pass.
func StreamBinaryKeys(r io.Reader, keyFn func(name string, pub ed25519.PublicKey) error, fn func(Block) error) error {
	next := -1
	err := streamExport(r, keyFn, func(b Block) error {
		if next >= 0 && b.Index != next {
			return fmt.Errorf("chain: block index %d does not follow %d", b.Index, next-1)
		}
		next = b.Index + 1
		return fn(b)
	})
	if errors.Is(err, ErrStop) {
		return nil
	}
	return err
}

// ErrStop, returned from a Scan or StreamBinary callback, ends the
// iteration early without error.
var ErrStop = errors.New("chain: stop iteration")

// streamExport is the shared export parser: header, key table, then one
// callback per block.
func streamExport(r io.Reader, keyFn func(string, ed25519.PublicKey) error, fn func(Block) error) error {
	er := exportReader{br: bufio.NewReader(r), interned: make(map[string]string)}
	head, err := er.next(len(binaryMagic))
	if err != nil {
		return fmt.Errorf("chain: reading export header: %w", err)
	}
	if string(head) != binaryMagic {
		if bytes.HasPrefix(head, []byte(binaryMagic[:len(binaryMagic)-1])) {
			return fmt.Errorf("chain: export version %q is not %q, the only one this build reads", head, binaryMagic)
		}
		return fmt.Errorf("chain: bad export header %q", head)
	}
	nKeys, err := er.u32()
	if err != nil {
		return fmt.Errorf("chain: reading key count: %w", err)
	}
	for i := 0; i < int(nKeys); i++ {
		name, err := er.field()
		if err != nil {
			return fmt.Errorf("chain: reading executor %d: %w", i, err)
		}
		executor := string(name)
		key, err := er.field()
		if err != nil {
			return fmt.Errorf("chain: reading key of %q: %w", executor, err)
		}
		if len(key) != ed25519.PublicKeySize {
			return fmt.Errorf("chain: key of %q is %d bytes, want %d", executor, len(key), ed25519.PublicKeySize)
		}
		if keyFn != nil {
			if err := keyFn(executor, bytes.Clone(key)); err != nil {
				return err
			}
		}
	}
	nBlocks, err := er.u32()
	if err != nil {
		return fmt.Errorf("chain: reading block count: %w", err)
	}
	for i := 0; i < int(nBlocks); i++ {
		b, err := er.block()
		if err != nil {
			return fmt.Errorf("chain: reading block %d: %w", i, err)
		}
		if err := fn(b); err != nil {
			return err
		}
	}
	return nil
}

// maxInterned bounds an exportReader's string table: a real export names
// six kinds and a handful of executors, and a hostile one must not grow
// the table without limit.
const maxInterned = 64

// exportReader pulls an export's fields from a buffered stream without a
// per-field allocation: bytes pass through one reusable buffer, and the
// kind and executor strings, which repeat on every block, are interned.
type exportReader struct {
	br       *bufio.Reader
	buf      []byte            // backs the slice next returns
	interned map[string]string // at most maxInterned entries
}

// next reads exactly n bytes; the result is valid until the following call.
func (r *exportReader) next(n int) ([]byte, error) {
	if cap(r.buf) < n {
		r.buf = make([]byte, n)
	}
	b := r.buf[:n]
	_, err := io.ReadFull(r.br, b)
	return b, err
}

func (r *exportReader) u32() (uint32, error) {
	b, err := r.next(4)
	return binary.LittleEndian.Uint32(b), err
}

func (r *exportReader) u64() (uint64, error) {
	b, err := r.next(8)
	return binary.LittleEndian.Uint64(b), err
}

func (r *exportReader) hash() (h [32]byte, err error) {
	b, err := r.next(len(h))
	copy(h[:], b)
	return h, err
}

// field reads a u16 length-prefixed field; like next, the result is valid
// until the following call.
func (r *exportReader) field() ([]byte, error) {
	b, err := r.next(2)
	if err != nil {
		return nil, err
	}
	return r.next(int(binary.LittleEndian.Uint16(b)))
}

// str reads a field as a string, through the intern table.
func (r *exportReader) str() (string, error) {
	b, err := r.field()
	if err != nil {
		return "", err
	}
	if s, ok := r.interned[string(b)]; ok {
		return s, nil
	}
	s := string(b)
	if len(r.interned) < maxInterned {
		r.interned[s] = s
	}
	return s, nil
}

// block deserializes one block. A seal's signature is the one allocation:
// the caller may keep it.
func (r *exportReader) block() (Block, error) {
	var b Block
	idx, err := r.u32()
	if err != nil {
		return b, err
	}
	b.Index = int(idx)
	if b.PrevHash, err = r.hash(); err != nil {
		return b, err
	}
	if b.Hash, err = r.hash(); err != nil {
		return b, err
	}
	kind, err := r.str()
	if err != nil {
		return b, err
	}
	b.Record.Kind = RecordKind(kind)
	var fields [3]uint64
	for i := range fields {
		if fields[i], err = r.u64(); err != nil {
			return b, err
		}
	}
	b.Record.Iteration = int(fields[0])
	b.Record.WorkerID = int(fields[1])
	b.Record.Value = math.Float64frombits(fields[2])
	if b.Record.Executor, err = r.str(); err != nil {
		return b, err
	}
	sig, err := r.field()
	if err != nil {
		return b, err
	}
	b.Signature = bytes.Clone(sig)
	return b, nil
}

// VerifyFrom reads a binary export and verifies the reconstructed chain —
// hash links, block hashes and seals — returning the number
// of intact blocks. It is the round trip the /v1/ledger endpoint serves:
// a worker can audit the coordinator's ledger from the wire bytes alone.
func VerifyFrom(r io.Reader) (blocks int, err error) {
	l, err := ReadBinary(r)
	if err != nil {
		return 0, err
	}
	if err := l.Verify(); err != nil {
		return 0, err
	}
	return l.Len(), nil
}
