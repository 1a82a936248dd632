// Package chain implements the blockchain-based audit substrate of FIFL
// (§4.5): an append-only, hash-chained ledger of signed assessment records.
//
// During each training iteration the servers executing FIFL write their
// detection, reputation and contribution results to the ledger together
// with an ed25519 signature. If a worker later suspects its indicators were
// tampered with, the task publisher recomputes them and compares against
// the ledger; a mismatching record is traced to the signing server, which
// is then removed from the server cluster.
//
// The ledger is deliberately minimal — no consensus, no peer-to-peer layer —
// because the paper uses the chain only as a tamper-evident audit log with
// attributable writes. Hash chaining gives tamper evidence; signatures give
// attribution.
package chain

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"fifl/internal/parallel"
)

// RecordKind labels what a ledger record asserts.
type RecordKind string

// Record kinds written by the FIFL modules.
const (
	KindDetection    RecordKind = "detection"    // per-worker detection result r_i
	KindReputation   RecordKind = "reputation"   // per-worker reputation R_i(t)
	KindContribution RecordKind = "contribution" // per-worker contribution C_i(t)
	KindReward       RecordKind = "reward"       // per-worker reward share I_i(t)
	KindElection     RecordKind = "election"     // server cluster membership for an iteration
	KindUpload       RecordKind = "upload"       // per-worker upload status (faults.UploadStatus as a float)
)

// Record is one assessment result written by a server.
type Record struct {
	Kind      RecordKind `json:"kind"`
	Iteration int        `json:"iteration"`
	WorkerID  int        `json:"worker_id"`
	Value     float64    `json:"value"`
	Executor  string     `json:"executor"` // name of the signing server
}

// appendPayload serializes the record deterministically for hashing and
// signing, appending to dst so hot paths can reuse one buffer.
func (r Record) appendPayload(dst []byte) []byte {
	dst = append(dst, r.Kind...)
	dst = append(dst, 0)
	var ib [8]byte
	binary.LittleEndian.PutUint64(ib[:], uint64(r.Iteration))
	dst = append(dst, ib[:]...)
	binary.LittleEndian.PutUint64(ib[:], uint64(r.WorkerID))
	dst = append(dst, ib[:]...)
	binary.LittleEndian.PutUint64(ib[:], math.Float64bits(r.Value))
	dst = append(dst, ib[:]...)
	return append(dst, r.Executor...)
}

// Block is one sealed ledger entry: a record, the hash link to its
// predecessor, and the executor's signature over (prevHash ‖ payload).
type Block struct {
	Index     int      `json:"index"`
	PrevHash  [32]byte `json:"prev_hash"`
	Hash      [32]byte `json:"hash"`
	Record    Record   `json:"record"`
	Signature []byte   `json:"signature"`
}

// Signer identifies an executor allowed to append to the ledger.
type Signer struct {
	Name string
	priv ed25519.PrivateKey
	pub  ed25519.PublicKey
}

// NewSigner creates a signer with a fresh deterministic key derived from
// the seed bytes (the simulation never needs real entropy).
func NewSigner(name string, seed [32]byte) *Signer {
	priv := ed25519.NewKeyFromSeed(seed[:])
	return &Signer{Name: name, priv: priv, pub: priv.Public().(ed25519.PublicKey)}
}

// Public returns the signer's public key.
func (s *Signer) Public() ed25519.PublicKey { return s.pub }

// Ledger is a thread-safe append-only hash chain of signed records.
type Ledger struct {
	mu     sync.RWMutex
	blocks []Block
	keys   map[string]ed25519.PublicKey // executor name -> public key

	// runs and byIter index the blocks by Record.Iteration so Query and
	// Audit visit one round's blocks instead of the chain. A run is a
	// maximal stretch of consecutive blocks sharing an iteration (one run
	// of 5n per round as the coordinator writes them); byIter lists, in
	// chain order, the runs of each iteration, since the API lets
	// iterations repeat and go backwards. Both cost O(rounds) memory and
	// are maintained by push alone. The index only narrows where a look-up
	// reads: every visited record is still filtered on its own fields, and
	// Verify never consults it.
	runs   []iterRun
	byIter map[int][]int // iteration -> indices into runs

	// scratch assembles (prevHash ‖ payload ‖ signature) for hashing and
	// signing; guarded by mu and reused so Append's transient garbage is
	// just the signature each retained Block actually keeps.
	scratch []byte
}

// iterRun is the half-open block range [lo,hi) of one run.
type iterRun struct{ iter, lo, hi int }

// NewLedger creates an empty ledger.
func NewLedger() *Ledger {
	return &Ledger{keys: make(map[string]ed25519.PublicKey), byIter: make(map[int][]int)}
}

// push is the one place a block enters the store, which keeps the
// iteration index in step with it. The caller holds mu for writing.
func (l *Ledger) push(b Block) {
	i := len(l.blocks)
	l.blocks = append(l.blocks, b)
	if n := len(l.runs); n > 0 && l.runs[n-1].iter == b.Record.Iteration {
		l.runs[n-1].hi = i + 1
		return
	}
	l.byIter[b.Record.Iteration] = append(l.byIter[b.Record.Iteration], len(l.runs))
	l.runs = append(l.runs, iterRun{iter: b.Record.Iteration, lo: i, hi: i + 1})
}

// seal signs r as s on top of the current tip and pushes the block. The
// caller holds mu for writing and has checked that s is registered.
func (l *Ledger) seal(s *Signer, r Record) Block {
	r.Executor = s.Name
	var prev [32]byte
	if n := len(l.blocks); n > 0 {
		prev = l.blocks[n-1].Hash
	}
	l.scratch = append(l.scratch[:0], prev[:]...)
	l.scratch = r.appendPayload(l.scratch)
	sig := ed25519.Sign(s.priv, l.scratch)
	b := Block{
		Index:     len(l.blocks),
		PrevHash:  prev,
		Record:    r,
		Signature: sig,
	}
	l.scratch = append(l.scratch, sig...)
	b.Hash = sha256.Sum256(l.scratch)
	l.push(b)
	return b
}

// RegisterExecutor makes an executor's public key known to the ledger so
// its blocks can be verified. Re-registering the same name with a different
// key returns an error (keys are identity).
func (l *Ledger) RegisterExecutor(name string, pub ed25519.PublicKey) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if existing, ok := l.keys[name]; ok && !existing.Equal(pub) {
		return fmt.Errorf("chain: executor %q already registered with a different key", name)
	}
	l.keys[name] = pub
	return nil
}

// Append signs and appends a record. The record's Executor field is forced
// to the signer's name so a server cannot write blocks in another's name.
func (l *Ledger) Append(s *Signer, r Record) (Block, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.keys[s.Name]; !ok {
		return Block{}, fmt.Errorf("chain: executor %q not registered", s.Name)
	}
	return l.seal(s, r), nil
}

// AppendBatch signs and appends a run of records under one lock
// acquisition, with room for the whole batch made up front — the shape the
// root coordinator's per-round ledger writes need at large n, where
// per-record locking and incremental slice growth dominate the Record
// stage. The block store grows geometrically, so a batch costs the same
// at any chain height. signers[i] signs recs[i]; the resulting chain bytes
// are identical to appending the same (signer, record) pairs one Append
// call at a time (ed25519 signatures are deterministic). Registration is
// checked for every signer before any block is written, so a failed batch
// leaves the ledger untouched.
func (l *Ledger) AppendBatch(signers []*Signer, recs []Record) error {
	if len(signers) != len(recs) {
		return fmt.Errorf("chain: AppendBatch got %d signers for %d records", len(signers), len(recs))
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, s := range signers {
		if s == nil {
			return errors.New("chain: AppendBatch with a nil signer")
		}
		if _, ok := l.keys[s.Name]; !ok {
			return fmt.Errorf("chain: executor %q not registered", s.Name)
		}
	}
	l.blocks = slices.Grow(l.blocks, len(recs))
	for i, r := range recs {
		l.seal(signers[i], r)
	}
	return nil
}

// Len returns the number of blocks.
func (l *Ledger) Len() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.blocks)
}

// Block returns block i by value.
func (l *Ledger) Block(i int) (Block, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if i < 0 || i >= len(l.blocks) {
		return Block{}, fmt.Errorf("chain: block index %d out of range [0,%d)", i, len(l.blocks))
	}
	return l.blocks[i], nil
}

// ErrTampered is wrapped by Verify errors that indicate chain corruption.
var ErrTampered = errors.New("chain: ledger tampered")

// Verify checks every block's hash link, executor, signature and hash. It
// returns the index of the first bad block wrapped around ErrTampered, or
// nil if the ledger is intact. The blocks are checked in short contiguous
// chunks across the cores: a block's checks read only the block itself and
// its predecessor's stored hash, so they are independent of every other
// block's outcome, and the verdict — the error of the lowest-indexed bad
// block — is the one a serial walk returns.
func (l *Ledger) Verify() error {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return lowestFailure(len(l.blocks), l.checkBlock)
}

// checkBlock runs block i's four checks, assembling the signed and hashed
// bytes (prevHash ‖ payload ‖ signature) in *scratch. The caller holds mu.
func (l *Ledger) checkBlock(i int, scratch *[]byte) error {
	b := &l.blocks[i]
	var prev [32]byte
	if i > 0 {
		// The predecessor's stored hash, unchecked here: if it was forged,
		// block i-1 fails its own checks, and i-1 is the lower index.
		prev = l.blocks[i-1].Hash
	}
	if b.PrevHash != prev {
		return fmt.Errorf("%w: block %d has broken hash link", ErrTampered, i)
	}
	pub, ok := l.keys[b.Record.Executor]
	if !ok {
		return fmt.Errorf("%w: block %d signed by unknown executor %q", ErrTampered, i, b.Record.Executor)
	}
	msg := b.Record.appendPayload(append((*scratch)[:0], b.PrevHash[:]...))
	signed := ed25519.Verify(pub, msg, b.Signature)
	msg = append(msg, b.Signature...)
	*scratch = msg
	if !signed {
		return fmt.Errorf("%w: block %d has invalid signature by %q", ErrTampered, i, b.Record.Executor)
	}
	if b.Hash != sha256.Sum256(msg) {
		return fmt.Errorf("%w: block %d hash mismatch", ErrTampered, i)
	}
	return nil
}

// verifyGrain is how many consecutive blocks a verifying goroutine claims
// at a time, about a millisecond of signature checks. One long chunk per
// core would make a call last as long as its slowest core takes, and on a
// shared machine either core can lose part of a call to another process or
// to the runtime's background work; with short chunks claimed on demand
// such a core claims fewer of them and the call slows by its share of the
// lost time only.
const verifyGrain = 16

// lowestFailure runs check for every i in [0,n) and returns the error of
// the lowest failing index — what a serial loop that stops at its first
// error returns. One goroutine per core (a single inline one for a range
// of one chunk or GOMAXPROCS=1) claims chunks of verifyGrain indices in
// increasing order and passes check a scratch buffer of its own, kept from
// one index to the next. Every index below the lowest failure is checked
// exactly once and no index twice; a goroutine gives up at the first index
// above a known failure, since nothing it could find from there on would
// be the lowest, and every chunk not yet claimed lies higher still.
func lowestFailure(n int, check func(i int, scratch *[]byte) error) error {
	var (
		next  atomic.Int64 // first index of the first unclaimed chunk
		bad   atomic.Int64 // lowest failing index so far; n while there is none
		mu    sync.Mutex   // orders updates of bad and first
		first error
	)
	bad.Store(int64(n))
	worker := func() {
		var scratch []byte
		for {
			lo := int(next.Add(verifyGrain)) - verifyGrain
			for i := lo; i < lo+verifyGrain; i++ {
				if int64(i) >= bad.Load() { // bad is at most n
					return
				}
				err := check(i, &scratch)
				if err == nil {
					continue
				}
				mu.Lock()
				if int64(i) < bad.Load() {
					bad.Store(int64(i))
					first = err
				}
				mu.Unlock()
				return
			}
		}
	}
	chunks := (n + verifyGrain - 1) / verifyGrain
	if chunks <= 1 || runtime.GOMAXPROCS(0) == 1 {
		worker()
		return first
	}
	workers := make([]func(), min(chunks, runtime.GOMAXPROCS(0)))
	for w := range workers {
		workers[w] = worker
	}
	parallel.Do(workers...)
	return first
}

// Scan streams every record of the given kind (empty kind = all kinds) to
// fn in chain order without copying or collecting anything: the per-call
// cost is zero allocations however long the chain is, which is what audit
// loops that re-walk the ledger every round pay. fn returning ErrStop ends
// the scan early with a nil error; any other error aborts the scan and is
// returned. The ledger's lock is held for the duration — fn must not call
// back into the same ledger's locking methods.
func (l *Ledger) Scan(kind RecordKind, fn func(Record) error) error {
	return l.scan(kind, -1, fn)
}

// scan is Scan narrowed to one iteration (negative = all): the iteration's
// runs are walked in chain order through the index, so the cost is that of
// the rounds that wrote the iteration, not of the chain.
func (l *Ledger) scan(kind RecordKind, iteration int, fn func(Record) error) error {
	l.mu.RLock()
	defer l.mu.RUnlock()
	var err error
	if iteration < 0 {
		err = scanBlocks(l.blocks, kind, iteration, fn)
	} else {
		for _, ri := range l.byIter[iteration] {
			run := l.runs[ri]
			if err = scanBlocks(l.blocks[run.lo:run.hi], kind, iteration, fn); err != nil {
				break
			}
		}
	}
	if errors.Is(err, ErrStop) {
		return nil
	}
	return err
}

// scanBlocks passes fn the records among blocks that match kind (empty =
// all) and iteration (negative = all), stopping at fn's first error.
func scanBlocks(blocks []Block, kind RecordKind, iteration int, fn func(Record) error) error {
	for i := range blocks {
		r := &blocks[i].Record
		if kind != "" && r.Kind != kind {
			continue
		}
		if iteration >= 0 && r.Iteration != iteration {
			continue
		}
		if err := fn(*r); err != nil {
			return err
		}
	}
	return nil
}

// Query returns all records matching the given filters; a negative
// iteration or worker matches everything, and an empty kind matches all
// kinds. Records are returned in chain order. With an iteration given the
// look-up reads only that iteration's blocks. Each call copies the
// matches; iteration-heavy callers should Scan instead.
func (l *Ledger) Query(kind RecordKind, iteration, worker int) []Record {
	var out []Record
	// The only error scan can surface is the callback's, and this one
	// never fails.
	_ = l.scan(kind, iteration, func(r Record) error {
		if worker >= 0 && r.WorkerID != worker {
			return nil
		}
		out = append(out, r)
		return nil
	})
	return out
}

// Audit compares an independently recomputed value against the ledger's
// record of (kind, iteration, worker). It returns the name of the executor
// that signed a mismatching record (the server to remove, per §4.5), an
// empty string if the ledger agrees within tol, or an error if no record
// exists.
func (l *Ledger) Audit(kind RecordKind, iteration, worker int, recomputed, tol float64) (culprit string, err error) {
	var r Record
	found := false
	// scan instead of Query: the audit only needs the last match, so the
	// per-call record copying Query pays is pure waste in audit loops.
	_ = l.scan(kind, iteration, func(rec Record) error {
		if worker >= 0 && rec.WorkerID != worker {
			return nil
		}
		r, found = rec, true
		return nil
	})
	if !found {
		return "", fmt.Errorf("chain: no %s record for iteration %d worker %d", kind, iteration, worker)
	}
	// The latest record for the triple is authoritative. Non-finite values
	// must be treated as mismatches explicitly: a NaN record (or a NaN
	// recomputation or tolerance) makes both comparisons below false, which
	// would let a corrupted entry pass the audit.
	if isNonFinite(r.Value) || isNonFinite(recomputed) || isNonFinite(tol) {
		return r.Executor, nil
	}
	if diff := r.Value - recomputed; diff > tol || diff < -tol {
		return r.Executor, nil
	}
	return "", nil
}

// isNonFinite reports whether v cannot participate in a meaningful
// tolerance comparison.
func isNonFinite(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) }

// MarshalJSON exports the chain for external inspection.
func (l *Ledger) MarshalJSON() ([]byte, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return json.Marshal(l.blocks)
}
