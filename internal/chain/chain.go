// Package chain implements the blockchain-based audit substrate of FIFL
// (§4.5): an append-only, hash-chained ledger of assessment records whose
// every write is attributable to the server that made it.
//
// During each training iteration the servers executing FIFL write their
// detection, reputation and contribution results to the ledger. If a
// worker later suspects its indicators were tampered with, the task
// publisher recomputes them and compares against the ledger; a mismatching
// record is traced to the server that wrote it, which is then removed from
// the server cluster.
//
// Every record is one block, hash-linked to its predecessor. Signatures
// are per round, not per record: a batch of records — one AppendBatch, the
// Record stage's per-round write; a lone Append is a batch of one — is
// sealed once per executor. The last block an executor writes in the batch
// carries its seal, an ed25519 signature over a domain tag, the chain tip
// before the batch and the RFC 6962 Merkle root of the executor's blocks
// in the batch; every other block carries no signature. Hash chaining
// gives tamper evidence; seals give attribution.
//
// The ledger is deliberately minimal — no consensus, no peer-to-peer layer —
// because the paper uses the chain only as a tamper-evident audit log with
// attributable writes.
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
	"sort"
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
	Executor  string     `json:"executor"` // name of the server that wrote and sealed it
}

// appendPayload serializes the record deterministically for hashing,
// appending to dst so hot paths can reuse one buffer.
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

// Block is one ledger entry: a record and the hash link to its
// predecessor. Hash is SHA-256(PrevHash ‖ payload ‖ Signature). Signature
// is empty except on a seal, the last block its executor wrote in a batch,
// where it is that executor's ed25519 signature over sealDomain, the hash
// of the block before the batch and the Merkle root of the executor's
// leaves in the batch. A block's leaf is SHA-256(PrevHash ‖ payload): its
// hash without its own signature, so an unsealed block's leaf is its Hash.
// Batch boundaries are not stored; Verify derives them from the blocks.
type Block struct {
	Index     int      `json:"index"`
	PrevHash  [32]byte `json:"prev_hash"`
	Hash      [32]byte `json:"hash"`
	Record    Record   `json:"record"`
	Signature []byte   `json:"signature"`
}

// sealDomain opens every seal's signed message, so a seal cannot pass for
// a signature over anything else an executor's key signs.
const sealDomain = "FIFLCHN2 seal\x00"

// Merkle tree prefixes, as in RFC 6962 §2.1: a leaf and an interior node
// hash under different first bytes, so no leaf can pose as a subtree.
const (
	merkleLeaf byte = 0
	merkleNode byte = 1
)

// sealMessage is what a seal signs: the domain tag, the hash of the block
// before the batch (zero for a batch at the chain's start) and the Merkle
// root of the sealing executor's leaves in the batch.
func sealMessage(tip, root [32]byte) [len(sealDomain) + 64]byte {
	var m [len(sealDomain) + 64]byte
	copy(m[:], sealDomain)
	copy(m[len(sealDomain):], tip[:])
	copy(m[len(sealDomain)+32:], root[:])
	return m
}

// merkleRoot returns the RFC 6962 Merkle tree hash of the leaves held in
// nodes, 32 bytes each in chain order, overwriting nodes. The tree is built
// level by level; an odd node at the end of a level is promoted to the
// next one unchanged, not paired with a copy of itself, which gives RFC
// 6962's tree (split at the largest power of two below the leaf count).
// nodes holds at least one leaf.
func merkleRoot(nodes []byte) (root [32]byte) {
	n := len(nodes) / 32
	var in [1 + 64]byte
	in[0] = merkleLeaf
	for k := 0; k < n; k++ {
		copy(in[1:], nodes[32*k:32*k+32])
		h := sha256.Sum256(in[:33])
		copy(nodes[32*k:], h[:])
	}
	in[0] = merkleNode
	for ; n > 1; n = (n + 1) / 2 {
		for k := 0; k < n/2; k++ {
			copy(in[1:], nodes[64*k:64*k+64])
			h := sha256.Sum256(in[:])
			copy(nodes[32*k:], h[:])
		}
		if n%2 == 1 {
			copy(nodes[32*(n/2):], nodes[32*(n-1):32*n])
		}
	}
	copy(root[:], nodes)
	return root
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

// Ledger is a thread-safe append-only hash chain of sealed records.
type Ledger struct {
	mu     sync.RWMutex
	blocks blockStore
	keys   map[string]ed25519.PublicKey // executor name -> public key

	// runs and byIter index the blocks by Record.Iteration so Query and
	// Audit visit one round's blocks instead of the chain. A run is a
	// maximal stretch of consecutive blocks sharing an iteration (one run
	// of 5n per round as the coordinator writes them); byIter lists, in
	// chain order, the runs of each iteration, since the API lets
	// iterations repeat and go backwards. Both cost O(rounds) memory and
	// are maintained by push alone. The index, like the store's worker
	// tags, only narrows where a look-up reads: every visited record is
	// still filtered on its own fields, and Verify never consults either.
	runs   []iterRun
	byIter map[int][]int // iteration -> indices into runs

	// scratch assembles (prevHash ‖ payload ‖ signature) for hashing, and
	// sealers hold each executor's Merkle leaves within a batch; both are
	// guarded by mu and reused, so a batch's transient garbage is just the
	// signatures its seals keep.
	scratch []byte
	sealers map[string]*sealer
	batches int // AppendBatch calls so far, to tell a sealer's state stale
}

// sealer is one executor's part of the AppendBatch call that last wrote
// for it.
type sealer struct {
	batch  int    // the call the fields below belong to
	last   int    // index among the call's records of the executor's last
	leaves []byte // the leaves of the executor's records so far, 32 bytes each
}

// iterRun is the half-open block range [lo,hi) of one run.
type iterRun struct{ iter, lo, hi int }

// NewLedger creates an empty ledger.
func NewLedger() *Ledger {
	return &Ledger{
		keys:    make(map[string]ed25519.PublicKey),
		byIter:  make(map[int][]int),
		sealers: make(map[string]*sealer),
	}
}

// push is the one place a block enters the store, which keeps the
// iteration index in step with it. The caller holds mu for writing.
func (l *Ledger) push(b Block) {
	i := l.blocks.len()
	l.blocks.add(b)
	if n := len(l.runs); n > 0 && l.runs[n-1].iter == b.Record.Iteration {
		l.runs[n-1].hi = i + 1
		return
	}
	l.byIter[b.Record.Iteration] = append(l.byIter[b.Record.Iteration], len(l.runs))
	l.runs = append(l.runs, iterRun{iter: b.Record.Iteration, lo: i, hi: i + 1})
}

// sealerOf returns the executor's state in the current AppendBatch call,
// reset if it belongs to an earlier one. The caller holds mu for writing.
func (l *Ledger) sealerOf(name string) *sealer {
	st := l.sealers[name]
	if st == nil {
		st = &sealer{}
		l.sealers[name] = st
	}
	if st.batch != l.batches {
		st.batch, st.leaves = l.batches, st.leaves[:0]
	}
	return st
}

// sealBatch hashes recs onto the tip, signers[i] writing recs[i], and
// seals each executor's last record of the call. The call's records fall
// into the batches Verify derives from the blocks — a batch ends as soon
// as every executor that has written in it has sealed — and each seal
// signs over the tip before its own batch; records that interleave their
// executors, as a round's do, form one batch. The caller holds mu for
// writing and has checked every signer.
func (l *Ledger) sealBatch(signers []*Signer, recs []Record) {
	l.batches++
	var st *sealer
	for i, s := range signers {
		if i == 0 || s.Name != signers[i-1].Name {
			st = l.sealerOf(s.Name)
		}
		st.last = i
	}
	var tip [32]byte
	if n := l.blocks.len(); n > 0 {
		tip = l.blocks.at(n - 1).Hash
	}
	batchTip, end := tip, -1 // end: last record of the batch open so far
	for i, r := range recs {
		s := signers[i]
		if i == 0 || s.Name != signers[i-1].Name {
			st = l.sealerOf(s.Name)
		}
		r.Executor = s.Name
		l.scratch = r.appendPayload(append(l.scratch[:0], tip[:]...))
		b := Block{Index: l.blocks.len(), PrevHash: tip, Record: r, Hash: sha256.Sum256(l.scratch)}
		st.leaves = append(st.leaves, b.Hash[:]...)
		end = max(end, st.last)
		if i == st.last {
			msg := sealMessage(batchTip, merkleRoot(st.leaves))
			b.Signature = ed25519.Sign(s.priv, msg[:])
			l.scratch = append(l.scratch, b.Signature...)
			b.Hash = sha256.Sum256(l.scratch)
		}
		l.push(b)
		tip = b.Hash
		if i == end {
			batchTip, end = tip, -1
		}
	}
}

// RegisterExecutor makes an executor's public key known to the ledger so
// its blocks can be verified. A key that is not an ed25519 public key is
// refused, and so is re-registering a name with a different key (keys are
// identity).
func (l *Ledger) RegisterExecutor(name string, pub ed25519.PublicKey) error {
	if len(pub) != ed25519.PublicKeySize {
		return fmt.Errorf("chain: key of %q is %d bytes, want %d", name, len(pub), ed25519.PublicKeySize)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if existing, ok := l.keys[name]; ok && !existing.Equal(pub) {
		return fmt.Errorf("chain: executor %q already registered with a different key", name)
	}
	l.keys[name] = pub
	return nil
}

// Append seals and appends one record as a batch of one, so the block
// carries its executor's seal. The record's Executor field is forced to
// the signer's name so a server cannot write blocks in another's name.
func (l *Ledger) Append(s *Signer, r Record) (Block, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.keys[s.Name]; !ok {
		return Block{}, fmt.Errorf("chain: executor %q not registered", s.Name)
	}
	l.sealBatch([]*Signer{s}, []Record{r})
	return *l.blocks.at(l.blocks.len() - 1), nil
}

// AppendBatch appends a run of records under one lock acquisition and
// seals it once per executor: signers[i] writes recs[i], each executor's
// last record carries its seal and every other record no signature. That
// is the shape of the root coordinator's per-round ledger write, whose
// cost is then two hashes per record and one signature per executor
// instead of one signature per record. The block store grows in
// fixed-size chunks and never moves a block, so a batch costs the same at
// any chain height. The chain holds the same records as appending the
// pairs one Append call at a time, but not the same bytes: a lone Append
// seals its record by itself. Registration is checked for every signer
// before any block is written, so a failed batch leaves the ledger
// untouched.
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
	l.sealBatch(signers, recs)
	return nil
}

// Len returns the number of blocks.
func (l *Ledger) Len() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.blocks.len()
}

// Block returns block i by value.
func (l *Ledger) Block(i int) (Block, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if i < 0 || i >= l.blocks.len() {
		return Block{}, fmt.Errorf("chain: block index %d out of range [0,%d)", i, l.blocks.len())
	}
	return *l.blocks.at(i), nil
}

// ErrTampered is wrapped by Verify errors that indicate chain corruption.
var ErrTampered = errors.New("chain: ledger tampered")

// Verify checks every block's hash link, executor and hash, and every
// seal's signature. It returns the error of the first bad block wrapped
// around ErrTampered — or, on a chain whose last batch an executor never
// sealed, an unsealed-tail error — or nil if the ledger is intact.
//
// The batches are derived from the blocks in one cheap serial pass
// (planBatches): a batch starts where the previous one ended and ends at
// the block after which every executor that has written in it has sealed;
// an executor writing again after its seal in a still-open batch breaks the
// rule. The blocks are then checked in short contiguous chunks, across the
// cores on a chain long enough to gain from it (verifyFanOutMin): a
// block's checks read only the block, its predecessor's stored hash and,
// for a seal, the stored hashes of the blocks its seal covers, all of them
// lower-indexed, so each block's verdict is independent of every other
// block's outcome, and the verdict — the error of the lowest-indexed bad
// block — is the one a serial walk returns.
func (l *Ledger) Verify() error {
	l.mu.RLock()
	defer l.mu.RUnlock()
	p := l.planBatches()
	workers := 1
	if l.blocks.len()+sealCost*len(p.seals) >= verifyFanOutMin {
		workers = runtime.GOMAXPROCS(0)
	}
	return l.verify(p, workers)
}

// Verify spreads a chain across the cores once its checks come to
// verifyFanOutMin blocks' worth, a seal's signature check counting as
// sealCost blocks (one ed25519.Verify takes about as long as hashing a
// hundred blocks). Below that a call takes at most about 15 ms on one
// core. Spread over the cores it would save at most half of that, and its
// time would hang on whether another core happens to be free for those
// milliseconds: on a shared machine it often is not, and one call then
// takes twice as long as the next. A longer call gains more from the
// fan-out, and a core lost for part of it costs its share of the lost
// time only.
const (
	verifyFanOutMin = 1 << 15
	sealCost        = 100
)

// verify checks the blocks against the plan on workers goroutines. The
// caller holds mu.
func (l *Ledger) verify(p *batchPlan, workers int) error {
	err := lowestFailure(min(p.bad+1, l.blocks.len()), workers, func(i int, scratch *[]byte) error {
		return l.checkBlock(p, i, scratch)
	})
	if err != nil {
		return err
	}
	return p.tail
}

// batchPlan is what Verify derives from the blocks before it checks any of
// them: each seal's batch and the blocks its Merkle tree covers, and the
// first block, if any, that breaks the batch rule.
type batchPlan struct {
	seals   []sealSpan // in chain order
	members []int32    // the blocks of each seal's tree, in chain order, the seal last
	bad     int        // first block breaking the batch rule; the block count if none
	badErr  error
	tail    error // the chain ends inside a batch
}

// sealSpan is one seal: its block, the first block of its batch, and its
// tree's blocks, members[lo:hi].
type sealSpan struct{ at, start, lo, hi int }

// planBatches walks the blocks once, reading executor names and whether a
// signature is present and nothing else. The caller holds mu.
func (l *Ledger) planBatches() *batchPlan {
	p := &batchPlan{bad: l.blocks.len(), members: make([]int32, 0, l.blocks.len())}
	// group is an executor's part of a batch; one per executor name,
	// reused from batch to batch.
	type group struct {
		name   string
		batch  int // first block of the batch the fields below belong to
		sealed int // the executor's seal in that batch, or -1
		blocks []int32
	}
	var (
		groups = make(map[string]*group)
		g      *group
		start  int
		open   int // groups of the open batch not yet sealed
	)
	for i := range l.blocks.len() {
		b := l.blocks.at(i)
		if open == 0 {
			start = i
		}
		if g == nil || b.Record.Executor != g.name {
			if g = groups[b.Record.Executor]; g == nil {
				g = &group{name: b.Record.Executor, batch: -1}
				groups[g.name] = g
			}
		}
		if g.batch != start {
			g.batch, g.sealed, g.blocks = start, -1, g.blocks[:0]
			open++
		} else if g.sealed >= 0 {
			p.bad = i
			p.badErr = fmt.Errorf("%w: block %d by %q follows its executor's seal at block %d", ErrTampered, i, g.name, g.sealed)
			return p
		}
		g.blocks = append(g.blocks, int32(i))
		if len(b.Signature) > 0 {
			g.sealed = i
			open--
			lo := len(p.members)
			p.members = append(p.members, g.blocks...)
			p.seals = append(p.seals, sealSpan{at: i, start: start, lo: lo, hi: len(p.members)})
		}
	}
	// The chain ends inside a batch: name the first of its executors that
	// has not sealed.
	for i := start; open > 0 && i < l.blocks.len(); i++ {
		if name := l.blocks.at(i).Record.Executor; groups[name].sealed < 0 {
			p.tail = fmt.Errorf("%w: unsealed tail: the batch from block %d ends before %q seals", ErrTampered, start, name)
			break
		}
	}
	return p
}

// checkBlock runs block i's checks — hash link, known executor, hash, the
// batch rule, and for a seal its signature — assembling the hashed bytes
// (prevHash ‖ payload ‖ signature) and then a seal's Merkle leaves in
// *scratch. The caller holds mu.
func (l *Ledger) checkBlock(p *batchPlan, i int, scratch *[]byte) error {
	b := l.blocks.at(i)
	var prev [32]byte
	if i > 0 {
		// The predecessor's stored hash, unchecked here: if it was forged,
		// block i-1 fails its own checks, and i-1 is the lower index.
		prev = l.blocks.at(i - 1).Hash
	}
	if b.PrevHash != prev {
		return fmt.Errorf("%w: block %d has broken hash link", ErrTampered, i)
	}
	pub, ok := l.keys[b.Record.Executor]
	if !ok {
		return fmt.Errorf("%w: block %d written by unknown executor %q", ErrTampered, i, b.Record.Executor)
	}
	msg := b.Record.appendPayload(append((*scratch)[:0], b.PrevHash[:]...))
	leaf := sha256.Sum256(msg)
	hash := leaf
	if len(b.Signature) > 0 {
		msg = append(msg, b.Signature...)
		hash = sha256.Sum256(msg)
	}
	*scratch = msg
	if b.Hash != hash {
		return fmt.Errorf("%w: block %d hash mismatch", ErrTampered, i)
	}
	if i == p.bad {
		return p.badErr
	}
	if len(b.Signature) == 0 {
		return nil
	}
	// A seal. Its tree's other blocks are unsealed and lower-indexed, so
	// their stored hashes are their leaves unless they fail first.
	s := p.seals[sort.Search(len(p.seals), func(k int) bool { return p.seals[k].at >= i })]
	nodes := (*scratch)[:0]
	for _, m := range p.members[s.lo : s.hi-1] {
		nodes = append(nodes, l.blocks.at(int(m)).Hash[:]...)
	}
	nodes = append(nodes, leaf[:]...)
	*scratch = nodes
	sealed := sealMessage(l.blocks.at(s.start).PrevHash, merkleRoot(nodes))
	if !ed25519.Verify(pub, sealed[:], b.Signature) {
		return fmt.Errorf("%w: block %d has an invalid seal by %q", ErrTampered, i, b.Record.Executor)
	}
	return nil
}

// verifyGrain is how many consecutive blocks a verifying goroutine claims
// at a time: a few microseconds of hashing, or a seal's tree and
// signature. One long chunk per core would make a call last as long as its
// slowest core takes, and on a shared machine either core can lose part of
// a call to another process or to the runtime's background work; with
// short chunks claimed on demand such a core claims fewer of them and the
// call slows by its share of the lost time only.
const verifyGrain = 16

// lowestFailure runs check for every i in [0,n) and returns the error of
// the lowest failing index — what a serial loop that stops at its first
// error returns. Up to workers goroutines (a single inline one for a range
// of one chunk or for workers <= 1) claim chunks of verifyGrain indices in
// increasing order, each passing check a scratch buffer of its own, kept from
// one index to the next. Every index below the lowest failure is checked
// exactly once and no index twice; a goroutine gives up at the first index
// above a known failure, since nothing it could find from there on would
// be the lowest, and every chunk not yet claimed lies higher still.
func lowestFailure(n, workers int, check func(i int, scratch *[]byte) error) error {
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
	if chunks <= 1 || workers <= 1 {
		worker()
		return first
	}
	fns := make([]func(), min(chunks, workers))
	for w := range fns {
		fns[w] = worker
	}
	parallel.Do(fns...)
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
	return l.scan(kind, -1, -1, fn)
}

// scan is Scan narrowed to one iteration and one worker (negative = all):
// the iteration's runs are walked in chain order through the index, so the
// cost is that of the rounds that wrote the iteration, not of the chain.
func (l *Ledger) scan(kind RecordKind, iteration, worker int, fn func(Record) error) error {
	l.mu.RLock()
	defer l.mu.RUnlock()
	var err error
	if iteration < 0 {
		err = l.scanRange(0, l.blocks.len(), kind, iteration, worker, fn)
	} else {
		for _, ri := range l.byIter[iteration] {
			run := l.runs[ri]
			if err = l.scanRange(run.lo, run.hi, kind, iteration, worker, fn); err != nil {
				break
			}
		}
	}
	if errors.Is(err, ErrStop) {
		return nil
	}
	return err
}

// scanRange passes fn the records of blocks [lo,hi) that match kind
// (empty = all), iteration and worker (negative = all), stopping at fn's
// first error. With a worker given, a block whose tag differs is skipped
// unread. The caller holds mu.
func (l *Ledger) scanRange(lo, hi int, kind RecordKind, iteration, worker int, fn func(Record) error) error {
	want := tagOf(worker)
	for lo < hi {
		blocks := l.blocks.span(lo, hi)
		tags := l.blocks.tagSpan(lo, hi)[:len(blocks)]
		for i := range blocks {
			if worker >= 0 && tags[i] != want {
				continue
			}
			r := &blocks[i].Record
			if kind != "" && r.Kind != kind {
				continue
			}
			if iteration >= 0 && r.Iteration != iteration {
				continue
			}
			if worker >= 0 && r.WorkerID != worker {
				continue
			}
			if err := fn(*r); err != nil {
				return err
			}
		}
		lo += len(blocks)
	}
	return nil
}

// Query returns all records matching the given filters; a negative
// iteration or worker matches everything, and an empty kind matches all
// kinds. Records are returned in chain order. With an iteration given the
// look-up reads only that iteration's blocks, and with a worker given only
// those of them tagged for the worker. Each call copies the matches;
// iteration-heavy callers should Scan instead.
func (l *Ledger) Query(kind RecordKind, iteration, worker int) []Record {
	var out []Record
	// The only error scan can surface is the callback's, and this one
	// never fails.
	_ = l.scan(kind, iteration, worker, func(r Record) error {
		out = append(out, r)
		return nil
	})
	return out
}

// Audit compares an independently recomputed value against the ledger's
// record of (kind, iteration, worker). It returns the name of the executor
// whose seal covers a mismatching record (the server to remove, per §4.5), an
// empty string if the ledger agrees within tol, or an error if no record
// exists.
func (l *Ledger) Audit(kind RecordKind, iteration, worker int, recomputed, tol float64) (culprit string, err error) {
	var r Record
	found := false
	// scan instead of Query: the audit only needs the last match, so the
	// per-call record copying Query pays is pure waste in audit loops.
	_ = l.scan(kind, iteration, worker, func(rec Record) error {
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
	return json.Marshal(l.blocks.list())
}
