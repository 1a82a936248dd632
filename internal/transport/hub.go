// Package transport runs a FIFL federation across real processes: a
// coordinator HTTP server wrapping core.Coordinator, a worker client
// wrapping any fl.Worker, and the binary wire format of
// internal/transport/codec. It is stdlib-only (net/http).
//
// # Architecture
//
// The coordinator owns the fl.Engine, but its workers are remote stubs
// (Hub.Workers): a stub's LocalTrain publishes the round's global
// parameters to the hub and then blocks until the matching submission
// arrives over HTTP — so CollectGradientsContext's per-worker deadlines,
// seeded retries and quorum commit drive real network calls unchanged.
// Worker processes run the opposite side: poll the model, train locally,
// submit the gradient.
//
// # Failure mapping
//
// Transport failures surface through the PR-1 UploadStatus taxonomy and
// feed the Eq. 8–10 reputation events exactly like simulated ones:
//
//   - a submission that arrives before the engine's per-worker deadline —
//     with or without client-side HTTP retries — is StatusOK;
//   - a worker that crashes, partitions or submits malformed/corrupt
//     frames never completes its stub, which the deadline resolves to
//     StatusTimedOut — an uncertain event for the reputation module;
//   - the engine's fault injector still composes on top, so simulated
//     drops/retries/crashes (StatusDropped, StatusRetried, StatusCrashed)
//     can be layered over a real network.
package transport

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"fifl/internal/fl"
	"fifl/internal/gradvec"
	"fifl/internal/persist"
)

// noRound marks "nothing published yet".
const noRound = -1

// submission is one accepted gradient upload.
type submission struct {
	grad    gradvec.Vector
	samples int
}

// waitStatus classifies how a model long poll on the hub resolved.
type waitStatus int

const (
	// waitNews: a newer round (or the terminal done state) is available.
	waitNews waitStatus = iota
	// waitTimeout: the server-side poll window elapsed with nothing new —
	// the client is alive and gets a 204 to re-poll on.
	waitTimeout
	// waitCancelled: the client went away (request context cancelled);
	// nothing should be written to the dead connection.
	waitCancelled
)

// Hub is the rendezvous between the coordinator's engine (which runs
// remote-worker stubs) and the HTTP handlers (which receive the real
// submissions). It is safe for concurrent use.
type Hub struct {
	mu sync.Mutex

	n         int
	samples   []int // registered at hello; the engine's NumSamples source
	helloed   []bool
	inactive  []bool // departed/banned IDs: submissions refused, hello refused
	readyLeft int
	readyDone bool
	readyCh   chan struct{} // closed when every expected worker said hello

	round    int       // latest published round (noRound before the first)
	params   []float64 // latest published global parameters
	done     bool
	modelCh  chan struct{} // closed and replaced on every publish/done
	closedCh chan struct{} // closed by Close; unblocks every stub

	subs  map[int]map[int]submission // round -> worker -> submission
	wait  map[[2]int]chan struct{}   // (round, worker) -> arrival signal
	pubAt map[int]time.Time          // round -> broadcast wall-clock stamp

	// onUpload, when set, observes each fresh accepted submission with the
	// wall-clock seconds since its round's broadcast. Observability only:
	// nothing downstream of the pipeline ever reads these timings.
	onUpload func(worker int, seconds float64)

	// Async mode (EnableAsync): submissions for any broadcast round are
	// accepted at any time and queued for the next advance window instead
	// of waking a per-round stub.
	asyncBound int                   // staleness bound; negative = synchronous mode
	pending    []persist.AsyncUpload // queued async submissions, arrival order
	pendingCh  chan struct{}         // closed and replaced when the queue grows
}

// NewHub creates the coordinator-side rendezvous for a federation of n
// workers.
func NewHub(n int) (*Hub, error) {
	if n <= 0 {
		return nil, fmt.Errorf("transport: NewHub requires a positive federation size, got %d", n)
	}
	return &Hub{
		n:          n,
		samples:    make([]int, n),
		helloed:    make([]bool, n),
		inactive:   make([]bool, n),
		readyLeft:  n,
		readyCh:    make(chan struct{}),
		round:      noRound,
		modelCh:    make(chan struct{}),
		closedCh:   make(chan struct{}),
		subs:       make(map[int]map[int]submission),
		wait:       make(map[[2]int]chan struct{}),
		pubAt:      make(map[int]time.Time),
		asyncBound: -1,
		pendingCh:  make(chan struct{}),
	}, nil
}

// EnableAsync switches the hub into asynchronous mode with the given
// staleness bound: submissions tagged with any already-broadcast round
// are accepted whenever they arrive and queued for the next advance
// window (takePending) instead of rendezvousing with a per-round stub.
// Submission mailboxes are retained for maxStaleness+1 extra rounds so
// idempotent-replay detection spans the whole staleness window. Must be
// called before any traffic.
func (h *Hub) EnableAsync(maxStaleness int) error {
	if maxStaleness < 0 {
		return fmt.Errorf("transport: EnableAsync requires a non-negative staleness bound, got %d", maxStaleness)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.round != noRound || h.done {
		return fmt.Errorf("transport: EnableAsync on a hub that already published round %d", h.round)
	}
	h.asyncBound = maxStaleness
	return nil
}

// SetUploadObserver installs a callback invoked (under the hub lock) for
// every fresh accepted submission, with the wall-clock seconds elapsed
// since the submission's round was broadcast. Rounds broadcast before the
// observer's hub existed (restored checkpoints) are stamped at Restore.
// The timings are observability-only — they feed metrics, never
// decisions — so wall-clock nondeterminism cannot leak into the pipeline.
func (h *Hub) SetUploadObserver(fn func(worker int, seconds float64)) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.onUpload = fn
}

// Workers returns the remote-worker stubs to build the coordinator's
// fl.Engine over, in federation order.
func (h *Hub) Workers() []fl.Worker {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]fl.Worker, h.n)
	for i := range out {
		out[i] = &remoteWorker{hub: h, id: i}
	}
	return out
}

// WorkersFor returns remote-worker stubs for the given stable worker IDs,
// in slot order — the cohort shape a federation restored mid-churn needs,
// where the active cohort is a subset of the IDs the hub covers.
func (h *Hub) WorkersFor(ids []int) ([]fl.Worker, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]fl.Worker, len(ids))
	for slot, id := range ids {
		if id < 0 || id >= h.n {
			return nil, fmt.Errorf("transport: WorkersFor with worker %d, hub covers %d IDs", id, h.n)
		}
		out[slot] = &remoteWorker{hub: h, id: id}
	}
	return out, nil
}

// size returns the number of worker IDs the hub covers (grows on join).
func (h *Hub) size() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.n
}

// maybeReady closes the readiness gate exactly once, when the last
// expected worker registers (or stops being expected).
func (h *Hub) maybeReady() {
	if h.readyLeft == 0 && !h.readyDone {
		h.readyDone = true
		close(h.readyCh)
	}
}

// addWorker grows the hub for a newly admitted identity: id must be the
// next sequential ID (mirroring the registry's assignment), and the
// worker is registered immediately — a join handshake subsumes hello.
// Mid-round growth is safe: the round's stubs snapshot their IDs at
// engine build, and every per-ID array access takes the hub lock.
func (h *Hub) addWorker(id, samples int) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if id != h.n {
		return fmt.Errorf("transport: addWorker with ID %d, next hub ID is %d", id, h.n)
	}
	if samples <= 0 {
		return fmt.Errorf("transport: addWorker with %d samples for worker %d", samples, id)
	}
	h.n++
	h.samples = append(h.samples, samples)
	h.helloed = append(h.helloed, true)
	h.inactive = append(h.inactive, false)
	return nil
}

// deactivate marks a departed or evicted identity: its submissions and
// hellos are refused until reactivate. Unregistered IDs stop counting
// toward readiness.
func (h *Hub) deactivate(id int) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if id < 0 || id >= h.n {
		return fmt.Errorf("transport: deactivate worker %d, hub covers %d IDs", id, h.n)
	}
	if h.inactive[id] {
		return nil
	}
	h.inactive[id] = true
	if !h.helloed[id] {
		h.readyLeft--
		h.maybeReady()
	}
	return nil
}

// reactivate re-admits a previously deactivated identity with its
// (possibly re-registered) dataset size.
func (h *Hub) reactivate(id, samples int) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if id < 0 || id >= h.n {
		return fmt.Errorf("transport: reactivate worker %d, hub covers %d IDs", id, h.n)
	}
	if samples <= 0 {
		return fmt.Errorf("transport: reactivate worker %d with %d samples", id, samples)
	}
	if !h.inactive[id] {
		return fmt.Errorf("transport: reactivate worker %d, which is active", id)
	}
	h.inactive[id] = false
	if !h.helloed[id] {
		h.helloed[id] = true
	}
	h.samples[id] = samples
	return nil
}

// Close unblocks every waiting stub and poller. After Close the hub
// accepts no further submissions.
func (h *Hub) Close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	select {
	case <-h.closedCh:
	default:
		close(h.closedCh)
	}
}

// Restore seeds a fresh hub with a checkpoint so a restarted coordinator
// picks up a federation mid-flight. Identities the checkpoint knows but
// does not seat in snap.ActiveCohort (departed or banned) are marked
// inactive, so readiness waits only on the seated cohort and their hellos
// are refused until a rejoin. Workers the checkpoint knew (Samples > 0)
// are pre-registered: their hellos become idempotent re-registrations and
// WaitReady does not block on them. Once a round has run, (NextRound-1,
// Params) becomes the current broadcast, so reconnecting workers
// long-polling after an earlier round receive the restored model and ride
// straight into the resumed round. It must be called before any live
// traffic (hello/publish); a hub that has already published refuses to
// rewrite history.
func (h *Hub) Restore(snap *persist.Snapshot) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	select {
	case <-h.closedCh:
		return fmt.Errorf("transport: Restore on a closed hub")
	default:
	}
	if h.done || h.round != noRound {
		return fmt.Errorf("transport: Restore on a hub that already published round %d", h.round)
	}
	round := snap.NextRound - 1
	if round < noRound {
		return fmt.Errorf("transport: Restore with negative round %d", round)
	}
	if len(snap.Samples) != h.n {
		return fmt.Errorf("transport: Restore with %d sample counts for %d workers", len(snap.Samples), h.n)
	}
	for id, s := range snap.Samples {
		if s < 0 {
			return fmt.Errorf("transport: Restore with negative sample count for worker %d", id)
		}
		if s > 0 && h.helloed[id] && h.samples[id] != s {
			return fmt.Errorf("transport: worker %d already registered with %d samples, checkpoint says %d",
				id, h.samples[id], s)
		}
	}
	seated := make([]bool, h.n)
	for _, id := range snap.ActiveCohort {
		if id < 0 || id >= h.n {
			return fmt.Errorf("transport: Restore seats worker %d, hub covers %d IDs", id, h.n)
		}
		seated[id] = true
	}
	for id, s := range snap.Samples {
		switch {
		case len(snap.ActiveCohort) > 0 && !seated[id]:
			if !h.inactive[id] && !h.helloed[id] {
				h.readyLeft--
			}
			h.inactive[id] = true
		case s > 0 && !h.helloed[id]:
			h.helloed[id] = true
			h.samples[id] = s
			h.readyLeft--
		}
	}
	h.maybeReady()
	if round >= 0 {
		h.round = round
		h.params = append([]float64(nil), snap.Params...)
		h.pubAt[round] = time.Now()
		close(h.modelCh)
		h.modelCh = make(chan struct{})
	}
	return nil
}

// hello registers worker id with its dataset size. Re-registration with
// the same size is idempotent (a restarted worker saying hello again).
func (h *Hub) hello(id, samples int) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if id < 0 || id >= h.n {
		return fmt.Errorf("transport: hello from worker %d, federation has %d workers", id, h.n)
	}
	if samples <= 0 {
		return fmt.Errorf("transport: hello from worker %d declares %d samples", id, samples)
	}
	if h.inactive[id] {
		return fmt.Errorf("transport: worker %d has left the federation; rejoin via /v1/join", id)
	}
	if h.helloed[id] {
		if h.samples[id] != samples {
			return fmt.Errorf("transport: worker %d re-registered with %d samples, was %d", id, samples, h.samples[id])
		}
		return nil
	}
	h.helloed[id] = true
	h.samples[id] = samples
	h.readyLeft--
	h.maybeReady()
	return nil
}

// WaitReady blocks until every expected worker has said hello.
func (h *Hub) WaitReady(ctx context.Context) error {
	select {
	case <-h.readyCh:
		return nil
	case <-h.closedCh:
		return fmt.Errorf("transport: hub closed while waiting for workers")
	case <-ctx.Done():
		return fmt.Errorf("transport: waiting for workers: %w", ctx.Err())
	}
}

// numSamples returns worker id's registered dataset size (0 before hello).
func (h *Hub) numSamples(id int) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.samples[id]
}

// publish makes (round, params) the current model broadcast. Stubs call it
// concurrently at round fan-out with identical arguments; only the first
// call per round takes effect.
func (h *Hub) publish(round int, params []float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if round <= h.round || h.done {
		return
	}
	h.round = round
	h.params = append([]float64(nil), params...)
	h.pubAt[round] = time.Now()
	// Drop mailboxes older than the previous round. The previous round's
	// submissions are retained so a client that lost a 204 can retry its
	// upload across the round boundary and still be recognized as an
	// idempotent replay. Async mode keeps the whole staleness window (plus
	// one over-bound round) so replay detection covers every submission
	// the next advance could still fold.
	keepFrom := round - 1
	if h.asyncBound >= 0 {
		keepFrom = round - h.asyncBound - 2
	}
	for r := range h.subs {
		if r < keepFrom {
			delete(h.subs, r)
		}
	}
	for r := range h.pubAt {
		if r < keepFrom {
			delete(h.pubAt, r)
		}
	}
	// A stub still parked on an earlier round was abandoned at the engine's
	// deadline: that round's collection is over, so its upload can no
	// longer be used. Release it, with its goroutine and parameter copy.
	for key, ch := range h.wait {
		if key[0] < round {
			close(ch)
			delete(h.wait, key)
		}
	}
	close(h.modelCh)
	h.modelCh = make(chan struct{})
}

// MarkDone publishes the terminal "federation finished" state.
func (h *Hub) MarkDone() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.done {
		return
	}
	h.done = true
	close(h.modelCh)
	h.modelCh = make(chan struct{})
}

// Health reports registration and broadcast progress for /v1/healthz.
func (h *Hub) Health() map[string]any {
	h.mu.Lock()
	defer h.mu.Unlock()
	return map[string]any{
		"workers":    h.n,
		"registered": h.n - h.readyLeft,
		"ready":      h.readyLeft == 0,
		"round":      h.round,
		"done":       h.done,
	}
}

// waitModel blocks until a round newer than `after` is published (or the
// federation finishes), up to maxWait — the server side of the client's
// long poll. The status distinguishes the two empty-handed outcomes:
// waitTimeout means the poll window elapsed and the live client should
// get a 204 to re-poll on; waitCancelled means the client's request
// context died and nothing can usefully be written back.
func (h *Hub) waitModel(ctx context.Context, after int, maxWait time.Duration) (round int, params []float64, done bool, status waitStatus) {
	deadline := time.NewTimer(maxWait)
	defer deadline.Stop()
	for {
		h.mu.Lock()
		if h.done {
			r := h.round
			h.mu.Unlock()
			return r, nil, true, waitNews
		}
		if h.round > after {
			r, p := h.round, h.params
			h.mu.Unlock()
			return r, p, false, waitNews
		}
		ch := h.modelCh
		h.mu.Unlock()
		select {
		case <-ch:
		case <-deadline.C:
			return 0, nil, false, waitTimeout
		case <-h.closedCh:
			// Re-acquire the lock for the round read: a publish can be
			// mutating h.round concurrently with the close.
			h.mu.Lock()
			r := h.round
			h.mu.Unlock()
			return r, nil, true, waitNews
		case <-ctx.Done():
			return 0, nil, false, waitCancelled
		}
	}
}

// submit records worker id's gradient for the given round and wakes the
// stub waiting on it. Stale, conflicting, out-of-range and inconsistent
// submissions are rejected — a rejected upload simply never arrives, which
// the engine's deadline resolves to StatusTimedOut.
//
// Submit is idempotent: a re-submission byte-identical in (round, worker,
// samples, grad) to one already recorded returns fresh == false and no
// error, even after the round has advanced. This is what makes a client
// retry after a lost 204 harmless — the engine already accepted the
// original, so the replay must not fail the round (or count as traffic).
func (h *Hub) submit(round, id, samples int, grad gradvec.Vector) (fresh bool, err error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	select {
	case <-h.closedCh:
		return false, fmt.Errorf("transport: hub closed")
	default:
	}
	if id < 0 || id >= h.n {
		return false, fmt.Errorf("transport: submission from worker %d, federation has %d workers", id, h.n)
	}
	if !h.helloed[id] {
		return false, fmt.Errorf("transport: worker %d submitted before hello", id)
	}
	if h.inactive[id] {
		return false, fmt.Errorf("transport: worker %d has left the federation; rejoin via /v1/join", id)
	}
	if prev, dup := h.subs[round][id]; dup {
		if prev.samples == samples && gradBitsEqual(prev.grad, grad) {
			return false, nil // idempotent replay of an accepted upload
		}
		return false, fmt.Errorf("transport: conflicting duplicate submission from worker %d for round %d", id, round)
	}
	// The current round is always accepted; one round ahead is the
	// reconnection window: a worker that trained against the broadcast of
	// round r+1 just before the coordinator crashed can deliver its upload
	// to the restarted coordinator before the engine re-publishes that
	// round — the re-broadcast is deterministic, so the gradient is the one
	// the round will want. Before any broadcast at all (noRound) nothing is
	// accepted. Async mode is the any-time submit path: every
	// already-broadcast round is accepted whenever its upload lands — the
	// advance window prices the staleness (or rejects it past the bound)
	// instead of the door.
	if h.round == noRound {
		return false, fmt.Errorf("transport: submission for round %d before any broadcast", round)
	}
	if h.asyncBound >= 0 {
		if round < 0 || round > h.round {
			return false, fmt.Errorf("transport: async submission for round %d, broadcasts reach round %d", round, h.round)
		}
	} else if round != h.round && round != h.round+1 {
		return false, fmt.Errorf("transport: submission for round %d, current round is %d", round, h.round)
	}
	if samples != h.samples[id] {
		return false, fmt.Errorf("transport: worker %d submitted %d samples, registered %d", id, samples, h.samples[id])
	}
	if len(grad) != len(h.params) {
		return false, fmt.Errorf("transport: worker %d submitted a %d-dim gradient, model has %d", id, len(grad), len(h.params))
	}
	if h.subs[round] == nil {
		h.subs[round] = make(map[int]submission)
	}
	h.subs[round][id] = submission{grad: grad, samples: samples}
	if h.onUpload != nil {
		if at, stamped := h.pubAt[round]; stamped {
			h.onUpload(id, time.Since(at).Seconds())
		}
	}
	if h.asyncBound >= 0 {
		h.pending = append(h.pending, persist.AsyncUpload{Worker: id, TrainedRound: round, Samples: samples, Grad: grad})
		close(h.pendingCh)
		h.pendingCh = make(chan struct{})
		return true, nil
	}
	key := [2]int{round, id}
	if ch, exists := h.wait[key]; exists {
		close(ch)
		delete(h.wait, key)
	}
	return true, nil
}

// takePending blocks until at least min async submissions are queued, the
// optional maxWait elapses (0 = count trigger only), the hub closes, or
// ctx is cancelled, then drains and returns the queue in arrival order —
// one advance window's intake. A time-triggered return can carry fewer
// than min submissions (including none).
func (h *Hub) takePending(ctx context.Context, min int, maxWait time.Duration) ([]persist.AsyncUpload, error) {
	var deadline <-chan time.Time
	if maxWait > 0 {
		timer := time.NewTimer(maxWait)
		defer timer.Stop()
		deadline = timer.C
	}
	for {
		h.mu.Lock()
		if len(h.pending) >= min {
			out := h.pending
			h.pending = nil
			h.mu.Unlock()
			return out, nil
		}
		ch := h.pendingCh
		h.mu.Unlock()
		select {
		case <-ch:
		case <-deadline:
			h.mu.Lock()
			out := h.pending
			h.pending = nil
			h.mu.Unlock()
			return out, nil
		case <-h.closedCh:
			return nil, fmt.Errorf("transport: hub closed while waiting for async submissions")
		case <-ctx.Done():
			return nil, fmt.Errorf("transport: waiting for async submissions: %w", ctx.Err())
		}
	}
}

// peekPending returns a copy of the queued async submissions without
// draining them — checkpoint capture must not consume the queue.
func (h *Hub) peekPending() []persist.AsyncUpload {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]persist.AsyncUpload(nil), h.pending...)
}

// gradBitsEqual reports bit-exact equality of two gradient vectors — the
// identity test for idempotent replays (codec frames cannot carry NaN, so
// bit comparison is exact and reflexive here).
func gradBitsEqual(a, b gradvec.Vector) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// await blocks until worker id's submission for the round arrives and
// returns its gradient, or nil if a later round is published or the hub
// closes first. The engine's per-worker deadline bounds the wait from the
// engine's side; a stub abandoned at the deadline is released by the next
// round's publish.
func (h *Hub) await(round, id int) gradvec.Vector {
	h.mu.Lock()
	if sub, arrived := h.subs[round][id]; arrived {
		h.mu.Unlock()
		return sub.grad
	}
	if round < h.round {
		h.mu.Unlock()
		return nil
	}
	key := [2]int{round, id}
	ch, exists := h.wait[key]
	if !exists {
		ch = make(chan struct{})
		h.wait[key] = ch
	}
	h.mu.Unlock()
	select {
	case <-ch:
	case <-h.closedCh:
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if sub, arrived := h.subs[round][id]; arrived {
		return sub.grad
	}
	return nil
}

// remoteWorker is the coordinator-side stub standing in for one networked
// worker. LocalTrain publishes the round and waits for the real upload;
// the engine's fault-tolerant runtime supplies deadlines and statuses.
type remoteWorker struct {
	hub *Hub
	id  int
}

// ID returns the worker's federation index.
func (w *remoteWorker) ID() int { return w.id }

// NumSamples returns the dataset size the worker registered at hello.
func (w *remoteWorker) NumSamples() int { return w.hub.numSamples(w.id) }

// LocalTrain publishes the global parameters for the round (idempotently —
// every stub publishes the identical snapshot) and blocks until the
// worker's submission arrives or the hub closes.
func (w *remoteWorker) LocalTrain(round int, global []float64) gradvec.Vector {
	w.hub.publish(round, global)
	return w.hub.await(round, w.id)
}
