// Package shard implements the 1-level hierarchical FIFL federation: edge
// aggregators (sub-coordinators) each own a contiguous cohort of workers,
// run Collect and Detect locally over their shard, pre-aggregate the
// surviving gradients, and forward one summarized upload plus per-worker
// detection/contribution evidence to the root. The root's eight pipeline
// stages treat every shard as a virtual worker whose evidence unfolds
// back into per-worker Eq. 8–10 reputation events, Eq. 15 rewards and
// ledger records — fifl-score and the fairness audit read a sharded run's
// checkpoint exactly as a flat run's — and the whole exchange is proven
// bit-identical to a flat federation (aggregating in the same blocked
// association; see the reference aggregator in shard_test.go) for honest
// runs.
//
// The wire protocol is a directive stream: the root broadcasts
// sequence-numbered codec.ShardDirective frames (collect → detect → dist
// per committed round, with detect/dist elided for degraded rounds) and
// each shard long-polls for the next directive, dispatching on its
// round/phase pair, and answers with codec.ShardSubmit evidence frames.
// ShardHub is the root-side state machine behind both the in-process
// DirectLink and the HTTP server's /v1/shard endpoints.
package shard

import (
	"context"
	"fmt"
	"sync"

	"fifl/internal/metrics"
	"fifl/internal/transport/codec"
)

// phaseKey identifies one awaited evidence wave.
type phaseKey struct {
	round int
	phase codec.ShardPhase
}

// ShardHub is the root coordinator's rendezvous point with its edge
// aggregators: it validates hello registrations against the federation
// size, broadcasts the directive stream, and collects per-phase evidence
// waves. All methods are safe for concurrent use.
type ShardHub struct {
	n      int // federation size
	shards int // expected shard count

	mu     sync.Mutex
	cond   *sync.Cond
	closed bool

	hellos  map[int]*codec.ShardHello // by shard index
	samples []int                     // per-worker n_i, filled by hellos

	seq        int
	directives []codec.ShardDirective

	subs map[phaseKey]map[int]*codec.ShardSubmit // by wave, then shard

	mSubmits    *metrics.Counter
	mDirectives *metrics.Counter
}

// NewShardHub builds the root-side hub for a federation of n workers
// split across the given number of shards.
func NewShardHub(n, shards int, reg *metrics.Registry) (*ShardHub, error) {
	if n < 1 {
		return nil, fmt.Errorf("shard: federation size %d must be >= 1", n)
	}
	if shards < 1 || shards > n {
		return nil, fmt.Errorf("shard: shard count %d outside [1, %d]", shards, n)
	}
	h := &ShardHub{
		n:       n,
		shards:  shards,
		hellos:  make(map[int]*codec.ShardHello),
		samples: make([]int, n),
		subs:    make(map[phaseKey]map[int]*codec.ShardSubmit),
	}
	h.cond = sync.NewCond(&h.mu)
	if reg != nil {
		reg.Help("fifl_shard_submissions_total", "Shard evidence frames accepted by the root, by protocol phase.")
		h.mSubmits = reg.Counter("fifl_shard_submissions_total")
		reg.Help("fifl_shard_directives_total", "Directive frames broadcast by the root to its shards.")
		h.mDirectives = reg.Counter("fifl_shard_directives_total")
	}
	return h, nil
}

// Workers returns the federation size n.
func (h *ShardHub) Workers() int { return h.n }

// Shards returns the expected shard count.
func (h *ShardHub) Shards() int { return h.shards }

// Submit accepts one shard evidence frame. Hello frames register the
// shard's cohort; phase frames join their (round, phase) wave and wake
// any waiting Await. A duplicate submission for a wave the shard already
// answered is rejected — the protocol is lock-step per shard.
func (h *ShardHub) Submit(s *codec.ShardSubmit) error {
	if s == nil {
		return fmt.Errorf("shard: nil submission")
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return fmt.Errorf("shard: hub is closed")
	}
	if s.Shard < 0 || s.Shard >= h.shards {
		return fmt.Errorf("shard: shard index %d outside [0, %d)", s.Shard, h.shards)
	}
	if s.Phase == codec.ShardPhaseHello {
		return h.helloLocked(s)
	}
	if _, ok := h.hellos[s.Shard]; !ok {
		return fmt.Errorf("shard: shard %d submitted %s evidence before hello", s.Shard, s.Phase)
	}
	k := phaseKey{round: s.Round, phase: s.Phase}
	wave := h.subs[k]
	if wave == nil {
		wave = make(map[int]*codec.ShardSubmit, h.shards)
		h.subs[k] = wave
	}
	if _, dup := wave[s.Shard]; dup {
		return fmt.Errorf("shard: shard %d already submitted %s evidence for round %d", s.Shard, s.Phase, s.Round)
	}
	if err := h.validateEvidenceLocked(s); err != nil {
		return err
	}
	wave[s.Shard] = s
	if h.mSubmits != nil {
		h.mSubmits.Inc()
	}
	h.cond.Broadcast()
	return nil
}

// helloLocked validates and records a cohort registration.
func (h *ShardHub) helloLocked(s *codec.ShardSubmit) error {
	hello := s.Hello
	if hello == nil {
		return fmt.Errorf("shard: hello frame from shard %d carries no cohort", s.Shard)
	}
	if _, dup := h.hellos[s.Shard]; dup {
		return fmt.Errorf("shard: shard %d already registered", s.Shard)
	}
	k := len(hello.Samples)
	if k == 0 {
		return fmt.Errorf("shard: shard %d registered an empty cohort", s.Shard)
	}
	if hello.First < 0 || hello.First+k > h.n {
		return fmt.Errorf("shard: shard %d cohort [%d, %d) outside the federation [0, %d)",
			s.Shard, hello.First, hello.First+k, h.n)
	}
	for other, oh := range h.hellos {
		olo, ohi := oh.First, oh.First+len(oh.Samples)
		if hello.First < ohi && olo < hello.First+k {
			return fmt.Errorf("shard: shard %d cohort [%d, %d) overlaps shard %d's [%d, %d)",
				s.Shard, hello.First, hello.First+k, other, olo, ohi)
		}
	}
	h.hellos[s.Shard] = hello
	copy(h.samples[hello.First:hello.First+k], hello.Samples)
	if h.mSubmits != nil {
		h.mSubmits.Inc()
	}
	h.cond.Broadcast()
	return nil
}

// validateEvidenceLocked checks a phase payload's shape against the
// shard's registered cohort before it joins a wave, so Await never hands
// the bridge malformed evidence.
func (h *ShardHub) validateEvidenceLocked(s *codec.ShardSubmit) error {
	k := len(h.hellos[s.Shard].Samples)
	switch s.Phase {
	case codec.ShardPhaseCollect:
		c := s.Collect
		if c == nil || len(c.Statuses) != k || len(c.Retries) != k {
			return fmt.Errorf("shard: shard %d collect evidence does not cover its %d-worker cohort", s.Shard, k)
		}
	case codec.ShardPhaseDetect:
		d := s.Detect
		if d == nil || len(d.Scores) != k || len(d.Accept) != k {
			return fmt.Errorf("shard: shard %d detect evidence does not cover its %d-worker cohort", s.Shard, k)
		}
	case codec.ShardPhaseDist:
		d := s.Dist
		if d == nil || len(d.Dists) != k {
			return fmt.Errorf("shard: shard %d dist evidence does not cover its %d-worker cohort", s.Shard, k)
		}
	default:
		return fmt.Errorf("shard: submission phase %s is not evidence", s.Phase)
	}
	return nil
}

// WaitReady blocks until every expected shard has registered, then
// validates that the cohorts tile the federation [0, n) exactly, in shard
// order — shard s must own the s-th contiguous cohort. The ordering is
// part of the protocol: the root folds shard masses and partials in shard
// index order, and bit-identity with the flat engine's blocked
// aggregation requires that order to be ascending worker order.
func (h *ShardHub) WaitReady(ctx context.Context) error {
	if err := h.wait(ctx, func() bool { return len(h.hellos) == h.shards }); err != nil {
		return fmt.Errorf("shard: waiting for %d shard registrations: %w", h.shards, err)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	// Overlap and range were rejected at hello time; what remains is gaps
	// and out-of-order cohorts.
	at := 0
	for s := 0; s < h.shards; s++ {
		hello := h.hellos[s]
		if hello.First != at {
			return fmt.Errorf("shard: shard %d's cohort starts at worker %d, want %d — cohorts must tile [0, %d) in shard order",
				s, hello.First, at, h.n)
		}
		at += len(hello.Samples)
	}
	if at != h.n {
		return fmt.Errorf("shard: cohorts leave workers [%d, %d) unowned", at, h.n)
	}
	return nil
}

// Cohort returns shard s's registered [first, first+count) cohort.
func (h *ShardHub) Cohort(s int) (first, count int, err error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	hello, ok := h.hellos[s]
	if !ok {
		return 0, 0, fmt.Errorf("shard: shard %d has not registered", s)
	}
	return hello.First, len(hello.Samples), nil
}

// RegisteredSamples returns the per-worker dataset sizes the hellos
// reported — the n_i weights the root trusts for the run, exactly as a
// flat hub trusts its workers' hello frames.
func (h *ShardHub) RegisteredSamples() []int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]int(nil), h.samples...)
}

// Publish appends a directive to the broadcast stream, assigning it the
// next sequence number (starting at 1), and wakes every long-poll.
func (h *ShardHub) Publish(d codec.ShardDirective) (seq int, err error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return 0, fmt.Errorf("shard: hub is closed")
	}
	h.seq++
	d.Seq = h.seq
	h.directives = append(h.directives, d)
	if h.mDirectives != nil {
		h.mDirectives.Inc()
	}
	h.cond.Broadcast()
	return d.Seq, nil
}

// NextDirective blocks until a directive with sequence number > after
// exists and returns the earliest such directive — the shard-side
// long-poll. Directives are retained for the lifetime of the run, so a
// reconnecting shard can catch up from any sequence point.
func (h *ShardHub) NextDirective(ctx context.Context, after int) (codec.ShardDirective, error) {
	if err := h.wait(ctx, func() bool { return h.seq > after }); err != nil {
		return codec.ShardDirective{}, fmt.Errorf("shard: polling for directive %d: %w", after+1, err)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if after < 0 {
		after = 0
	}
	return h.directives[after], nil
}

// Await blocks until every registered shard has submitted evidence for
// the (round, phase) wave and returns the frames indexed by shard.
func (h *ShardHub) Await(ctx context.Context, round int, phase codec.ShardPhase) ([]*codec.ShardSubmit, error) {
	k := phaseKey{round: round, phase: phase}
	err := h.wait(ctx, func() bool { return len(h.subs[k]) == h.shards })
	if err != nil {
		return nil, fmt.Errorf("shard: awaiting %s evidence for round %d: %w", phase, round, err)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	wave := h.subs[k]
	delete(h.subs, k) // the wave is consumed exactly once
	out := make([]*codec.ShardSubmit, h.shards)
	for s, sub := range wave {
		out[s] = sub
	}
	return out, nil
}

// wait blocks on the hub condition until pred holds (under h.mu), the hub
// closes, or ctx is done. The watcher goroutine pattern mirrors
// transport.Hub.takePending: cond has no native context support.
func (h *ShardHub) wait(ctx context.Context, pred func() bool) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-ctx.Done():
			h.cond.Broadcast()
		case <-stop:
		}
	}()
	h.mu.Lock()
	defer h.mu.Unlock()
	for !pred() {
		if h.closed {
			return fmt.Errorf("hub is closed")
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		h.cond.Wait()
	}
	return nil
}

// Close shuts the hub down, unblocking every waiter with an error.
// Publish and Submit fail afterwards; already-published directives remain
// readable so shards can drain a final done directive first.
func (h *ShardHub) Close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.closed = true
	h.cond.Broadcast()
}
