package transport

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"fifl/internal/core"
)

// Elastic membership over the wire. Join and leave are control-plane
// operations carried as small JSON bodies (the binary codec stays the
// data plane):
//
//	POST /v1/join   {"worker": -1, "samples": N}  — admit a new identity
//	POST /v1/join   {"worker": id, "samples": N}  — re-admit a departed one
//	POST /v1/leave  {"worker": id}                — depart voluntarily
//
// Both handlers queue the request and block until the coordinator applies
// membership at its next round boundary (Server.ProcessMembership) — the
// pipeline's cohort is immutable mid-round, so admission cannot take
// effect earlier, and answering before it takes effect would let a joiner
// poll for a model it is not part of. A banned identity's re-join is
// refused with 403 Forbidden.

// maxMembershipBytes bounds a join/leave JSON body.
const maxMembershipBytes = 1 << 16

// joinReply resolves one queued join: the assigned (or re-admitted)
// worker ID, or the refusal.
type joinReply struct {
	id  int
	err error
}

// joinRequest is one queued /v1/join handshake.
type joinRequest struct {
	ctx     context.Context // the HTTP request's; abandoned joins are skipped
	worker  int             // -1 = new identity, >= 0 = re-admission
	samples int
	done    chan joinReply // buffered; ProcessMembership never blocks on it
}

// leaveRequest is one queued /v1/leave.
type leaveRequest struct {
	worker int
	done   chan error
}

// ProcessMembership applies every queued join and leave at a round
// boundary: leaves first (departures free cohort capacity), then joins in
// arrival order. Each requester's blocked handler is answered with its
// outcome. It returns how many requests changed the cohort; per-request
// refusals travel to the requester, not the caller. Call it between
// RunRound calls only — never mid-round.
func (s *Server) ProcessMembership() (applied int) {
	s.mu.Lock()
	joins, leaves := s.joins, s.leaves
	s.joins, s.leaves = nil, nil
	s.mu.Unlock()
	for _, lr := range leaves {
		err := s.removeWorker(lr.worker, false)
		if err == nil {
			applied++
		}
		lr.done <- err
	}
	for _, jr := range joins {
		if jr.ctx.Err() != nil {
			// The requester hung up while queued; admitting a ghost worker
			// would just farm timeouts. Drop the request.
			jr.done <- joinReply{err: jr.ctx.Err()}
			continue
		}
		id, err := s.admitWorker(jr)
		if err == nil {
			applied++
		}
		jr.done <- joinReply{id: id, err: err}
	}
	return applied
}

// DepartWorker removes an active worker between rounds on the
// coordinator's own initiative (an operator drain), mirroring a wire
// leave.
func (s *Server) DepartWorker(id int) error { return s.removeWorker(id, false) }

// EvictWorker bans an identity permanently: refused re-admission — in
// process, over the wire, and across checkpoint/resume — and excluded
// from server election. Call between rounds only.
func (s *Server) EvictWorker(id int) error { return s.removeWorker(id, true) }

// removeWorker takes an identity out of the cohort and deactivates its
// wire registration so stray submissions are refused.
func (s *Server) removeWorker(id int, evict bool) error {
	if s.hub == nil {
		return fmt.Errorf("transport: worker %d: membership needs the worker protocol", id)
	}
	var err error
	if evict {
		err = s.coord.EvictWorker(id)
	} else {
		err = s.coord.DepartWorker(id)
	}
	if err != nil {
		return err
	}
	return s.hub.deactivate(id)
}

// admitWorker seats one queued join: a new identity gets the registry's
// next stable ID (hub arrays, engine stub, reputation bootstrap and
// signing identity all grow together); a returning one is re-activated
// with its history intact, unless banned.
func (s *Server) admitWorker(jr joinRequest) (int, error) {
	if jr.worker >= 0 {
		if err := s.hub.reactivate(jr.worker, jr.samples); err != nil {
			return 0, err
		}
		if err := s.coord.ReadmitWorker(jr.worker, &remoteWorker{hub: s.hub, id: jr.worker}); err != nil {
			_ = s.hub.deactivate(jr.worker) // roll the wire registration back
			return 0, err
		}
		s.growAccounting()
		return jr.worker, nil
	}
	id := s.coord.Members().NumKnown() // the ID Admit will assign
	if err := s.hub.addWorker(id, jr.samples); err != nil {
		return 0, err
	}
	got, err := s.coord.AdmitWorker(&remoteWorker{hub: s.hub, id: id})
	if err != nil {
		_ = s.hub.deactivate(id) // the grown hub entry stays inert
		return 0, err
	}
	if got != id {
		return 0, fmt.Errorf("transport: registry assigned worker %d, hub reserved %d", got, id)
	}
	s.growAccounting()
	return id, nil
}

// growAccounting extends the per-worker wire accounting and instruments
// to cover every hub identity.
func (s *Server) growAccounting() {
	n := s.hub.size()
	s.sm.growTo(n)
	s.mu.Lock()
	for len(s.upBytes) < n {
		s.upBytes = append(s.upBytes, 0)
	}
	for len(s.downBytes) < n {
		s.downBytes = append(s.downBytes, 0)
	}
	s.mu.Unlock()
}

// handleJoin queues a membership handshake and blocks until the next
// round boundary resolves it.
func (s *Server) handleJoin(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Worker  *int `json:"worker"`
		Samples int  `json:"samples"`
	}
	if err := json.NewDecoder(io.LimitReader(r.Body, maxMembershipBytes)).Decode(&req); err != nil {
		http.Error(w, "transport: join body: "+err.Error(), http.StatusBadRequest)
		return
	}
	worker := -1
	if req.Worker != nil {
		worker = *req.Worker
	}
	if worker < -1 {
		http.Error(w, fmt.Sprintf("transport: join with worker %d (use -1 for a new identity)", worker), http.StatusBadRequest)
		return
	}
	if req.Samples <= 0 {
		http.Error(w, fmt.Sprintf("transport: join declares %d samples", req.Samples), http.StatusBadRequest)
		return
	}
	jr := joinRequest{ctx: r.Context(), worker: worker, samples: req.Samples, done: make(chan joinReply, 1)}
	s.mu.Lock()
	s.joins = append(s.joins, jr)
	s.mu.Unlock()
	select {
	case rep := <-jr.done:
		if rep.err != nil {
			status := http.StatusConflict
			if errors.Is(rep.err, core.ErrBanned) {
				status = http.StatusForbidden
			}
			http.Error(w, rep.err.Error(), status)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]int{"worker": rep.id})
	case <-r.Context().Done():
		// The client abandoned the handshake; ProcessMembership's reply
		// lands in the buffered channel and the request is dropped there.
	}
}

// handleLeave queues a voluntary departure and blocks until the boundary
// applies it.
func (s *Server) handleLeave(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Worker *int `json:"worker"`
	}
	if err := json.NewDecoder(io.LimitReader(r.Body, maxMembershipBytes)).Decode(&req); err != nil {
		http.Error(w, "transport: leave body: "+err.Error(), http.StatusBadRequest)
		return
	}
	if req.Worker == nil || *req.Worker < 0 {
		http.Error(w, "transport: leave requires a non-negative worker", http.StatusBadRequest)
		return
	}
	lr := leaveRequest{worker: *req.Worker, done: make(chan error, 1)}
	s.mu.Lock()
	s.leaves = append(s.leaves, lr)
	s.mu.Unlock()
	select {
	case err := <-lr.done:
		if err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	case <-r.Context().Done():
	}
}

// JoinFederation performs the elastic-membership handshake for a brand-
// new participant: it declares the dataset size and blocks until the
// coordinator's next round boundary assigns a stable worker ID, which is
// returned. The join subsumes hello — the caller builds its fl.Worker
// around the assigned ID and connects with DialWorker (whose hello is an
// idempotent re-registration). The wait is bounded only by ctx: a round
// can legitimately outlast any fixed header timeout.
func JoinFederation(ctx context.Context, baseURL string, samples int) (int, error) {
	body, err := join(ctx, baseURL, -1, samples)
	if err != nil {
		return 0, err
	}
	var rep struct {
		Worker int `json:"worker"`
	}
	if err := json.Unmarshal(body, &rep); err != nil {
		return 0, fmt.Errorf("transport: join response: %w", err)
	}
	return rep.Worker, nil
}

// join sends one /v1/join handshake and returns the 2xx reply body. A
// refusal maps to an error; 403 marks the banned case so callers can
// errors.Is(err, core.ErrBanned).
func join(ctx context.Context, baseURL string, worker, samples int) ([]byte, error) {
	// Sent once, never retried: the server queues the join for the
	// boundary, so a replayed one could admit twice. The body is the JSON
	// encoding/json writes for the map {"worker", "samples"}.
	status, body, err := Exchange(ctx, http.DefaultClient, http.MethodPost, baseURL, "/v1/join", "application/json",
		fmt.Appendf(nil, `{"samples":%d,"worker":%d}`, samples, worker), maxMembershipBytes)
	if err != nil {
		return nil, err
	}
	msg := string(bytes.TrimSpace(body))
	switch {
	case status == http.StatusForbidden:
		return nil, fmt.Errorf("transport: join refused (%s): %w", msg, core.ErrBanned)
	case status < 200 || status >= 300:
		return nil, fmt.Errorf("transport: join refused: HTTP %d: %s", status, msg)
	}
	return body, nil
}
