package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"fifl/internal/core"
	"fifl/internal/frame"
	"fifl/internal/transport/codec"
)

// maxSubmitBytes bounds a shard evidence body. A collect frame can carry
// several full server gradients, so the cap matches the transport layer's
// upload bound.
const maxSubmitBytes = 64 << 20

// defaultDirectiveWait caps a directive long poll server-side.
const defaultDirectiveWait = 10 * time.Second

// Server is the root's wire endpoint for its edge aggregators:
//
//	POST /v1/shard/submit     — codec shard evidence frames (hello, collect, detect, dist)
//	GET  /v1/shard/directive  — long-polled directive stream (?after=SEQ, ?wait=ms)
//	GET  /v1/healthz          — JSON liveness and shard registration progress
//	GET  /v1/metrics          — Prometheus text exposition of the shared registry
//
// It speaks only the shard protocol — workers talk to their shard's local
// coordinator, never to the root.
type Server struct {
	hub   *ShardHub
	coord *core.Coordinator
	mux   *http.ServeMux
}

// NewServer wires the root coordinator to its shard hub.
func NewServer(coord *core.Coordinator, hub *ShardHub) (*Server, error) {
	if coord == nil {
		return nil, fmt.Errorf("shard: NewServer requires a coordinator")
	}
	if hub == nil {
		return nil, fmt.Errorf("shard: NewServer requires a hub")
	}
	s := &Server{hub: hub, coord: coord, mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /v1/shard/submit", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/shard/directive", s.handleDirective)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	return s, nil
}

// Handler returns the server's HTTP handler, ready for http.Server or
// httptest.NewServer.
func (s *Server) Handler() http.Handler { return s.mux }

// handleSubmit accepts one shard evidence frame.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := frame.ReadFrame(r.Body, r.ContentLength, maxSubmitBytes)
	if errors.Is(err, frame.ErrFrameTooLarge) {
		http.Error(w, "shard: submission exceeds the frame size limit", http.StatusRequestEntityTooLarge)
		return
	}
	if err != nil {
		http.Error(w, "shard: reading submission: "+err.Error(), http.StatusBadRequest)
		return
	}
	sub, err := codec.DecodeShardSubmit(body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if err := s.hub.Submit(&sub); err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleDirective serves the directive stream as a long poll: ?after=SEQ
// blocks until a directive with a higher sequence number exists, ?wait=ms
// caps the block. No news within the window is 204 No Content; a directive
// every shard has answered is 410 Gone, so the poller stops instead of
// re-polling for it forever.
func (s *Server) handleDirective(w http.ResponseWriter, r *http.Request) {
	after := 0
	if raw := r.URL.Query().Get("after"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 0 {
			http.Error(w, fmt.Sprintf("shard: bad after=%q", raw), http.StatusBadRequest)
			return
		}
		after = v
	}
	wait := defaultDirectiveWait
	if raw := r.URL.Query().Get("wait"); raw != "" {
		ms, err := strconv.Atoi(raw)
		if err != nil {
			http.Error(w, fmt.Sprintf("shard: bad wait=%q", raw), http.StatusBadRequest)
			return
		}
		if d := time.Duration(ms) * time.Millisecond; d > 0 && d < wait {
			wait = d
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), wait)
	defer cancel()
	d, err := s.hub.NextDirective(ctx, after)
	if errors.Is(err, ErrDirectiveReleased) {
		http.Error(w, err.Error(), http.StatusGone)
		return
	}
	if err != nil {
		// Timeout or client hang-up: tell a live client to re-poll.
		w.WriteHeader(http.StatusNoContent)
		return
	}
	frame, err := codec.EncodeShardDirective(d)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(frame)))
	_, _ = w.Write(frame)
}

// handleHealthz reports liveness and shard registration progress as JSON.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.hub.mu.Lock()
	registered := len(s.hub.hellos)
	seq := s.hub.seq
	s.hub.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{
		"status":     "ok",
		"workers":    s.hub.Workers(),
		"shards":     s.hub.Shards(),
		"registered": registered,
		"directives": seq,
		"ledger":     s.coord.Ledger.Len(),
	})
}

// handleMetrics serves the shared registry in the Prometheus text format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.coord.Metrics().WritePrometheus(w)
}

// HTTPLink is an edge aggregator's RootLink over HTTP, speaking to a
// Server's /v1/shard endpoints.
type HTTPLink struct {
	// Base is the root server's base URL, e.g. "http://root:8080".
	Base string
	// Client is the HTTP client to use; nil means http.DefaultClient.
	Client *http.Client
	// PollWait caps each directive long poll; 0 uses the server default.
	PollWait time.Duration
}

func (l HTTPLink) client() *http.Client {
	if l.Client != nil {
		return l.Client
	}
	return http.DefaultClient
}

// Submit implements RootLink.
func (l HTTPLink) Submit(ctx context.Context, s codec.ShardSubmit) error {
	frame, err := codec.EncodeShardSubmit(s)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, l.Base+"/v1/shard/submit", bytes.NewReader(frame))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := l.client().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("shard: submit rejected (%s): %s", resp.Status, bytes.TrimSpace(msg))
	}
	return nil
}

// NextDirective implements RootLink: it re-polls through empty windows
// until a directive arrives or ctx is done. A directive the root has
// already released fails with ErrDirectiveReleased.
func (l HTTPLink) NextDirective(ctx context.Context, after int) (codec.ShardDirective, error) {
	url := fmt.Sprintf("%s/v1/shard/directive?after=%d", l.Base, after)
	if l.PollWait > 0 {
		url += fmt.Sprintf("&wait=%d", l.PollWait.Milliseconds())
	}
	for {
		if err := ctx.Err(); err != nil {
			return codec.ShardDirective{}, err
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			return codec.ShardDirective{}, err
		}
		resp, err := l.client().Do(req)
		if err != nil {
			return codec.ShardDirective{}, err
		}
		body, err := frame.ReadFrame(resp.Body, resp.ContentLength, maxSubmitBytes)
		resp.Body.Close()
		if errors.Is(err, frame.ErrFrameTooLarge) {
			return codec.ShardDirective{}, fmt.Errorf("shard: directive poll (%s): response exceeds the frame size limit of %d bytes", resp.Status, maxSubmitBytes)
		}
		if err != nil {
			return codec.ShardDirective{}, err
		}
		switch resp.StatusCode {
		case http.StatusOK:
			return codec.DecodeShardDirective(body)
		case http.StatusNoContent:
			continue // empty window: re-poll
		case http.StatusGone:
			return codec.ShardDirective{}, fmt.Errorf("shard: directive %d: %w", after+1, ErrDirectiveReleased)
		default:
			return codec.ShardDirective{}, fmt.Errorf("shard: directive poll failed (%s): %s",
				resp.Status, bytes.TrimSpace(body))
		}
	}
}
