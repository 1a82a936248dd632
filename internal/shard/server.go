package shard

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"fifl/internal/core"
	"fifl/internal/transport"
	"fifl/internal/transport/codec"
)

// NewServer serves the shard protocol for a root coordinator on the
// coordinator server every protocol shares (transport.NewCoordinatorServer),
// beside its reports, ledger, health and metrics:
//
//	POST /v1/shard/submit     — codec shard evidence frames (hello, collect, detect, dist)
//	GET  /v1/shard/directive  — long-polled directive stream (?after=SEQ, ?wait=ms)
//
// It speaks only the shard protocol — workers talk to their shard's local
// coordinator, never to the root.
func NewServer(coord *core.Coordinator, hub *ShardHub) (*transport.Server, error) {
	if hub == nil {
		return nil, fmt.Errorf("shard: NewServer requires a hub")
	}
	s, err := transport.NewCoordinatorServer(coord, hub)
	if err != nil {
		return nil, err
	}
	s.HandleFrame("POST /v1/shard/submit", hub.handleSubmit)
	s.HandlePoll("GET /v1/shard/directive", hub.handleDirective)
	return s, nil
}

// handleSubmit accepts one shard evidence frame.
func (h *ShardHub) handleSubmit(w http.ResponseWriter, r *http.Request, body []byte) {
	sub, err := codec.DecodeShardSubmit(body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if err := h.Submit(&sub); err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleDirective serves the directive stream as a long poll: ?after=SEQ
// blocks until a directive with a higher sequence number exists, for at
// most wait. No news within the window is 204 No Content. A directive
// every shard has answered is 410 Gone, and a closed hub 503 Service
// Unavailable: neither will ever yield a directive, so the poller stops
// instead of re-polling forever.
func (h *ShardHub) handleDirective(w http.ResponseWriter, r *http.Request, wait time.Duration) {
	after, err := transport.QueryInt(r, "after", 0)
	if err != nil || after < 0 {
		http.Error(w, fmt.Sprintf("shard: bad after=%q", r.URL.Query().Get("after")), http.StatusBadRequest)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), wait)
	defer cancel()
	d, err := h.NextDirective(ctx, after)
	switch {
	case errors.Is(err, ErrDirectiveReleased):
		http.Error(w, err.Error(), http.StatusGone)
		return
	case errors.Is(err, ErrHubClosed):
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	case err != nil:
		// Timeout or client hang-up: tell a live client to re-poll.
		w.WriteHeader(http.StatusNoContent)
		return
	}
	frame, err := codec.EncodeShardDirective(d)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	transport.WriteFrame(w, frame)
}

// HTTPLink is an edge aggregator's RootLink over HTTP, speaking to the
// root server's /v1/shard endpoints (NewServer) through transport.Exchange.
type HTTPLink struct {
	// Base is the root server's base URL, e.g. "http://root:8080".
	Base string
	// Client is the HTTP client to use; nil means transport.Exchange's
	// default, which fails a request whose reply headers do not arrive
	// within the server's long-poll cap plus a grace period.
	Client *http.Client
	// PollWait caps each directive long poll; 0 uses the server default.
	PollWait time.Duration
}

// Submit implements RootLink.
func (l HTTPLink) Submit(ctx context.Context, s codec.ShardSubmit) error {
	frame, err := codec.EncodeShardSubmit(s)
	if err != nil {
		return err
	}
	status, reply, err := transport.Exchange(ctx, l.Client, http.MethodPost, l.Base, "/v1/shard/submit",
		"application/octet-stream", frame, transport.MaxFrameBytes)
	if err != nil {
		return fmt.Errorf("shard: submit: %w", err)
	}
	if status != http.StatusNoContent {
		return fmt.Errorf("shard: submit rejected (%d %s): %s", status, http.StatusText(status), bytes.TrimSpace(reply))
	}
	return nil
}

// NextDirective implements RootLink: it re-polls through empty windows
// until a directive arrives or ctx is done. A directive the root has
// already released fails with ErrDirectiveReleased, a poll of a root whose
// hub is closed with ErrHubClosed.
func (l HTTPLink) NextDirective(ctx context.Context, after int) (codec.ShardDirective, error) {
	path := fmt.Sprintf("/v1/shard/directive?after=%d", after)
	if l.PollWait > 0 {
		path += fmt.Sprintf("&wait=%d", l.PollWait.Milliseconds())
	}
	for {
		if err := ctx.Err(); err != nil {
			return codec.ShardDirective{}, err
		}
		status, body, err := transport.Exchange(ctx, l.Client, http.MethodGet, l.Base, path, "", nil, transport.MaxFrameBytes)
		if err != nil {
			return codec.ShardDirective{}, fmt.Errorf("shard: directive poll: %w", err)
		}
		switch status {
		case http.StatusOK:
			return codec.DecodeShardDirective(body)
		case http.StatusNoContent:
			continue // empty window: re-poll
		case http.StatusGone:
			return codec.ShardDirective{}, fmt.Errorf("shard: directive %d: %w", after+1, ErrDirectiveReleased)
		case http.StatusServiceUnavailable:
			return codec.ShardDirective{}, fmt.Errorf("shard: directive %d: %w", after+1, ErrHubClosed)
		default:
			return codec.ShardDirective{}, fmt.Errorf("shard: directive poll failed (%d %s): %s",
				status, http.StatusText(status), bytes.TrimSpace(body))
		}
	}
}
