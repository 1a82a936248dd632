package shard

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"fifl/internal/core"
	"fifl/internal/frame"
	"fifl/internal/transport"
	"fifl/internal/transport/codec"
)

// maxSubmitBytes bounds a directive response on the link side. It matches
// the coordinator server's bound on a request frame, which a collect
// frame carrying several full server gradients must fit.
const maxSubmitBytes = 64 << 20

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
// root server's /v1/shard endpoints (NewServer).
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
// already released fails with ErrDirectiveReleased, a poll of a root whose
// hub is closed with ErrHubClosed.
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
		case http.StatusServiceUnavailable:
			return codec.ShardDirective{}, fmt.Errorf("shard: directive %d: %w", after+1, ErrHubClosed)
		default:
			return codec.ShardDirective{}, fmt.Errorf("shard: directive poll failed (%s): %s",
				resp.Status, bytes.TrimSpace(body))
		}
	}
}
