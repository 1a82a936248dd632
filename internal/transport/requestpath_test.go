package transport_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"fifl/internal/fl"
	"fifl/internal/frame"
	"fifl/internal/shard"
	"fifl/internal/transport"
	"fifl/internal/transport/codec"
)

// testWorker is a worker for the entry points that need one to dial.
func testWorker(t *testing.T) fl.Worker {
	t.Helper()
	w, err := transport.Recipe{Seed: 1, Workers: 1, SamplesPerWorker: 10}.Worker(0)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// shardHello is a well-formed shard frame for the link's Submit.
var shardHello = codec.ShardSubmit{Phase: codec.ShardPhaseHello, Hello: &codec.ShardHello{Samples: []int{10}}}

// TestExchange: the shared request path sends the body with its content
// type, hands every status back to its caller with the body, reads a body
// of exactly the limit and refuses one byte more, and reports a request
// that got no reply with status 0.
func TestExchange(t *testing.T) {
	const limit = 64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		in, _ := io.ReadAll(r.Body)
		size, _ := strconv.Atoi(r.URL.Query().Get("size"))
		switch r.URL.Path {
		case "/echo":
			fmt.Fprintf(w, "%s %s %s", r.Method, r.Header.Get("Content-Type"), in)
		case "/sized":
			_, _ = w.Write(bytes.Repeat([]byte{'x'}, size))
		case "/empty":
			w.WriteHeader(http.StatusNoContent)
		case "/refused":
			http.Error(w, "no such round", http.StatusConflict)
		case "/down":
			http.Error(w, "restarting", http.StatusServiceUnavailable)
		}
	}))
	defer ts.Close()
	closed := httptest.NewServer(http.NotFoundHandler())
	closed.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	for _, tc := range []struct {
		name, base, method, path string
		body                     []byte
		status                   int
		reply                    string
		tooLarge, noReply        bool
	}{
		{name: "2xx", base: ts.URL, method: http.MethodPost, path: "/echo", body: []byte("frame"),
			status: http.StatusOK, reply: "POST application/octet-stream frame"},
		{name: "204", base: ts.URL, method: http.MethodGet, path: "/empty", status: http.StatusNoContent},
		{name: "4xx", base: ts.URL, method: http.MethodGet, path: "/refused", status: http.StatusConflict, reply: "no such round\n"},
		{name: "5xx", base: ts.URL, method: http.MethodGet, path: "/down", status: http.StatusServiceUnavailable, reply: "restarting\n"},
		{name: "at the limit", base: ts.URL, method: http.MethodGet, path: "/sized?size=" + strconv.Itoa(limit),
			status: http.StatusOK, reply: strings.Repeat("x", limit)},
		{name: "one past the limit", base: ts.URL, method: http.MethodGet, path: "/sized?size=" + strconv.Itoa(limit+1),
			status: http.StatusOK, tooLarge: true},
		{name: "transport error", base: closed.URL, method: http.MethodGet, path: "/echo", noReply: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			status, reply, err := transport.Exchange(ctx, nil, tc.method, tc.base, tc.path, "application/octet-stream", tc.body, limit)
			if status != tc.status {
				t.Errorf("status %d, want %d", status, tc.status)
			}
			switch {
			case tc.tooLarge:
				want := fmt.Sprintf("GET /sized: 200 OK: response exceeds the %d-byte limit", limit)
				if !errors.Is(err, frame.ErrFrameTooLarge) || !strings.Contains(err.Error(), want) {
					t.Fatalf("got %v, want %q wrapping frame.ErrFrameTooLarge", err, want)
				}
			case tc.noReply:
				if err == nil {
					t.Fatal("a request to a closed server succeeded")
				}
			case err != nil:
				t.Fatal(err)
			case string(reply) != tc.reply:
				t.Fatalf("reply %q, want %q", reply, tc.reply)
			}
		})
	}
}

// TestEntryPointsRejectBadBaseURL: every entry point that takes a base
// URL refuses one that is not an absolute http(s) URL with the same
// message, instead of failing later as "unsupported protocol scheme".
func TestEntryPointsRejectBadBaseURL(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	worker := testWorker(t)
	for _, base := range []string{"not-a-url", "127.0.0.1:7070", "localhost:7070", "ftp://127.0.0.1:7070", "http://", "//127.0.0.1:7070"} {
		for name, call := range map[string]func() error{
			"DialWorker": func() error {
				_, err := transport.DialWorker(ctx, transport.ClientConfig{BaseURL: base, Worker: worker})
				return err
			},
			"FetchLedger":      func() error { _, err := transport.FetchLedger(ctx, base, 0, 0); return err },
			"FetchMetrics":     func() error { _, err := transport.FetchMetrics(ctx, base); return err },
			"JoinFederation":   func() error { _, err := transport.JoinFederation(ctx, base, 10); return err },
			"RejoinFederation": func() error { return transport.RejoinFederation(ctx, base, 0, 10) },
			"HTTPLink.Submit":  func() error { return shard.HTTPLink{Base: base}.Submit(ctx, shardHello) },
			"HTTPLink.NextDirective": func() error {
				_, err := shard.HTTPLink{Base: base}.NextDirective(ctx, 0)
				return err
			},
		} {
			if err := call(); err == nil || !strings.Contains(err.Error(), "not an absolute http(s) URL") {
				t.Errorf("%s(%q) failed with %v, want the base-URL error", name, base, err)
			}
		}
	}
}

// TestOneShotReadersRejectOversizedReplies: the ledger, metrics,
// membership and shard-submit readers fail with an explicit limit error
// on a reply past their budget. The membership reader used to cut such a
// reply at the budget and hand the truncated JSON to the decoder, and the
// shard link quoted at most 4 KiB of a refusal.
func TestOneShotReadersRejectOversizedReplies(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		size := 100
		switch r.URL.Path {
		case "/v1/round/submit": // DialWorker's hello
			w.WriteHeader(http.StatusNoContent)
			return
		case "/v1/metrics":
			// Declared past the budget: refused before a byte is read.
			w.Header().Set("Content-Length", strconv.Itoa(transport.MaxMetricsBytes+1))
			return
		case "/v1/shard/submit":
			w.Header().Set("Content-Length", strconv.Itoa(transport.MaxFrameBytes+1))
			w.WriteHeader(http.StatusConflict)
			return
		case "/v1/join", "/v1/leave":
			size = transport.MaxMembershipBytes + 1
		}
		_, _ = w.Write(bytes.Repeat([]byte{' '}, size))
	}))
	defer ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	client, err := transport.DialWorker(ctx, transport.ClientConfig{BaseURL: ts.URL, Worker: testWorker(t)})
	if err != nil {
		t.Fatal(err)
	}
	for name, fetch := range map[string]func() error{
		"ledger":  func() error { _, err := transport.FetchLedger(ctx, ts.URL, 0, 16); return err },
		"metrics": func() error { _, err := transport.FetchMetrics(ctx, ts.URL); return err },
		"join":    func() error { _, err := transport.JoinFederation(ctx, ts.URL, 10); return err },
		"rejoin":  func() error { return transport.RejoinFederation(ctx, ts.URL, 0, 10) },
		"leave":   func() error { return client.Leave(ctx) },
		"submit":  func() error { return shard.HTTPLink{Base: ts.URL}.Submit(ctx, shardHello) },
	} {
		if err := fetch(); err == nil || !strings.Contains(err.Error(), "response exceeds the") {
			t.Errorf("%s: oversized reply read as %v, want the limit error", name, err)
		}
	}
}

// TestStalledCoordinatorFailsBoundedCalls: a coordinator that accepts the
// connection but never answers fails every call that brings no
// http.Client of its own once the wait for reply headers runs out, even
// under a context without a deadline — while a membership join, which
// legitimately waits for the next round boundary, is bounded by its
// context alone.
func TestStalledCoordinatorFailsBoundedCalls(t *testing.T) {
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer ts.Close()
	defer close(release)
	const wait = 200 * time.Millisecond
	defer transport.SetReplyHeaderWait(wait)()

	ctx := context.Background()
	for name, call := range map[string]func() error{
		"FetchLedger":  func() error { _, err := transport.FetchLedger(ctx, ts.URL, 0, 0); return err },
		"FetchMetrics": func() error { _, err := transport.FetchMetrics(ctx, ts.URL); return err },
		"HTTPLink.NextDirective": func() error {
			_, err := shard.HTTPLink{Base: ts.URL}.NextDirective(ctx, 0)
			return err
		},
		"HTTPLink.Submit": func() error { return shard.HTTPLink{Base: ts.URL}.Submit(ctx, shardHello) },
	} {
		done := make(chan error, 1)
		go func() { done <- call() }()
		select {
		case err := <-done:
			var ne net.Error
			if !errors.As(err, &ne) || !ne.Timeout() {
				t.Errorf("%s against a stalled server failed with %v, want a header timeout", name, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s against a stalled server still blocked after 10s", name)
		}
	}

	joinCtx, cancel := context.WithTimeout(ctx, 5*wait)
	defer cancel()
	start := time.Now()
	_, err := transport.JoinFederation(joinCtx, ts.URL, 10)
	if !errors.Is(err, context.DeadlineExceeded) || time.Since(start) < 5*wait {
		t.Fatalf("join against a stalled server ended after %v with %v, want its own context's deadline", time.Since(start), err)
	}
}
