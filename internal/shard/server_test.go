package shard

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"fifl/internal/chain"
	"fifl/internal/core"
	"fifl/internal/transport/codec"
)

// countingTransport counts the requests a client sends.
type countingTransport struct {
	n    atomic.Int64
	next http.RoundTripper
}

func (c *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	c.n.Add(1)
	return c.next.RoundTrip(r)
}

// TestHTTPLinkStopsOnClosedHub: a closed hub will never publish another
// directive, so the root answers a poll with a terminal status and
// HTTPLink fails with ErrHubClosed at once, instead of re-polling an
// empty answer as fast as the loopback allows until its context ends.
func TestHTTPLinkStopsOnClosedHub(t *testing.T) {
	hub, err := NewShardHub(2, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := serveHub(t, hub)
	hub.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	rt := &countingTransport{next: ts.Client().Transport}
	link := HTTPLink{Base: ts.URL, Client: &http.Client{Transport: rt}, PollWait: 50 * time.Millisecond}
	_, err = link.NextDirective(ctx, 0)
	if err == nil || ctx.Err() != nil || errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("polling a closed hub returned %v (context %v), want an error before the deadline", err, ctx.Err())
	}
	if !errors.Is(err, ErrHubClosed) {
		t.Errorf("polling a closed hub returned %v, want ErrHubClosed", err)
	}
	if n := rt.n.Load(); n > 2 {
		t.Fatalf("polling a closed hub sent %d requests, want at most 2", n)
	}
}

// TestRootServerRefusesMembership: the root server has no worker
// protocol, so an operator's depart or evict is an error, not a panic
// after the coordinator has already changed.
func TestRootServerRefusesMembership(t *testing.T) {
	hub, err := NewShardHub(2, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := rootServer(t, hub)
	if err := srv.DepartWorker(1); err == nil {
		t.Error("DepartWorker on a root server succeeded")
	}
	if err := srv.EvictWorker(1); err == nil {
		t.Error("EvictWorker on a root server succeeded")
	}
}

// TestShardedRootServesLedgerReportsAndMetrics: a sharded root is served
// by the same coordinator server as a flat coordinator, so after a
// federation over HTTP it serves a verifiable ledger and every round's
// report, and counts its shard endpoints in fifl_http_requests_total.
func TestShardedRootServesLedgerReportsAndMetrics(t *testing.T) {
	var (
		ts    *httptest.Server
		coord *core.Coordinator
	)
	t.Cleanup(func() {
		if ts != nil {
			ts.Close()
		}
	})
	runShardedVia(t, diffRounds, cohortSizes(diffWorkers, 2), diffFaults{}, func(c *core.Coordinator, hub *ShardHub) (RootLink, roundRunner) {
		srv, err := NewServer(c, hub)
		if err != nil {
			t.Fatal(err)
		}
		ts, coord = httptest.NewServer(srv.Handler()), c
		return HTTPLink{Base: ts.URL, Client: ts.Client(), PollWait: 250 * time.Millisecond}, srv.RunRound
	})
	get := func(path string) []byte {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s: %s", path, resp.Status, bytes.TrimSpace(body))
		}
		return body
	}

	export, err := codec.DecodeLedger(get("/v1/ledger"))
	if err != nil {
		t.Fatal(err)
	}
	height, err := chain.VerifyFrom(bytes.NewReader(export))
	if err != nil {
		t.Fatalf("served ledger does not verify: %v", err)
	}
	if want := coord.Ledger.Len(); height != want || height == 0 {
		t.Fatalf("served ledger holds %d blocks, the root's %d", height, want)
	}

	last := diffRounds - 1
	rep, err := codec.DecodeReport(get(fmt.Sprintf("/v1/round/report?round=%d", last)))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Round != last || len(rep.Statuses) != diffWorkers {
		t.Fatalf("report for round %d: round %d with %d statuses, want %d", last, rep.Round, len(rep.Statuses), diffWorkers)
	}

	m := regexp.MustCompile(`(?m)^fifl_http_requests_total\{endpoint="/v1/shard/submit"\} (\d+)$`).FindSubmatch(get("/v1/metrics"))
	if m == nil {
		t.Fatal("/v1/metrics has no request counter for /v1/shard/submit")
	}
	if n, _ := strconv.Atoi(string(m[1])); n == 0 {
		t.Fatal("/v1/metrics counts no /v1/shard/submit requests")
	}
}
