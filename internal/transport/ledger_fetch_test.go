package transport

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"fifl/internal/chain"
	"fifl/internal/core"
	"fifl/internal/fl"
	"fifl/internal/rng"
)

// ledgerServer runs a short in-process federation so the coordinator's
// audit chain has real blocks, then exposes it over HTTP.
func ledgerServer(t *testing.T) (*core.Coordinator, *httptest.Server, func()) {
	t.Helper()
	recipe := Recipe{Seed: 11, Workers: 3, SamplesPerWorker: 40}
	build, err := recipe.Builder()
	if err != nil {
		t.Fatal(err)
	}
	workers, err := recipe.AllWorkers()
	if err != nil {
		t.Fatal(err)
	}
	engine, err := fl.NewEngine(fl.Config{Servers: 2, GlobalLR: 0.05}, build, workers, rng.New(recipe.Seed).Split("ledgerfetch"),
		fl.WithWorkerTimeout(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	coord, err := core.NewCoordinator(coordConfig(), engine, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := coord.RunRoundContext(context.Background(), i); err != nil {
			t.Fatal(err)
		}
	}
	hub, err := NewHub(3)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(coord, hub)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	return coord, ts, func() {
		ts.Close()
		srv.Close()
	}
}

// TestFetchLedgerIncremental: the suffix export served for ?from=N must be
// byte-identical to WriteBinaryFrom, splice onto the full chain (first
// suffix block continues the prefix hash chain), and degrade to an empty
// export — not an error — when the requested index is past the tip.
func TestFetchLedgerIncremental(t *testing.T) {
	coord, ts, shutdown := ledgerServer(t)
	defer shutdown()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	n := coord.Ledger.Len()
	if n < 4 {
		t.Fatalf("federation produced only %d blocks", n)
	}
	var wantFull bytes.Buffer
	if err := coord.Ledger.WriteBinary(&wantFull); err != nil {
		t.Fatal(err)
	}
	full, err := FetchLedger(ctx, ts.URL, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(full, wantFull.Bytes()) {
		t.Fatal("full fetch differs from the in-process export")
	}

	from := n / 2
	var wantSuffix bytes.Buffer
	if err := coord.Ledger.WriteBinaryFrom(&wantSuffix, from); err != nil {
		t.Fatal(err)
	}
	suffix, err := FetchLedger(ctx, ts.URL, from, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(suffix, wantSuffix.Bytes()) {
		t.Fatalf("suffix fetch from %d differs from WriteBinaryFrom", from)
	}

	// The suffix must stream cleanly and splice onto the prefix: its first
	// block continues from the full chain's block from-1.
	var fullBlocks []chain.Block
	if err := chain.StreamBinary(bytes.NewReader(full), func(b chain.Block) error {
		fullBlocks = append(fullBlocks, b)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	var suffixBlocks []chain.Block
	if err := chain.StreamBinary(bytes.NewReader(suffix), func(b chain.Block) error {
		suffixBlocks = append(suffixBlocks, b)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(suffixBlocks) != n-from {
		t.Fatalf("suffix streamed %d blocks, want %d", len(suffixBlocks), n-from)
	}
	if suffixBlocks[0].Index != from {
		t.Fatalf("suffix starts at index %d, want %d", suffixBlocks[0].Index, from)
	}
	if suffixBlocks[0].PrevHash != fullBlocks[from-1].Hash {
		t.Fatal("suffix does not splice onto the prefix hash chain")
	}

	// Past-tip fetch: an empty export, the "no news" answer a poller needs.
	past, err := FetchLedger(ctx, ts.URL, n+5, 0)
	if err != nil {
		t.Fatal(err)
	}
	streamed := 0
	if err := chain.StreamBinary(bytes.NewReader(past), func(chain.Block) error {
		streamed++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if streamed != 0 {
		t.Fatalf("past-tip fetch streamed %d blocks, want 0", streamed)
	}
}

// TestFetchLedgerRejectsBadRequests: invalid inputs fail fast on both
// sides of the wire (a bad base URL: TestEntryPointsRejectBadBaseURL).
func TestFetchLedgerRejectsBadRequests(t *testing.T) {
	_, ts, shutdown := ledgerServer(t)
	defer shutdown()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	if _, err := FetchLedger(ctx, ts.URL, -1, 0); err == nil {
		t.Fatal("negative index must be rejected before any request")
	}
	resp, err := http.Get(ts.URL + "/v1/ledger?from=" + strconv.Itoa(-2))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("server answered %d for a negative index, want 400", resp.StatusCode)
	}
}
