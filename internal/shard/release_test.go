package shard

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"fifl/internal/core"
	"fifl/internal/faults"
	"fifl/internal/fl"
	"fifl/internal/frame"
	"fifl/internal/nn"
	"fifl/internal/rng"
	"fifl/internal/transport"
	"fifl/internal/transport/codec"
)

// heldPayloadRounds lists, in sequence order, the round of every directive
// the hub still holds a model-sized payload for.
func heldPayloadRounds(h *ShardHub) []int {
	h.mu.Lock()
	defer h.mu.Unlock()
	var rounds []int
	for _, d := range h.directives {
		if d.Params != nil || d.Benchmark != nil || d.Global != nil {
			rounds = append(rounds, d.Round)
		}
	}
	return rounds
}

func collectEvidence(shard, round int, statuses ...faults.UploadStatus) *codec.ShardSubmit {
	return &codec.ShardSubmit{
		Shard: shard, Round: round, Phase: codec.ShardPhaseCollect,
		Collect: &codec.ShardCollectEvidence{Statuses: statuses, Retries: make([]int, len(statuses))},
	}
}

// TestShardHubReleasesAnsweredDirectives: consuming a wave drops the
// directive it answers, and a poll for it fails with ErrDirectiveReleased
// rather than returning a stripped directive (a nil benchmark would mean
// "accept arrivals"). Directives not yet answered by every shard — a
// degraded round's next collect, the done directive — are still served.
func TestShardHubReleasesAnsweredDirectives(t *testing.T) {
	ctx := testCtx(t)
	hub, err := NewShardHub(4, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []*codec.ShardSubmit{hello(0, 0, 5, 5), hello(1, 2, 5, 5)} {
		if err := hub.Submit(h); err != nil {
			t.Fatal(err)
		}
	}
	params := []float64{0.5, -1, 2}
	if _, err := hub.Publish(codec.ShardDirective{Round: 0, Phase: codec.ShardPhaseCollect, Params: params, Servers: []int{0}}); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 2; s++ {
		if err := hub.Submit(collectEvidence(s, 0, faults.StatusCrashed, faults.StatusCrashed)); err != nil {
			t.Fatal(err)
		}
	}
	// Every shard has answered, but the wave is unconsumed: still served.
	if d, err := hub.NextDirective(ctx, 0); err != nil || d.Params == nil {
		t.Fatalf("unconsumed collect directive served as %+v, %v", d, err)
	}
	if _, err := hub.Await(ctx, 0, codec.ShardPhaseCollect); err != nil {
		t.Fatal(err)
	}
	if _, err := hub.NextDirective(ctx, 0); !errors.Is(err, ErrDirectiveReleased) {
		t.Fatalf("answered directive polled with %v, want ErrDirectiveReleased", err)
	}
	if held := heldPayloadRounds(hub); len(held) != 0 {
		t.Fatalf("hub still holds payloads for rounds %v", held)
	}

	// Round 0 degraded: the next directive is round 1's collect, with no
	// detect or dist in between. One shard's answer does not release it.
	if _, err := hub.Publish(codec.ShardDirective{Round: 1, Phase: codec.ShardPhaseCollect, Params: params, Servers: []int{0}}); err != nil {
		t.Fatal(err)
	}
	if err := hub.Submit(collectEvidence(0, 1, faults.StatusOK, faults.StatusOK)); err != nil {
		t.Fatal(err)
	}
	if d, err := hub.NextDirective(ctx, 1); err != nil || d.Round != 1 || d.Params == nil {
		t.Fatalf("round-1 collect served to the shard still owing an answer as %+v, %v", d, err)
	}
	if err := hub.Submit(collectEvidence(1, 1, faults.StatusOK, faults.StatusOK)); err != nil {
		t.Fatal(err)
	}
	if _, err := hub.Await(ctx, 1, codec.ShardPhaseCollect); err != nil {
		t.Fatal(err)
	}
	if _, err := hub.NextDirective(ctx, 1); !errors.Is(err, ErrDirectiveReleased) {
		t.Fatalf("answered round-1 collect polled with %v, want ErrDirectiveReleased", err)
	}

	// Done is never answered, so it stays readable, after Close too.
	if _, err := hub.Publish(codec.ShardDirective{Phase: codec.ShardPhaseDone}); err != nil {
		t.Fatal(err)
	}
	hub.Close()
	if d, err := hub.NextDirective(ctx, 2); err != nil || d.Phase != codec.ShardPhaseDone {
		t.Fatalf("done directive served as %+v, %v", d, err)
	}
}

// releaseProbeLink is a DirectLink that, each time a shard receives a
// directive, checks that the hub holds no payload from an earlier round.
type releaseProbeLink struct {
	DirectLink
	t *testing.T
}

func (l releaseProbeLink) NextDirective(ctx context.Context, after int) (codec.ShardDirective, error) {
	d, err := l.DirectLink.NextDirective(ctx, after)
	if err == nil && d.Phase != codec.ShardPhaseDone {
		for _, r := range heldPayloadRounds(l.Hub) {
			if r != d.Round {
				l.t.Errorf("shard received round %d's %s directive while the hub held a round-%d payload", d.Round, d.Phase, r)
			}
		}
	}
	return d, err
}

// TestShardedRunReleasesEachRound runs a 40-round in-process federation
// and requires the hub to hold vector payloads for one round at most, and
// none once the run is over: each directive is dropped as soon as every
// shard has answered it, instead of living for the rest of the run.
func TestShardedRunReleasesEachRound(t *testing.T) {
	var hub *ShardHub
	runSharded(t, 40, cohortSizes(diffWorkers, 2), diffFaults{}, func(_ *core.Coordinator, h *ShardHub) RootLink {
		hub = h
		return releaseProbeLink{DirectLink: DirectLink{Hub: h}, t: t}
	})
	if held := heldPayloadRounds(hub); len(held) != 0 {
		t.Fatalf("after the run the hub still holds payloads for rounds %v", held)
	}
}

// serveHub stands a root server for hub up over HTTP.
func serveHub(t *testing.T, hub *ShardHub) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(rootServer(t, hub).Handler())
	t.Cleanup(ts.Close)
	return ts
}

// rootServer builds a root server for hub over a small coordinator.
func rootServer(t *testing.T, hub *ShardHub) *transport.Server {
	t.Helper()
	samples := make([]int, hub.Workers())
	for i := range samples {
		samples[i] = 5
	}
	root, err := fl.NewEngine(fl.Config{Servers: 1, GlobalLR: 0.1}, nn.NewMLP(11, 4, nil, 2), VirtualWorkers(samples), rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	coord, err := core.NewCoordinator(diffCoordinatorConfig(), root, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(coord, hub)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// TestHTTPLinkReleasedDirectiveIsGone: over HTTP a released directive is
// 410 Gone, not the 204 that tells a poller to try again, so HTTPLink
// returns ErrDirectiveReleased at once instead of re-polling until its
// context expires.
func TestHTTPLinkReleasedDirectiveIsGone(t *testing.T) {
	ctx := testCtx(t)
	hub, err := NewShardHub(2, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := serveHub(t, hub)
	if err := hub.Submit(hello(0, 0, 5, 5)); err != nil {
		t.Fatal(err)
	}
	if _, err := hub.Publish(codec.ShardDirective{Round: 0, Phase: codec.ShardPhaseCollect, Params: []float64{1, 2}}); err != nil {
		t.Fatal(err)
	}
	if err := hub.Submit(collectEvidence(0, 0, faults.StatusOK, faults.StatusOK)); err != nil {
		t.Fatal(err)
	}
	if _, err := hub.Await(ctx, 0, codec.ShardPhaseCollect); err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Get(ts.URL + "/v1/shard/directive?after=0&wait=50")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("released directive served with %s, want 410 Gone", resp.Status)
	}
	// A link that kept re-polling would run into this deadline instead.
	short, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	link := HTTPLink{Base: ts.URL, Client: ts.Client(), PollWait: 50 * time.Millisecond}
	if _, err := link.NextDirective(short, 0); !errors.Is(err, ErrDirectiveReleased) {
		t.Fatalf("HTTPLink polled a released directive with %v, want ErrDirectiveReleased", err)
	}
}

// TestHTTPLinkRejectsOversizedDirective: a directive body one byte over
// the frame limit fails with an explicit size error, not a truncated
// frame that then fails its CRC check.
func TestHTTPLinkRejectsOversizedDirective(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", strconv.Itoa(transport.MaxFrameBytes+1))
		chunk := make([]byte, 64<<10)
		for left := transport.MaxFrameBytes + 1; left > 0; left -= len(chunk) {
			if _, err := w.Write(chunk[:min(len(chunk), left)]); err != nil {
				return // the link hung up
			}
		}
	}))
	defer ts.Close()
	link := HTTPLink{Base: ts.URL, Client: ts.Client()}
	_, err := link.NextDirective(testCtx(t), 0)
	want := fmt.Sprintf("response exceeds the %d-byte limit", transport.MaxFrameBytes)
	if !errors.Is(err, frame.ErrFrameTooLarge) || !strings.Contains(err.Error(), want) {
		t.Fatalf("oversized directive polled with %v, want an explicit frame size error", err)
	}
}
