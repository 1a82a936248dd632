package shard

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"fifl/internal/core"
	"fifl/internal/faults"
	"fifl/internal/fl"
	"fifl/internal/nn"
	"fifl/internal/rng"
	"fifl/internal/transport/codec"
)

// TestBridgeFilesWrongLengthServerGradient: a server gradient a shard
// forwards at the wrong length reaches the root's round as a row of NaNs,
// so the benchmark is assembled from the other server alone.
func TestBridgeFilesWrongLengthServerGradient(t *testing.T) {
	ctx := testCtx(t)
	build := nn.NewMLP(11, 4, nil, 2)
	d := build().NumParams()
	good := make([]float64, d)
	for i := range good {
		good[i] = float64(i + 1)
	}
	for name, bad := range map[string][]float64{"short": good[:d-1], "long": append(append([]float64(nil), good...), 1)} {
		hub, err := NewShardHub(2, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		root, err := fl.NewEngine(fl.Config{Servers: 2, GlobalLR: 0.1}, build, VirtualWorkers([]int{5, 5}), rng.New(1))
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewBridge(hub, root, 0)
		if err != nil {
			t.Fatal(err)
		}
		b.BindServers(func() []int { return []int{0, 1} })
		if err := hub.Submit(hello(0, 0, 5, 5)); err != nil {
			t.Fatal(err)
		}
		go func() {
			link := DirectLink{Hub: hub}
			if _, err := link.NextDirective(ctx, 0); err != nil {
				return
			}
			_ = link.Submit(ctx, codec.ShardSubmit{
				Shard: 0, Round: 0, Phase: codec.ShardPhaseCollect,
				Collect: &codec.ShardCollectEvidence{
					Statuses:    []faults.UploadStatus{faults.StatusOK, faults.StatusOK},
					Retries:     []int{0, 0},
					ServerIDs:   []int{0, 1},
					ServerGrads: [][]float64{bad, good},
				},
			})
		}()
		rr, err := b.CollectRound(ctx, 0)
		if err != nil {
			t.Fatal(err)
		}
		if g := rr.Grads[0]; len(g) != d || !math.IsNaN(g[0]) || !math.IsNaN(g[d-1]) || rr.Usable(0) {
			t.Fatalf("%s: forwarded server gradient filed as %v, want %d NaNs", name, g, d)
		}
		det, err := (&core.Detector{}).DetectRound(rr, []int{0, 1}, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !bitsEqual(det.Benchmark, good) {
			t.Fatalf("%s: benchmark %v, want the usable server's gradient %v", name, det.Benchmark, good)
		}
	}
}

// scriptLink serves a fixed directive script to an aggregator and drops
// its submits.
type scriptLink struct{ script []codec.ShardDirective }

func (l scriptLink) Submit(context.Context, codec.ShardSubmit) error { return nil }

func (l scriptLink) NextDirective(_ context.Context, after int) (codec.ShardDirective, error) {
	if after >= len(l.script) {
		return codec.ShardDirective{}, errors.New("directive script exhausted")
	}
	return l.script[after], nil
}

// TestAggregatorRefusesWrongLengthDirectives: a detect directive whose
// benchmark, or a dist directive whose global gradient, is not of the
// model's length ends the aggregator's loop with an error, not a panic and
// not a cohort scored against it.
func TestAggregatorRefusesWrongLengthDirectives(t *testing.T) {
	workers, build := buildDiffWorkers(rng.New(2), diffFaults{})
	d := build().NumParams()
	for _, tc := range []struct {
		name      string
		directive codec.ShardDirective
	}{
		{"short benchmark", codec.ShardDirective{Phase: codec.ShardPhaseDetect, Benchmark: make([]float64, d-1), Owners: []int{0}}},
		{"long benchmark", codec.ShardDirective{Phase: codec.ShardPhaseDetect, Benchmark: make([]float64, d+1), Owners: []int{0}}},
		{"short global", codec.ShardDirective{Phase: codec.ShardPhaseDist, Global: make([]float64, d-1)}},
		{"long global", codec.ShardDirective{Phase: codec.ShardPhaseDist, Global: make([]float64, d+1)}},
		{"missing global", codec.ShardDirective{Phase: codec.ShardPhaseDist}},
	} {
		engine, err := fl.NewEngine(fl.Config{Servers: 1, GlobalLR: 0.1}, build, workers[:2], rng.New(2))
		if err != nil {
			t.Fatal(err)
		}
		bad := tc.directive
		bad.Seq = 2
		link := scriptLink{script: []codec.ShardDirective{
			{Seq: 1, Phase: codec.ShardPhaseCollect, Params: engine.Params(), Servers: []int{0}},
			bad,
		}}
		a, err := NewAggregator(0, 0, engine, link)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Run(testCtx(t)); err == nil || !strings.Contains(err.Error(), "dims, model has") {
			t.Fatalf("%s: Run returned %v, want the length refusal", tc.name, err)
		}
	}
}
