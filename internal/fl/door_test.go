package fl

import (
	"context"
	"math"
	"testing"
	"time"

	"fifl/internal/faults"
	"fifl/internal/gradvec"
	"fifl/internal/nn"
	"fifl/internal/rng"
)

// fixedUploadWorker returns the same upload every round, whatever its
// length.
type fixedUploadWorker struct {
	id   int
	grad gradvec.Vector
}

func (w *fixedUploadWorker) ID() int                                  { return w.id }
func (w *fixedUploadWorker) NumSamples() int                          { return 1 }
func (w *fixedUploadWorker) LocalTrain(int, []float64) gradvec.Vector { return w.grad }

// doorEngine builds a federation whose workers upload, in order, a
// gradient of the model's length d (all ones), a short one, a long one and
// nil. It returns the engine and d.
func doorEngine(t *testing.T, opts ...Option) (*Engine, int) {
	t.Helper()
	build := nn.NewMLP(3, 4, nil, 2)
	d := build().NumParams()
	ones := make(gradvec.Vector, d)
	for i := range ones {
		ones[i] = 1
	}
	uploads := []gradvec.Vector{ones, make(gradvec.Vector, d-1), make(gradvec.Vector, d+1), nil}
	workers := make([]Worker, len(uploads))
	for i, g := range uploads {
		workers[i] = &fixedUploadWorker{id: i, grad: g}
	}
	e, err := NewEngine(Config{Servers: 1, GlobalLR: 0.1}, build, workers, rng.New(3), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return e, d
}

// requireFiledAtDoor checks a round collected from doorEngine's workers:
// the model-length upload is filed as it is, and the short, long and nil
// ones each reach the round as nil or as d NaNs, never usable.
func requireFiledAtDoor(t *testing.T, label string, rr *RoundResult, d int) {
	t.Helper()
	if g := rr.Grads[0]; len(g) != d || g[0] != 1 || !rr.Usable(0) {
		t.Fatalf("%s: model-length upload filed as %v (usable %v)", label, g, rr.Usable(0))
	}
	names := [...]string{1: "short", 2: "long", 3: "nil"}
	for i := 1; i < len(names); i++ {
		g, name := rr.Grads[i], names[i]
		if rr.Usable(i) {
			t.Fatalf("%s: %s upload is usable", label, name)
		}
		if g == nil {
			continue
		}
		if len(g) != d {
			t.Fatalf("%s: %s upload filed with %d elements, model has %d", label, name, len(g), d)
		}
		for j, x := range g {
			if !math.IsNaN(x) {
				t.Fatalf("%s: %s upload filed with %v at %d, want NaN", label, name, x, j)
			}
		}
	}
	for _, i := range []int{1, 2} {
		if rr.Grads[i] == nil {
			t.Fatalf("%s: arrived upload %d filed as absent", label, i)
		}
	}
}

// TestCollectFilesWrongLengthAsNaN: the synchronous collector, with and
// without a worker deadline, files every arrival at the model's length.
func TestCollectFilesWrongLengthAsNaN(t *testing.T) {
	for label, opts := range map[string][]Option{
		"no deadline": nil,
		"deadline":    {WithWorkerTimeout(time.Minute)},
	} {
		e, d := doorEngine(t, opts...)
		for round := 0; round < 2; round++ {
			rr, err := e.CollectGradientsContext(context.Background(), round)
			if err != nil {
				t.Fatal(err)
			}
			requireFiledAtDoor(t, label, rr, d)
		}
	}
}

// TestAsyncCollectFilesWrongLengthAsNaN: the in-process async collector
// files its window's uploads through the same rule.
func TestAsyncCollectFilesWrongLengthAsNaN(t *testing.T) {
	e, d := doorEngine(t)
	c, err := NewAsyncCollector(e, AsyncConfig{MaxStaleness: 1, AdvanceEvery: len(e.Workers)})
	if err != nil {
		t.Fatal(err)
	}
	rr, err := c.CollectRound(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	requireFiledAtDoor(t, "async", rr, d)
}

// TestUploadRow pins the rule itself.
func TestUploadRow(t *testing.T) {
	g := gradvec.Vector{1, 2, 3}
	if got := UploadRow(g, 3); &got[0] != &g[0] {
		t.Fatal("a model-length upload was copied")
	}
	if UploadRow(nil, 3) != nil {
		t.Fatal("an absent upload was filed")
	}
	for _, bad := range []gradvec.Vector{{}, {1, 2}, {1, 2, 3, 4}} {
		got := UploadRow(bad, 3)
		if len(got) != 3 || !got.HasNaN() || !math.IsNaN(got[0]) || !math.IsNaN(got[2]) {
			t.Fatalf("%d-element upload filed as %v, want 3 NaNs", len(bad), got)
		}
	}
}

// TestNilUploadIsDropped: a planned arrival whose LocalTrain returns nil
// never reached the servers, so it is filed as dropped and the quorum does
// not count it — with and without a worker deadline. doorEngine's fourth
// worker uploads nil; with WithQuorum(4) the round must not commit.
func TestNilUploadIsDropped(t *testing.T) {
	for label, opts := range map[string][]Option{
		"no deadline": {WithQuorum(4)},
		"deadline":    {WithQuorum(4), WithWorkerTimeout(time.Minute)},
	} {
		e, _ := doorEngine(t, opts...)
		rr, err := e.CollectGradientsContext(context.Background(), 0)
		if err != nil {
			t.Fatal(err)
		}
		if rr.Status[3] != faults.StatusDropped {
			t.Fatalf("%s: nil upload filed as %v, want dropped", label, rr.Status[3])
		}
		if rr.Arrived != 3 || rr.Committed {
			t.Fatalf("%s: Arrived %d, Committed %v; want 3 arrivals and no quorum of 4", label, rr.Arrived, rr.Committed)
		}
	}
}
