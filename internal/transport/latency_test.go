package transport

import (
	"testing"

	"fifl/internal/persist"
)

// TestHubUploadObserver pins the latency observer contract: every fresh
// accepted submission for a stamped round is observed exactly once with a
// non-negative duration; idempotent replays, rejected uploads and rounds
// published before the stamp map existed (none here) observe nothing.
func TestHubUploadObserver(t *testing.T) {
	hub, err := NewHub(2)
	if err != nil {
		t.Fatal(err)
	}
	type obs struct {
		worker  int
		seconds float64
	}
	var seen []obs
	hub.SetUploadObserver(func(worker int, seconds float64) {
		seen = append(seen, obs{worker, seconds})
	})
	for id := 0; id < 2; id++ {
		if err := hub.hello(id, 10); err != nil {
			t.Fatal(err)
		}
	}
	hub.publish(0, []float64{1, 2, 3, 4})
	if fresh, err := hub.submit(0, 0, 10, make([]float64, 4)); err != nil || !fresh {
		t.Fatalf("first submission: fresh=%v err=%v", fresh, err)
	}
	// Idempotent replay: accepted, not fresh, not observed again.
	if fresh, err := hub.submit(0, 0, 10, make([]float64, 4)); err != nil || fresh {
		t.Fatalf("replay: fresh=%v err=%v", fresh, err)
	}
	// Rejected submission (inconsistent samples): never observed.
	if _, err := hub.submit(0, 1, 99, make([]float64, 4)); err == nil {
		t.Fatal("inconsistent submission accepted")
	}
	if fresh, err := hub.submit(0, 1, 10, make([]float64, 4)); err != nil || !fresh {
		t.Fatalf("second worker: fresh=%v err=%v", fresh, err)
	}
	if len(seen) != 2 {
		t.Fatalf("observed %d uploads, want 2: %+v", len(seen), seen)
	}
	for i, want := range []int{0, 1} {
		if seen[i].worker != want {
			t.Errorf("observation %d from worker %d, want %d", i, seen[i].worker, want)
		}
		if seen[i].seconds < 0 {
			t.Errorf("observation %d has negative latency %v", i, seen[i].seconds)
		}
	}
}

// TestHubUploadObserverRestoredRound proves a restored hub stamps the
// checkpointed broadcast, so reconnecting workers' uploads are observed
// after a coordinator restart.
func TestHubUploadObserverRestoredRound(t *testing.T) {
	hub, err := NewHub(1)
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	hub.SetUploadObserver(func(int, float64) { calls++ })
	if err := hub.Restore(&persist.Snapshot{NextRound: 4, Params: []float64{1, 2}, Samples: []int{10}}); err != nil {
		t.Fatal(err)
	}
	if fresh, err := hub.submit(3, 0, 10, make([]float64, 2)); err != nil || !fresh {
		t.Fatalf("submit after restore: fresh=%v err=%v", fresh, err)
	}
	if calls != 1 {
		t.Fatalf("observer fired %d times, want 1", calls)
	}
}
