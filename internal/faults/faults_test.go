package faults

import (
	"testing"

	"fifl/internal/rng"
)

func TestStatusArrived(t *testing.T) {
	cases := map[UploadStatus]bool{
		StatusOK:       true,
		StatusRetried:  true,
		StatusDropped:  false,
		StatusTimedOut: false,
		StatusCrashed:  false,
	}
	for s, want := range cases {
		if s.Arrived() != want {
			t.Fatalf("%v.Arrived() = %v, want %v", s, s.Arrived(), want)
		}
	}
}

func TestStatusStringsDistinct(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range []UploadStatus{StatusOK, StatusRetried, StatusDropped, StatusTimedOut, StatusCrashed} {
		name := s.String()
		if name == "" || name == "unknown" || seen[name] {
			t.Fatalf("status %d has bad or duplicate name %q", s, name)
		}
		seen[name] = true
	}
}

func TestWorstOrdering(t *testing.T) {
	if Worst(FaultNone, FaultDrop) != FaultDrop {
		t.Fatal("drop beats none")
	}
	if Worst(FaultCrash, FaultStraggle) != FaultCrash {
		t.Fatal("crash beats straggle")
	}
	if Worst(FaultStraggle, FaultDrop) != FaultStraggle {
		t.Fatal("straggle beats drop")
	}
}

func TestBernoulliDeterministicAndCalibrated(t *testing.T) {
	draw := func() []Fault {
		src := rng.New(7)
		inj := Bernoulli{P: 0.5}
		out := make([]Fault, 1000)
		for i := range out {
			out[i] = inj.Fault(0, i, 0, src)
		}
		return out
	}
	a, b := draw(), draw()
	drops := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Bernoulli injector must be deterministic for a fixed seed")
		}
		if a[i] == FaultDrop {
			drops++
		}
	}
	if drops < 400 || drops > 600 {
		t.Fatalf("drop count %d for P=0.5 over 1000 draws", drops)
	}
}

func TestCrashWindow(t *testing.T) {
	src := rng.New(1)
	c := Crash{Worker: 2, From: 3, Until: 6}
	for round := 0; round < 10; round++ {
		want := FaultNone
		if round >= 3 && round < 6 {
			want = FaultCrash
		}
		if got := c.Fault(round, 2, 0, src); got != want {
			t.Fatalf("round %d: fault %v, want %v", round, got, want)
		}
		if got := c.Fault(round, 1, 0, src); got != FaultNone {
			t.Fatalf("round %d: other worker faulted: %v", round, got)
		}
	}
	// Until <= From: permanent crash.
	perm := Crash{Worker: 0, From: 4}
	if perm.Fault(100, 0, 0, src) != FaultCrash {
		t.Fatal("permanent crash must persist")
	}
	if perm.Fault(3, 0, 0, src) != FaultNone {
		t.Fatal("crash must not fire before From")
	}
}

func TestStraggleWindow(t *testing.T) {
	src := rng.New(1)
	s := Straggle{Worker: 1, From: 0, Until: 2}
	if s.Fault(1, 1, 0, src) != FaultStraggle {
		t.Fatal("straggle inside window")
	}
	if s.Fault(2, 1, 0, src) != FaultNone {
		t.Fatal("straggle must end at Until")
	}
}

func TestComposeWorstWinsAndStreamsAligned(t *testing.T) {
	src := rng.New(5)
	comp := Compose{Bernoulli{P: 0}, Crash{Worker: 0, From: 0}}
	if comp.Fault(0, 0, 0, src) != FaultCrash {
		t.Fatal("compose must surface the worst member fault")
	}
	if comp.Fault(0, 1, 0, src) != FaultNone {
		t.Fatal("compose must be clean when all members are clean")
	}
	// Stream alignment: a composed Bernoulli consumes exactly as many
	// draws as a bare one, regardless of the other members' answers.
	a := rng.New(11)
	b := rng.New(11)
	bare := Bernoulli{P: 0.5}
	composed := Compose{Bernoulli{P: 0.5}, Crash{Worker: 0, From: 0}}
	for i := 0; i < 100; i++ {
		bare.Fault(0, i, 0, a)
		composed.Fault(0, i, 0, b)
	}
	if a.Float64() != b.Float64() {
		t.Fatal("compose must keep member streams aligned")
	}
}
