package score

import (
	"math"
	"strings"
	"testing"
)

// fixedSet builds a two-worker set with known accept rates for scoring
// tests: worker 0 accepts every round, worker 1 none.
func fixedSet() *SignalSet {
	return &SignalSet{
		Workers: []WorkerSignals{
			{Worker: 0, Rounds: 4, Accepts: 4, OK: 4, RewardTotal: 3, ContribTotal: 2},
			{Worker: 1, Rounds: 4, Accepts: 0, OK: 4, RewardTotal: 1, ContribTotal: 1},
		},
		TotalContribution: 3,
		TotalReward:       4,
		Rounds:            4,
	}
}

func TestAlgorithmWeightedMean(t *testing.T) {
	alg, err := NewAlgorithm([]Input{
		{Field: "detection.accept_rate", Weight: 3, Lower: 0, Upper: 1},
		{Field: "reward.share", Weight: 1, Lower: 0, Upper: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	set := fixedSet()
	// Worker 0: accept_rate 1, reward.share 0.75 → (3·1 + 1·0.75)/4.
	got := alg.Score(&set.Workers[0], set)
	if math.Abs(got-3.75/4) > 1e-12 {
		t.Fatalf("score = %v, want %v", got, 3.75/4)
	}
	// Worker 1: accept_rate 0, reward.share 0.25 → 0.25/4.
	got = alg.Score(&set.Workers[1], set)
	if math.Abs(got-0.25/4) > 1e-12 {
		t.Fatalf("score = %v, want %v", got, 0.25/4)
	}
}

func TestNormalizeDistributions(t *testing.T) {
	lin := Input{Lower: 0, Upper: 10, Dist: DistLinear}
	if got := lin.normalize(5); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("linear(5) = %v", got)
	}
	if lin.normalize(-3) != 0 || lin.normalize(99) != 1 {
		t.Fatal("linear must clamp out-of-bounds values")
	}
	zipf := Input{Lower: 0, Upper: 10, Dist: DistZipf}
	if got := zipf.normalize(5); math.Abs(got-math.Log1p(5)/math.Log1p(10)) > 1e-12 {
		t.Fatalf("zipf(5) = %v", got)
	}
	if zipf.normalize(0) != 0 || math.Abs(zipf.normalize(10)-1) > 1e-12 {
		t.Fatal("zipf endpoints must map to 0 and 1")
	}
	lg := Input{Lower: 0, Upper: 10, Dist: DistLog}
	if lg.normalize(0) != 0 || math.Abs(lg.normalize(10)-1) > 1e-12 {
		t.Fatal("log endpoints must map to 0 and 1")
	}
	// Log expands the low end: 10% of the range scores well above 10%.
	if got := lg.normalize(1); got <= 0.1 {
		t.Fatalf("log(1) = %v, want > 0.1", got)
	}
	smaller := Input{Lower: 0, Upper: 10, Dist: DistLinear, SmallerIsBetter: true}
	if got := smaller.normalize(0); got != 1 {
		t.Fatalf("smaller=better at the lower bound = %v, want 1", got)
	}
}

func TestNewAlgorithmValidation(t *testing.T) {
	cases := []struct {
		name   string
		inputs []Input
	}{
		{"empty", nil},
		{"unknown field", []Input{{Field: "nope", Weight: 1, Upper: 1}}},
		{"zero weight", []Input{{Field: "uploads.ok", Weight: 0, Upper: 1}}},
		{"negative weight", []Input{{Field: "uploads.ok", Weight: -1, Upper: 1}}},
		{"inverted bounds", []Input{{Field: "uploads.ok", Weight: 1, Lower: 2, Upper: 1}}},
		{"bad dist", []Input{{Field: "uploads.ok", Weight: 1, Upper: 1, Dist: "cauchy"}}},
		{"duplicate field", []Input{
			{Field: "uploads.ok", Weight: 1, Upper: 1},
			{Field: "uploads.ok", Weight: 2, Upper: 1},
		}},
	}
	for _, c := range cases {
		if _, err := NewAlgorithm(c.inputs); err == nil {
			t.Errorf("%s: NewAlgorithm accepted invalid inputs", c.name)
		}
	}
}

func TestParseConfigDefault(t *testing.T) {
	alg, err := ParseConfig(strings.NewReader(DefaultConfigText))
	if err != nil {
		t.Fatal(err)
	}
	if len(alg.inputs) != 8 {
		t.Fatalf("default config has %d inputs", len(alg.inputs))
	}
	set := fixedSet()
	s0 := alg.Score(&set.Workers[0], set)
	s1 := alg.Score(&set.Workers[1], set)
	if !(s0 > s1) {
		t.Fatalf("default config must rank the clean worker first: %v vs %v", s0, s1)
	}
	if s0 < 0 || s0 > 1 || s1 < 0 || s1 > 1 {
		t.Fatalf("scores out of [0,1]: %v, %v", s0, s1)
	}
	// DefaultAlgorithm must be the same thing.
	if d := DefaultAlgorithm(); d.Score(&set.Workers[0], set) != s0 {
		t.Fatal("DefaultAlgorithm disagrees with parsing DefaultConfigText")
	}
}

func TestParseConfigErrors(t *testing.T) {
	cases := []struct{ name, text string }{
		{"empty", ""},
		{"no algorithm", "input uploads.ok weight=1 lower=0 upper=1\n"},
		{"unsupported algorithm", "algorithm geometric_mean\n"},
		{"duplicate algorithm", "algorithm weighted_mean\nalgorithm weighted_mean\n"},
		{"unknown directive", "algorithm weighted_mean\nscore uploads.ok\n"},
		{"input before algorithm", "input uploads.ok weight=1 lower=0 upper=1\nalgorithm weighted_mean\n"},
		{"missing weight", "algorithm weighted_mean\ninput uploads.ok lower=0 upper=1\n"},
		{"malformed option", "algorithm weighted_mean\ninput uploads.ok weight\n"},
		{"bad float", "algorithm weighted_mean\ninput uploads.ok weight=abc lower=0 upper=1\n"},
		{"unknown option", "algorithm weighted_mean\ninput uploads.ok weight=1 lower=0 upper=1 shape=tall\n"},
		{"bad smaller", "algorithm weighted_mean\ninput uploads.ok weight=1 lower=0 upper=1 smaller=worse\n"},
		{"no inputs", "algorithm weighted_mean\n"},
	}
	for _, c := range cases {
		if _, err := ParseConfig(strings.NewReader(c.text)); err == nil {
			t.Errorf("%s: ParseConfig accepted invalid config", c.name)
		}
	}
}

func TestParseConfigCommentsAndRoundTrip(t *testing.T) {
	text := `
# leading comment
algorithm weighted_mean

input detection.accept_rate weight=2 lower=0 upper=1 dist=zipf
# trailing comment
input uploads.crashed weight=1 lower=0 upper=5 smaller=better
`
	alg, err := ParseConfig(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	ins := alg.inputs
	if len(ins) != 2 || ins[0].Dist != DistZipf || !ins[1].SmallerIsBetter {
		t.Fatalf("parsed inputs: %+v", ins)
	}
}
