package stats

import (
	"math"
	"testing"
	"testing/quick"

	"fifl/internal/rng"
)

func TestSumMean(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if Sum(xs) != 10 {
		t.Fatalf("Sum = %v", Sum(xs))
	}
	if Mean(xs) != 2.5 {
		t.Fatalf("Mean = %v", Mean(xs))
	}
}

func TestEmptyInputs(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("empty Mean should be 0")
	}
	if _, err := Min(nil); err != ErrEmpty {
		t.Fatal("Min(nil) should return ErrEmpty")
	}
	if _, err := Max(nil); err != ErrEmpty {
		t.Fatal("Max(nil) should return ErrEmpty")
	}
	if _, err := Quantile(nil, 0.5); err != ErrEmpty {
		t.Fatal("Quantile(nil) should return ErrEmpty")
	}
	if _, err := Pearson(nil, nil); err != ErrEmpty {
		t.Fatal("Pearson(nil,nil) should return ErrEmpty")
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	mn, _ := Min(xs)
	mx, _ := Max(xs)
	if mn != -1 || mx != 7 {
		t.Fatalf("Min/Max = %v/%v", mn, mx)
	}
}

func TestPearsonPerfectCorrelation(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	r, err := Pearson(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r-1) > 1e-12 {
		t.Fatalf("Pearson = %v, want 1", r)
	}
	// Anti-correlation.
	neg := []float64{-1, -2, -3, -4, -5}
	r, _ = Pearson(xs, neg)
	if math.Abs(r+1) > 1e-12 {
		t.Fatalf("Pearson = %v, want -1", r)
	}
}

func TestPearsonConstantSeriesError(t *testing.T) {
	if _, err := Pearson([]float64{1, 1, 1}, []float64{1, 2, 3}); err == nil {
		t.Fatal("constant series must be an error")
	}
}

func TestPearsonLengthMismatch(t *testing.T) {
	if _, err := Pearson([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("length mismatch must be an error")
	}
}

// Property: Pearson is invariant to positive affine transforms — the key
// property behind Theorem 2's fairness argument (rewards proportional to
// contributions have correlation exactly 1).
func TestPearsonAffineInvariance(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		src := rng.New(seed)
		n := src.UniformInt(3, 30)
		xs := make([]float64, n)
		src.FillNormal(xs, 0, 1)
		a := src.Uniform(0.1, 5)
		b := src.Uniform(-3, 3)
		ys := make([]float64, n)
		for i, x := range xs {
			ys[i] = a*x + b
		}
		r, err := Pearson(xs, ys)
		return err == nil && math.Abs(r-1) < 1e-9
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, tc := range []struct{ q, want float64 }{
		{0, 1}, {1, 4}, {0.5, 2.5}, {0.25, 1.75},
	} {
		got, err := Quantile(xs, tc.q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-tc.want) > 1e-12 {
			t.Fatalf("Quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
}

func TestRunningMatchesBatch(t *testing.T) {
	src := rng.New(11)
	xs := make([]float64, 500)
	src.FillNormal(xs, 3, 2)
	var r Running
	for _, x := range xs {
		r.Add(x)
	}
	if math.Abs(r.Mean()-Mean(xs)) > 1e-9 {
		t.Fatalf("Running mean %v vs batch %v", r.Mean(), Mean(xs))
	}
	if r.N() != 500 {
		t.Fatalf("N = %d", r.N())
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 3) != 3 || Clamp(-1, 0, 3) != 0 || Clamp(2, 0, 3) != 2 {
		t.Fatal("Clamp wrong")
	}
}

// TestPearsonEdgeCases: every undefined case must return the defined
// value 0 with its sentinel error — never NaN, which would silently
// poison a folded fairness report.
func TestPearsonEdgeCases(t *testing.T) {
	cases := []struct {
		name    string
		xs, ys  []float64
		wantErr error
	}{
		{"empty", nil, nil, ErrEmpty},
		{"single sample", []float64{1}, []float64{2}, ErrShortSeries},
		{"constant xs", []float64{3, 3, 3}, []float64{1, 2, 3}, ErrConstantSeries},
		{"constant ys", []float64{1, 2, 3}, []float64{7, 7, 7}, ErrConstantSeries},
		{"nan in xs", []float64{1, math.NaN(), 3}, []float64{1, 2, 3}, ErrNonFinite},
		{"inf in ys", []float64{1, 2, 3}, []float64{1, math.Inf(1), 3}, ErrNonFinite},
		{"overflowing sums", []float64{math.MaxFloat64, -math.MaxFloat64}, []float64{math.MaxFloat64, -math.MaxFloat64}, ErrNonFinite},
	}
	for _, c := range cases {
		r, err := Pearson(c.xs, c.ys)
		if err == nil {
			t.Errorf("%s: Pearson returned nil error", c.name)
			continue
		}
		if c.wantErr != nil && err != c.wantErr {
			t.Errorf("%s: error %v, want %v", c.name, err, c.wantErr)
		}
		if r != 0 {
			t.Errorf("%s: value %v, want the defined fallback 0", c.name, r)
		}
		if math.IsNaN(r) {
			t.Errorf("%s: Pearson leaked NaN", c.name)
		}
	}
}

// TestPearsonAlwaysInRange: defined results are clamped into [-1,1] even
// when rounding pushes the exact formula an ulp past the bound.
func TestPearsonAlwaysInRange(t *testing.T) {
	src := rng.New(99)
	for trial := 0; trial < 200; trial++ {
		n := 2 + src.Intn(10)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = src.Float64()*2e6 - 1e6
			ys[i] = xs[i] * 3.5 // perfectly correlated: r must be exactly 1
		}
		r, err := Pearson(xs, ys)
		if err != nil {
			continue
		}
		if r < -1 || r > 1 {
			t.Fatalf("trial %d: Pearson %v out of [-1,1]", trial, r)
		}
	}
}
