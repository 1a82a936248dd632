package dataset

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"fifl/internal/rng"
)

func TestSynthDigitsShapes(t *testing.T) {
	src := rng.New(1)
	d := SynthDigits(src, 50)
	if d.Len() != 50 {
		t.Fatalf("Len = %d", d.Len())
	}
	shape := d.X.Shape()
	if shape[0] != 50 || shape[1] != 1 || shape[2] != 28 || shape[3] != 28 {
		t.Fatalf("shape = %v", shape)
	}
	if d.Classes != 10 {
		t.Fatalf("Classes = %d", d.Classes)
	}
	for _, l := range d.Labels {
		if l < 0 || l >= 10 {
			t.Fatalf("label out of range: %d", l)
		}
	}
}

func TestSynthDigitsPixelRange(t *testing.T) {
	d := SynthDigits(rng.New(2), 20)
	for _, v := range d.X.Data() {
		if v < 0 || v > 1 || math.IsNaN(v) {
			t.Fatalf("pixel out of [0,1]: %v", v)
		}
	}
}

func TestSynthImagesShapes(t *testing.T) {
	d := SynthImages(rng.New(3), 30)
	shape := d.X.Shape()
	if shape[0] != 30 || shape[1] != 3 || shape[2] != 32 || shape[3] != 32 {
		t.Fatalf("shape = %v", shape)
	}
	for _, v := range d.X.Data() {
		if v < 0 || v > 1 {
			t.Fatalf("pixel out of range: %v", v)
		}
	}
}

func TestSynthDigitsDeterministic(t *testing.T) {
	a := SynthDigits(rng.New(7), 10)
	b := SynthDigits(rng.New(7), 10)
	for i, v := range a.X.Data() {
		if b.X.Data()[i] != v {
			t.Fatal("same seed must generate identical data")
		}
	}
}

// TestSynthDigitsLearnable: a small MLP must be able to fit the task far
// above chance; otherwise the dataset carries no class signal and every
// downstream experiment is meaningless.
func TestSynthDigitsLearnable(t *testing.T) {
	src := rng.New(4)
	d := SynthDigits(src, 600)
	// Simple nearest-class-mean classifier on raw pixels: compute class
	// means on the first 500, classify the rest.
	const dim = 28 * 28
	var means [10][dim]float64
	var counts [10]int
	xd := d.X.Data()
	for i := 0; i < 500; i++ {
		c := d.Labels[i]
		counts[c]++
		for j := 0; j < dim; j++ {
			means[c][j] += xd[i*dim+j]
		}
	}
	for c := range means {
		if counts[c] > 0 {
			for j := range means[c] {
				means[c][j] /= float64(counts[c])
			}
		}
	}
	hit := 0
	for i := 500; i < 600; i++ {
		best, bestD := -1, math.Inf(1)
		for c := range means {
			s := 0.0
			for j := 0; j < dim; j++ {
				diff := xd[i*dim+j] - means[c][j]
				s += diff * diff
			}
			if s < bestD {
				bestD, best = s, c
			}
		}
		if best == d.Labels[i] {
			hit++
		}
	}
	// Nearest-class-mean on raw pixels is a weak classifier (the glyphs
	// carry position and scale jitter), but it must still beat chance
	// (0.1) by a wide margin for the task to carry class signal.
	if acc := float64(hit) / 100; acc < 0.3 {
		t.Fatalf("nearest-mean accuracy %v; dataset not learnable", acc)
	}
}

func TestSubset(t *testing.T) {
	d := SynthDigits(rng.New(5), 10)
	s := d.Subset([]int{3, 7})
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	if s.Labels[0] != d.Labels[3] || s.Labels[1] != d.Labels[7] {
		t.Fatal("Subset labels wrong")
	}
	// Subset copies: mutating the subset must not touch the parent.
	s.X.Data()[0] = -99
	if d.X.Data()[3*28*28] == -99 {
		t.Fatal("Subset must copy")
	}
}

func TestSubsetOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SynthDigits(rng.New(5), 3).Subset([]int{5})
}

func TestPartitionIIDCoversAll(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		src := rng.New(seed)
		n := src.UniformInt(5, 40)
		parts := src.UniformInt(1, 5)
		d := SynthDigits(src, n)
		ps := d.PartitionIID(src, parts)
		total := 0
		for _, p := range ps {
			total += p.Len()
		}
		return len(ps) == parts && total == n
	}, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionSizesBalanced(t *testing.T) {
	d := SynthDigits(rng.New(6), 10)
	ps := d.PartitionIID(rng.New(7), 3)
	if ps[0].Len() != 4 || ps[1].Len() != 3 || ps[2].Len() != 3 {
		t.Fatalf("sizes %d %d %d", ps[0].Len(), ps[1].Len(), ps[2].Len())
	}
}

func TestPoisonLabelsFraction(t *testing.T) {
	d := SynthDigits(rng.New(8), 200)
	for _, p := range []float64{0, 0.25, 0.5, 1} {
		poisoned := d.PoisonLabels(rng.New(9), p)
		changed := 0
		for i := range d.Labels {
			if poisoned.Labels[i] != d.Labels[i] {
				changed++
			}
		}
		want := int(p * 200)
		if changed != want {
			t.Fatalf("p=%v: changed %d labels, want %d", p, changed, want)
		}
		// Labels stay in range and never equal the original when changed.
		for i, l := range poisoned.Labels {
			if l < 0 || l >= 10 {
				t.Fatalf("label out of range: %d", l)
			}
			_ = i
		}
	}
}

func TestPoisonDoesNotMutateOriginal(t *testing.T) {
	d := SynthDigits(rng.New(10), 50)
	orig := append([]int(nil), d.Labels...)
	d.PoisonLabels(rng.New(11), 1)
	for i := range orig {
		if d.Labels[i] != orig[i] {
			t.Fatal("PoisonLabels mutated the original dataset")
		}
	}
}

func TestBatchShapesAndLabels(t *testing.T) {
	d := SynthDigits(rng.New(12), 40)
	x, y := d.Batch(rng.New(13), 8)
	if x.Dim(0) != 8 || len(y) != 8 {
		t.Fatalf("batch shape %v labels %d", x.Shape(), len(y))
	}
	for _, l := range y {
		if l < 0 || l >= 10 {
			t.Fatalf("bad label %d", l)
		}
	}
}

func TestBatchEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	d := &Dataset{X: SynthDigits(rng.New(1), 1).X.Reshape(1, 1, 28, 28), Labels: nil, Classes: 10}
	d.Labels = nil
	empty := d.Subset(nil)
	empty.Batch(rng.New(2), 4)
}

func TestSampleN(t *testing.T) {
	d := SynthDigits(rng.New(14), 20)
	s := d.SampleN(rng.New(15), 100)
	if s.Len() != 100 {
		t.Fatalf("SampleN length %d", s.Len())
	}
}

// TestBatchIntoMatchesBatch: BatchInto draws Batch's examples from the
// same stream and refills buffers of the right shape in place.
func TestBatchIntoMatchesBatch(t *testing.T) {
	d := SynthDigits(rng.New(15), 40)
	a, b := rng.New(16), rng.New(16)
	x, y := d.BatchInto(b, 8, nil, nil)
	for round := 0; round < 3; round++ {
		wx, wy := d.Batch(a, 8)
		if round > 0 {
			px, py := x, &y[0]
			x, y = d.BatchInto(b, 8, x, y)
			if x != px || &y[0] != py {
				t.Fatalf("round %d: buffers of the right shape were reallocated", round)
			}
		}
		if !slices.Equal(x.Shape(), wx.Shape()) || !slices.Equal(x.Data(), wx.Data()) || !slices.Equal(y, wy) {
			t.Fatalf("round %d: BatchInto drew another batch than Batch", round)
		}
	}
	if x2, _ := d.BatchInto(b, 4, x, y); x2 == x || x2.Dim(0) != 4 {
		t.Fatal("a batch of another size reused the buffer")
	}
}
