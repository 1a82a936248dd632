package tensor

import (
	"math"
	"testing"
	"testing/quick"

	"fifl/internal/rng"
)

func TestNewShapeAndSize(t *testing.T) {
	tt := New(2, 3, 4)
	if tt.Size() != 24 {
		t.Fatalf("Size = %d, want 24", tt.Size())
	}
	if tt.Rank() != 3 {
		t.Fatalf("Rank = %d, want 3", tt.Rank())
	}
	if tt.Dim(1) != 3 {
		t.Fatalf("Dim(1) = %d, want 3", tt.Dim(1))
	}
}

func TestNewNegativeDimPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative dimension")
		}
	}()
	New(2, -1)
}

func TestFromSliceLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for bad FromSlice length")
		}
	}()
	FromSlice([]float64{1, 2, 3}, 2, 2)
}

func TestCloneIndependence(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3}, 3)
	b := a.Clone()
	b.Data()[0] = 99
	if a.Data()[0] != 1 {
		t.Fatal("Clone shares storage with original")
	}
}

func TestReshapeSharesStorage(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	b := a.Reshape(4)
	b.Data()[3] = 42
	if a.Data()[1*2+1] != 42 {
		t.Fatal("Reshape must alias storage")
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3}, 3)
	b := FromSlice([]float64{4, 5, 6}, 3)
	a.Add(b)
	want := []float64{5, 7, 9}
	for i, v := range want {
		if a.Data()[i] != v {
			t.Fatalf("Add: got %v, want %v", a.Data(), want)
		}
	}
	a.Scale(2)
	if a.Data()[2] != 18 {
		t.Fatalf("Scale: got %v", a.Data())
	}
	a.AddScaled(0.5, b)
	if a.Data()[0] != 10+2 {
		t.Fatalf("AddScaled: got %v", a.Data())
	}
}

func TestDotAndNorm(t *testing.T) {
	a := FromSlice([]float64{3, 4}, 2)
	if got := a.Dot(a); got != 25 {
		t.Fatalf("Dot = %v, want 25", got)
	}
	if got := a.Norm2(); got != 5 {
		t.Fatalf("Norm2 = %v, want 5", got)
	}
}

func TestHasNaN(t *testing.T) {
	a := FromSlice([]float64{1, math.NaN()}, 2)
	if !a.HasNaN() {
		t.Fatal("HasNaN missed NaN")
	}
	b := FromSlice([]float64{1, math.Inf(1)}, 2)
	if !b.HasNaN() {
		t.Fatal("HasNaN missed Inf")
	}
	c := FromSlice([]float64{1, 2}, 2)
	if c.HasNaN() {
		t.Fatal("HasNaN false positive")
	}
}

// MatMul computes C = A·B into a fresh tensor.
func MatMul(a, b *Tensor) *Tensor {
	c := New(a.Dim(0), b.Dim(1))
	MatMulInto(c, a, b)
	return c
}

// MatMulT1 computes C = Aᵀ·B into a fresh tensor.
func MatMulT1(a, b *Tensor) *Tensor {
	c := New(a.Dim(1), b.Dim(1))
	MatMulT1Into(c, a, b)
	return c
}

// MatMulT2 computes C = A·Bᵀ into a fresh tensor.
func MatMulT2(a, b *Tensor) *Tensor {
	c := New(a.Dim(0), b.Dim(0))
	MatMulT2Into(c, a, b)
	return c
}

// Transpose2D returns the transpose of a rank-2 tensor as a new tensor.
func Transpose2D(a *Tensor) *Tensor {
	m, n := a.Dim(0), a.Dim(1)
	t := New(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			t.data[j*m+i] = a.data[i*n+j]
		}
	}
	return t
}

// randN returns a tensor of the given shape filled with normal deviates
// of standard deviation std.
func randN(src *rng.Source, std float64, shape ...int) *Tensor {
	t := New(shape...)
	src.FillNormal(t.Data(), 0, std)
	return t
}

// matMulNaive is the reference implementation for property tests.
func matMulNaive(a, b *Tensor) *Tensor {
	m, k, n := a.Dim(0), a.Dim(1), b.Dim(1)
	c := New(m, n)
	ad, bd, cd := a.Data(), b.Data(), c.Data()
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for p := 0; p < k; p++ {
				s += ad[i*k+p] * bd[p*n+j]
			}
			cd[i*n+j] = s
		}
	}
	return c
}

func tensorsClose(a, b *Tensor, tol float64) bool {
	if a.Size() != b.Size() {
		return false
	}
	for i, v := range a.Data() {
		if math.Abs(v-b.Data()[i]) > tol {
			return false
		}
	}
	return true
}

func TestMatMulMatchesNaive(t *testing.T) {
	src := rng.New(1)
	for trial := 0; trial < 20; trial++ {
		m, k, n := src.UniformInt(1, 12), src.UniformInt(1, 12), src.UniformInt(1, 12)
		a := randN(src, 1, m, k)
		b := randN(src, 1, k, n)
		if !tensorsClose(MatMul(a, b), matMulNaive(a, b), 1e-12) {
			t.Fatalf("MatMul mismatch at %dx%dx%d", m, k, n)
		}
	}
}

func TestMatMulT1MatchesTranspose(t *testing.T) {
	src := rng.New(2)
	a := randN(src, 1, 7, 5)
	b := randN(src, 1, 7, 6)
	got := MatMulT1(a, b)
	want := MatMul(Transpose2D(a), b)
	if !tensorsClose(got, want, 1e-12) {
		t.Fatal("MatMulT1 != Aᵀ·B")
	}
}

func TestMatMulT2MatchesTranspose(t *testing.T) {
	src := rng.New(3)
	a := randN(src, 1, 7, 5)
	b := randN(src, 1, 6, 5)
	got := MatMulT2(a, b)
	want := MatMul(a, Transpose2D(b))
	if !tensorsClose(got, want, 1e-12) {
		t.Fatal("MatMulT2 != A·Bᵀ")
	}
}

func TestMatMulShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for inner-dimension mismatch")
		}
	}()
	MatMul(New(2, 3), New(4, 2))
}

func TestTranspose2DInvolution(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		src := rng.New(seed)
		m, n := src.UniformInt(1, 10), src.UniformInt(1, 10)
		a := randN(src, 1, m, n)
		return tensorsClose(Transpose2D(Transpose2D(a)), a, 0)
	}, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: ⟨A·x, y⟩ == ⟨x, Aᵀ·y⟩ (adjointness), the identity the backward
// passes rely on.
func TestMatMulAdjointProperty(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		src := rng.New(seed)
		m, n := src.UniformInt(1, 8), src.UniformInt(1, 8)
		a := randN(src, 1, m, n)
		x := randN(src, 1, n, 1)
		y := randN(src, 1, m, 1)
		lhs := MatMul(a, x).Dot(y)
		rhs := x.Dot(MatMul(Transpose2D(a), y))
		return math.Abs(lhs-rhs) < 1e-9
	}, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestMatMulIntoVariantsOverwrite: the Into forms write the bits of the
// allocating forms into a dst holding stale values.
func TestMatMulIntoVariantsOverwrite(t *testing.T) {
	src := rng.New(4)
	a, b := randN(src, 1, 7, 5), randN(src, 1, 7, 6)
	c, d := randN(src, 1, 6, 5), randN(src, 1, 5, 4)
	for _, tc := range []struct {
		name string
		want *Tensor
		into func(dst *Tensor)
	}{
		{"MatMul", MatMul(a, d), func(dst *Tensor) { MatMulInto(dst, a, d) }},
		{"MatMulT1", MatMulT1(a, b), func(dst *Tensor) { MatMulT1Into(dst, a, b) }},
		{"MatMulT2", MatMulT2(a, c), func(dst *Tensor) { MatMulT2Into(dst, a, c) }},
	} {
		dst := Full(math.NaN(), tc.want.Shape()...)
		tc.into(dst)
		for i, v := range dst.Data() {
			if math.Float64bits(v) != math.Float64bits(tc.want.Data()[i]) {
				t.Fatalf("%sInto: entry %d is %v, want %v", tc.name, i, v, tc.want.Data()[i])
			}
		}
	}
}

func TestReuse(t *testing.T) {
	if r := Reuse(nil, 2, 3); r.Dim(0) != 2 || r.Dim(1) != 3 || r.Size() != 6 {
		t.Fatalf("Reuse(nil) shape %v", r.Shape())
	}
	a := New(4, 3)
	if Reuse(a, 4, 3) != a {
		t.Fatal("same shape did not return the tensor itself")
	}
	small := Reuse(a, 2, 3)
	if small.Dim(0) != 2 || &small.Data()[0] != &a.Data()[0] {
		t.Fatal("a smaller shape did not reuse the storage")
	}
	back := Reuse(small, 4, 3)
	if back.Size() != 12 || &back.Data()[0] != &a.Data()[0] {
		t.Fatal("growing back within capacity did not reuse the storage")
	}
	if big := Reuse(a, 5, 3); big.Size() != 15 || &big.Data()[0] == &a.Data()[0] {
		t.Fatal("a larger shape did not allocate")
	}
}
