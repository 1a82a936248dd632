// Package tensor implements dense float64 tensors and the numerical kernels
// the neural-network engine is built on: element-wise arithmetic, matrix
// multiplication that writes four outputs per pass and fans rows out
// across cores, and the im2col transform used to lower convolutions onto
// matmul.
//
// Tensors are row-major and carry an explicit shape. The package favours
// in-place operations, and every kernel the training loop calls has a form
// that writes into a caller's buffer (MatMulInto, MatMulT1Into,
// MatMulT2Into, Im2Col, Col2Im) with Reuse to keep those buffers across
// calls, so in steady state a training step allocates no tensor
// storage — only the small closure each parallel kernel call makes. Every
// mutating method returns its receiver to allow chaining.
package tensor

import (
	"fmt"
	"math"
	"slices"
)

// Tensor is a dense row-major float64 tensor. The zero value is an empty
// tensor; use New or FromSlice to create usable values.
type Tensor struct {
	shape []int
	data  []float64
}

// New allocates a zero-filled tensor with the given shape. It panics if any
// dimension is negative.
func New(shape ...int) *Tensor {
	// Work on the copy the tensor keeps, so shape itself does not escape
	// (through the panic message) and a caller's variadic arguments stay
	// on its stack.
	s := append([]int(nil), shape...)
	n := 1
	for _, d := range s {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d in shape %v", d, s))
		}
		n *= d
	}
	return &Tensor{shape: s, data: make([]float64, n)}
}

// FromSlice wraps data in a tensor with the given shape. The tensor aliases
// data; it does not copy. It panics if the length of data does not match the
// shape volume.
func FromSlice(data []float64, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (need %d)", len(data), shape, n))
	}
	return &Tensor{shape: append([]int(nil), shape...), data: data}
}

// Full returns a tensor with every element set to v.
func Full(v float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = v
	}
	return t
}

// Shape returns the tensor's shape. The caller must not mutate it.
func (t *Tensor) Shape() []int { return t.shape }

// Dim returns the size of axis i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Rank returns the number of axes.
func (t *Tensor) Rank() int { return len(t.shape) }

// Size returns the total number of elements.
func (t *Tensor) Size() int { return len(t.data) }

// Data returns the underlying storage. Mutating it mutates the tensor.
func (t *Tensor) Data() []float64 { return t.data }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.data, t.data)
	return c
}

// Reuse returns a tensor of the given shape for a kernel to overwrite,
// recycling t: t itself when it already has that shape, else a new header
// over t's storage when that is large enough, else a fresh zeroed
// allocation (also when t is nil). A recycled tensor keeps the stale
// values of its last use, so a kernel that accumulates into it must Zero
// it first. A layer keeps its outputs this way and allocates only when the
// batch shape changes.
func Reuse(t *Tensor, shape ...int) *Tensor {
	if t == nil {
		return New(shape...)
	}
	if slices.Equal(t.shape, shape) {
		return t
	}
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n > cap(t.data) {
		return New(shape...)
	}
	return &Tensor{shape: append([]int(nil), shape...), data: t.data[:n]}
}

// Reshape returns a view with a new shape sharing the same storage. It
// panics if the volumes differ.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	s := append([]int(nil), shape...) // see New
	n := 1
	for _, d := range s {
		n *= d
	}
	if n != len(t.data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v (%d elems) to %v (%d elems)", t.shape, len(t.data), s, n))
	}
	return &Tensor{shape: s, data: t.data}
}

// Zero resets every element to 0 and returns the receiver.
func (t *Tensor) Zero() *Tensor {
	for i := range t.data {
		t.data[i] = 0
	}
	return t
}

// sameShape panics unless a and b have identical shapes.
func sameShape(op string, a, b *Tensor) {
	if len(a.shape) != len(b.shape) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %v vs %v", op, a.shape, b.shape))
	}
	for i := range a.shape {
		if a.shape[i] != b.shape[i] {
			panic(fmt.Sprintf("tensor: %s shape mismatch %v vs %v", op, a.shape, b.shape))
		}
	}
}

// Add adds o element-wise into t and returns t.
func (t *Tensor) Add(o *Tensor) *Tensor {
	sameShape("Add", t, o)
	for i, v := range o.data {
		t.data[i] += v
	}
	return t
}

// Scale multiplies every element by s and returns t.
func (t *Tensor) Scale(s float64) *Tensor {
	for i := range t.data {
		t.data[i] *= s
	}
	return t
}

// AddScaled adds s*o element-wise into t and returns t (axpy).
func (t *Tensor) AddScaled(s float64, o *Tensor) *Tensor {
	sameShape("AddScaled", t, o)
	for i, v := range o.data {
		t.data[i] += s * v
	}
	return t
}

// Dot returns the inner product of t and o viewed as flat vectors.
func (t *Tensor) Dot(o *Tensor) float64 {
	if len(t.data) != len(o.data) {
		panic(fmt.Sprintf("tensor: Dot size mismatch %d vs %d", len(t.data), len(o.data)))
	}
	s := 0.0
	for i, v := range t.data {
		s += v * o.data[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of t viewed as a flat vector.
func (t *Tensor) Norm2() float64 {
	s := 0.0
	for _, v := range t.data {
		s += v * v
	}
	return math.Sqrt(s)
}

// Sum returns the sum of all elements.
func (t *Tensor) Sum() float64 {
	s := 0.0
	for _, v := range t.data {
		s += v
	}
	return s
}

// HasNaN reports whether any element is NaN or infinite. The paper notes
// that strong sign-flipping attacks (p_s >= 10) drive the loss to NaN; the
// training loop uses this to detect a crashed model.
func (t *Tensor) HasNaN() bool {
	for _, v := range t.data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
	}
	return false
}

// String renders a compact description, not the full contents.
func (t *Tensor) String() string {
	return fmt.Sprintf("Tensor%v", t.shape)
}
