package gradvec

import "fmt"

// Matrix is a flat gradient arena: one contiguous rows×dim backing buffer
// with per-row Vector views. The federated round hot path stores every
// worker's gradient as one row, so a round costs a single backing
// allocation (amortized to zero when the Matrix is reused) instead of
// one allocation per worker.
//
// A Matrix does not track which rows are populated; the round runtime
// carries that in RoundResult.Grads (nil = no arrival). Rows of workers
// whose upload never arrived retain whatever the previous round left
// there and must not be read.
type Matrix struct {
	data Vector
	rows int
	dim  int
}

// NewMatrix allocates a fresh rows×dim arena. Both dimensions must be
// non-negative; a zero dimension yields a valid, empty-rowed arena.
func NewMatrix(rows, dim int) *Matrix {
	if rows < 0 || dim < 0 {
		panic(fmt.Sprintf("gradvec: NewMatrix(%d, %d) negative dimension", rows, dim))
	}
	return &Matrix{data: make(Vector, rows*dim), rows: rows, dim: dim}
}

// Rows returns the number of rows (workers) in the arena.
func (m *Matrix) Rows() int { return m.rows }

// Dim returns the row length d.
func (m *Matrix) Dim() int { return m.dim }

// Row returns row i as a Vector view into the backing buffer. Writing
// through the view writes the arena.
func (m *Matrix) Row(i int) Vector {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("gradvec: Matrix.Row(%d) out of range [0,%d)", i, m.rows))
	}
	return m.data[i*m.dim : (i+1)*m.dim : (i+1)*m.dim]
}

// SetRow copies v into row i and returns the row view. The vector length
// must equal Dim.
func (m *Matrix) SetRow(i int, v Vector) Vector {
	if len(v) != m.dim {
		panic(fmt.Sprintf("gradvec: Matrix.SetRow(%d) length %d, want %d", i, len(v), m.dim))
	}
	row := m.Row(i)
	copy(row, v)
	return row
}
