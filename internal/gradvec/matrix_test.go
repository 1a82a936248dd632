package gradvec

import (
	"testing"
)

func TestMatrixRowViewsShareBacking(t *testing.T) {
	m := NewMatrix(3, 4)
	if m.Rows() != 3 || m.Dim() != 4 {
		t.Fatalf("shape = %d×%d, want 3×4", m.Rows(), m.Dim())
	}
	row := m.Row(1)
	row[2] = 7
	if got := m.Row(1)[2]; got != 7 {
		t.Fatalf("write through row view lost: got %v", got)
	}
	// Rows are disjoint.
	if m.Row(0)[2] != 0 || m.Row(2)[2] != 0 {
		t.Fatal("row views overlap")
	}
	// Row views have clamped capacity: appending must not bleed into the
	// next row.
	r0 := m.Row(0)
	r0 = append(r0, 99)
	_ = r0
	if m.Row(1)[0] != 0 {
		t.Fatal("append to a row view overwrote the next row")
	}
}

func TestMatrixSetRowCopies(t *testing.T) {
	m := NewMatrix(2, 3)
	src := Vector{1, 2, 3}
	row := m.SetRow(0, src)
	src[0] = 42
	if row[0] != 1 {
		t.Fatalf("SetRow aliased its input: row[0] = %v", row[0])
	}
	if m.Row(0)[1] != 2 || m.Row(0)[2] != 3 {
		t.Fatalf("SetRow copy incomplete: %v", m.Row(0))
	}
}

func TestMatrixBoundsPanics(t *testing.T) {
	m := NewMatrix(2, 3)
	for name, fn := range map[string]func(){
		"row-negative":  func() { m.Row(-1) },
		"row-past-end":  func() { m.Row(2) },
		"setrow-length": func() { m.SetRow(0, Vector{1}) },
		"new-negative":  func() { NewMatrix(-1, 3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}
