package tensor

import "testing"

func TestFullAndZero(t *testing.T) {
	a := Full(3.5, 2, 2)
	for _, v := range a.Data() {
		if v != 3.5 {
			t.Fatalf("Full = %v", a.Data())
		}
	}
	a.Zero()
	for _, v := range a.Data() {
		if v != 0 {
			t.Fatalf("Zero = %v", a.Data())
		}
	}
}

func TestSum(t *testing.T) {
	a := FromSlice([]float64{1, -5, 3}, 3)
	if a.Sum() != -1 {
		t.Fatalf("Sum = %v", a.Sum())
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	a, b := New(2), New(3)
	for name, fn := range map[string]func(){
		"Add": func() { a.Add(b) },
		"Dot": func() { a.Dot(b) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestStringCompact(t *testing.T) {
	if got := New(2, 3).String(); got != "Tensor[2 3]" {
		t.Fatalf("String = %q", got)
	}
}

func TestReshapeBadVolumePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(4).Reshape(3)
}
