package nn

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"fifl/internal/rng"
	"fifl/internal/tensor"
)

func TestSaveLoadRoundTripMLP(t *testing.T) {
	build := NewMLP(21, 28*28, []int{16}, 10)
	src := rng.New(22)
	model := build()
	// Train a little so the state is non-trivial.
	x := tensor.RandN(src, 1, 8, 28*28)
	labels := make([]int, 8)
	for i := 0; i < 5; i++ {
		model.ZeroGrads()
		logits := model.Forward(x, true)
		_, d := SoftmaxCrossEntropy(logits, labels)
		model.Backward(d)
		model.Step(0.1)
	}

	var buf bytes.Buffer
	if err := model.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored := build()
	if err := restored.Load(&buf); err != nil {
		t.Fatal(err)
	}
	a, b := model.ParamsVector(), restored.ParamsVector()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("parameter %d differs after round trip", i)
		}
	}
}

func TestSaveLoadRoundTripResNet(t *testing.T) {
	build := NewMiniResNet(23)
	src := rng.New(24)
	model := build()
	x := tensor.RandN(src, 1, 2, 3, 32, 32)
	model.Forward(x, true)

	var buf bytes.Buffer
	if err := model.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored := build()
	if err := restored.Load(&buf); err != nil {
		t.Fatal(err)
	}
	y1 := model.Forward(x, false)
	y2 := restored.Forward(x, false)
	for i := range y1.Data() {
		if y1.Data()[i] != y2.Data()[i] {
			t.Fatal("eval output differs after round trip")
		}
	}
}

func TestLoadWrongArchitectureFails(t *testing.T) {
	var buf bytes.Buffer
	if err := NewMLP(25, 10, []int{4}, 2)().Save(&buf); err != nil {
		t.Fatal(err)
	}
	other := NewMLP(25, 12, []int{4}, 2)()
	if err := other.Load(&buf); err == nil {
		t.Fatal("loading into a mismatched architecture must fail")
	}
}

func TestLoadWrongTensorCountFails(t *testing.T) {
	var buf bytes.Buffer
	if err := NewMLP(26, 10, []int{4}, 2)().Save(&buf); err != nil {
		t.Fatal(err)
	}
	// An MLP with an extra hidden layer has more state tensors.
	other := NewMLP(26, 10, []int{4, 4}, 2)()
	err := other.Load(&buf)
	if err == nil || !strings.Contains(err.Error(), "tensors") {
		t.Fatalf("want tensor-count error, got %v", err)
	}
}

func TestLoadBadHeaderFails(t *testing.T) {
	model := NewMLP(27, 4, nil, 2)()
	if err := model.Load(strings.NewReader("NOTACHECKPOINT")); err == nil {
		t.Fatal("bad header must fail")
	}
}

func TestLoadTruncatedFails(t *testing.T) {
	var buf bytes.Buffer
	model := NewMLP(28, 10, []int{4}, 2)()
	if err := model.Save(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if err := model.Load(bytes.NewReader(data[:len(data)/2])); err == nil {
		t.Fatal("truncated checkpoint must fail")
	}
}

// TestCheckpointHoldsParamsOnly: a checkpoint of the mini-ResNet, whose
// GroupNorm layers keep no running statistics, holds exactly its parameter
// tensors.
func TestCheckpointHoldsParamsOnly(t *testing.T) {
	model := NewMiniResNet(29)()
	var buf bytes.Buffer
	if err := model.Save(&buf); err != nil {
		t.Fatal(err)
	}
	count := binary.LittleEndian.Uint32(buf.Bytes()[len(checkpointMagic):])
	if n, p := int(count), len(model.Params()); n != p {
		t.Fatalf("checkpoint holds %d tensors, model has %d params", n, p)
	}
}
