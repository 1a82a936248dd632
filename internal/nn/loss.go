package nn

import (
	"math"

	"fifl/internal/tensor"
)

// SoftmaxCrossEntropy computes the mean cross-entropy loss of logits
// (batch, classes) against integer labels, and the gradient of the loss
// w.r.t. the logits. The softmax is computed with the max-subtraction trick
// for numerical stability; a model whose logits have overflowed (sign-flip
// attacks with large p_s can do this) yields NaN loss, which callers detect
// with math.IsNaN exactly as the paper reports models "crashing to NaN".
func SoftmaxCrossEntropy(logits *tensor.Tensor, labels []int) (loss float64, dLogits *tensor.Tensor) {
	return SoftmaxCrossEntropyInto(nil, logits, labels)
}

// SoftmaxCrossEntropyInto is SoftmaxCrossEntropy writing the gradient
// into buf, recycled as tensor.Reuse does (nil allocates): a training loop
// keeps the returned tensor and passes it back in on its next step.
func SoftmaxCrossEntropyInto(buf, logits *tensor.Tensor, labels []int) (loss float64, dLogits *tensor.Tensor) {
	batch, classes := logits.Dim(0), logits.Dim(1)
	if len(labels) != batch {
		panic("nn: SoftmaxCrossEntropy label count mismatch")
	}
	d := tensor.Reuse(buf, batch, classes)
	ld, dd := logits.Data(), d.Data()
	total := 0.0
	inv := 1.0 / float64(batch)
	for b := 0; b < batch; b++ {
		row := ld[b*classes : (b+1)*classes]
		drow := dd[b*classes : (b+1)*classes]
		maxv := row[0]
		for _, v := range row[1:] {
			if v > maxv {
				maxv = v
			}
		}
		sum := 0.0
		for i, v := range row {
			e := math.Exp(v - maxv)
			drow[i] = e
			sum += e
		}
		label := labels[b]
		p := drow[label] / sum
		total += -math.Log(math.Max(p, 1e-300))
		for i := range drow {
			drow[i] = drow[i] / sum * inv
		}
		drow[label] -= inv
	}
	return total * inv, d
}

// Argmax returns the predicted class for each row of a (batch, classes)
// logits tensor.
func Argmax(logits *tensor.Tensor) []int {
	batch, classes := logits.Dim(0), logits.Dim(1)
	out := make([]int, batch)
	ld := logits.Data()
	for b := 0; b < batch; b++ {
		row := ld[b*classes : (b+1)*classes]
		best := 0
		for i, v := range row {
			if v > row[best] {
				best = i
			}
		}
		out[b] = best
	}
	return out
}

// Accuracy returns the fraction of rows whose argmax matches the label.
func Accuracy(logits *tensor.Tensor, labels []int) float64 {
	preds := Argmax(logits)
	if len(preds) == 0 {
		return 0
	}
	hit := 0
	for i, p := range preds {
		if p == labels[i] {
			hit++
		}
	}
	return float64(hit) / float64(len(preds))
}
