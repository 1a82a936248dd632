// Package dataset provides the synthetic image-classification datasets this
// reproduction trains on, plus the partitioning and label-poisoning
// operations the paper's experiments need.
//
// The paper uses MNIST and CIFAR-10, which are not available in this
// offline environment. As documented in DESIGN.md, we substitute two
// procedurally generated datasets with the same tensor shapes and class
// counts: SynthDigits (28×28×1, ten glyph classes, for LeNet) and
// SynthImages (32×32×3, ten texture classes, for the mini-ResNet). FIFL's
// mechanisms only observe gradient geometry, which any learnable ten-class
// image task reproduces.
package dataset

import (
	"fmt"
	"math"
	"slices"

	"fifl/internal/rng"
	"fifl/internal/tensor"
)

// Dataset is a labelled set of fixed-shape examples. X is shaped
// (N, C, H, W); Labels is parallel to the first axis.
type Dataset struct {
	X       *tensor.Tensor
	Labels  []int
	Classes int
}

// Len returns the number of examples.
func (d *Dataset) Len() int { return len(d.Labels) }

// ItemShape returns the per-example shape (C, H, W).
func (d *Dataset) ItemShape() []int { return d.X.Shape()[1:] }

// itemSize returns the number of scalars per example.
func (d *Dataset) itemSize() int {
	if d.Len() == 0 {
		return 0
	}
	return d.X.Size() / d.Len()
}

// Subset gathers the given example indices into a new dataset (copying).
func (d *Dataset) Subset(indices []int) *Dataset {
	is := d.itemSize()
	shape := append([]int{len(indices)}, d.ItemShape()...)
	out := tensor.New(shape...)
	labels := make([]int, len(indices))
	od, xd := out.Data(), d.X.Data()
	for i, idx := range indices {
		if idx < 0 || idx >= d.Len() {
			panic(fmt.Sprintf("dataset: Subset index %d out of range [0,%d)", idx, d.Len()))
		}
		copy(od[i*is:(i+1)*is], xd[idx*is:(idx+1)*is])
		labels[i] = d.Labels[idx]
	}
	return &Dataset{X: out, Labels: labels, Classes: d.Classes}
}

// Batch samples a uniform random minibatch of the given size (with
// replacement) and returns its inputs and labels. Sampling with replacement
// keeps every worker's batch distribution identical to its local dataset
// regardless of local dataset size.
func (d *Dataset) Batch(src *rng.Source, size int) (*tensor.Tensor, []int) {
	return d.BatchInto(src, size, nil, nil)
}

// BatchInto is Batch drawing into a caller's buffers: x and labels are
// refilled when they hold a batch of the given size of this dataset's
// items, and reallocated otherwise (nil included). It returns the buffers
// it filled, for the caller to keep for its next batch; the draws are
// Batch's.
func (d *Dataset) BatchInto(src *rng.Source, size int, x *tensor.Tensor, labels []int) (*tensor.Tensor, []int) {
	if d.Len() == 0 {
		panic("dataset: Batch on empty dataset")
	}
	is := d.itemSize()
	if x == nil || x.Rank() == 0 || x.Dim(0) != size || !slices.Equal(x.Shape()[1:], d.ItemShape()) {
		x = tensor.New(append([]int{size}, d.ItemShape()...)...)
	}
	if cap(labels) < size {
		labels = make([]int, size)
	}
	labels = labels[:size]
	xd, sd := x.Data(), d.X.Data()
	for i := 0; i < size; i++ {
		idx := src.Intn(d.Len())
		copy(xd[i*is:(i+1)*is], sd[idx*is:(idx+1)*is])
		labels[i] = d.Labels[idx]
	}
	return x, labels
}

// PartitionIID shuffles the dataset and splits it into parts of near-equal
// size — the paper's "training data uniformly distributed to each worker".
func (d *Dataset) PartitionIID(src *rng.Source, parts int) []*Dataset {
	if parts <= 0 {
		panic("dataset: PartitionIID with parts <= 0")
	}
	perm := src.Perm(d.Len())
	out := make([]*Dataset, parts)
	base, rem := d.Len()/parts, d.Len()%parts
	off := 0
	for p := 0; p < parts; p++ {
		n := base
		if p < rem {
			n++
		}
		out[p] = d.Subset(perm[off : off+n])
		off += n
	}
	return out
}

// PartitionDirichlet splits the dataset across parts with label skew: for
// each class, the class's examples are divided according to a Dirichlet(α)
// draw over parts. Small α concentrates each class on few workers (strongly
// non-IID); large α approaches the IID split. This is the standard
// federated-learning heterogeneity model and feeds the §4.1 question of
// whether attacker gradient deviation exceeds non-IID deviation.
func (d *Dataset) PartitionDirichlet(src *rng.Source, parts int, alpha float64) []*Dataset {
	if parts <= 0 {
		panic("dataset: PartitionDirichlet with parts <= 0")
	}
	if alpha <= 0 {
		panic("dataset: PartitionDirichlet with alpha <= 0")
	}
	byClass := make([][]int, d.Classes)
	for i, l := range d.Labels {
		byClass[l] = append(byClass[l], i)
	}
	assigned := make([][]int, parts)
	for _, idxs := range byClass {
		if len(idxs) == 0 {
			continue
		}
		src.Shuffle(len(idxs), func(a, b int) { idxs[a], idxs[b] = idxs[b], idxs[a] })
		weights := dirichlet(src, parts, alpha)
		// Convert weights to contiguous count boundaries.
		off := 0
		for p := 0; p < parts; p++ {
			n := int(weights[p] * float64(len(idxs)))
			if p == parts-1 {
				n = len(idxs) - off
			}
			if off+n > len(idxs) {
				n = len(idxs) - off
			}
			assigned[p] = append(assigned[p], idxs[off:off+n]...)
			off += n
		}
	}
	out := make([]*Dataset, parts)
	for p := range out {
		// Guarantee non-empty shards: borrow one example if a worker got
		// nothing (extreme alpha).
		if len(assigned[p]) == 0 {
			donor := 0
			for q := range assigned {
				if len(assigned[q]) > len(assigned[donor]) {
					donor = q
				}
			}
			last := len(assigned[donor]) - 1
			assigned[p] = append(assigned[p], assigned[donor][last])
			assigned[donor] = assigned[donor][:last]
		}
		out[p] = d.Subset(assigned[p])
	}
	return out
}

// dirichlet draws a Dirichlet(α,...,α) sample via normalized Gamma(α)
// variates (Marsaglia–Tsang for α ≥ 1, boost trick below 1).
func dirichlet(src *rng.Source, k int, alpha float64) []float64 {
	out := make([]float64, k)
	total := 0.0
	for i := range out {
		out[i] = gammaDraw(src, alpha)
		total += out[i]
	}
	if total == 0 {
		for i := range out {
			out[i] = 1.0 / float64(k)
		}
		return out
	}
	for i := range out {
		out[i] /= total
	}
	return out
}

// gammaDraw samples Gamma(shape, 1) with the Marsaglia–Tsang method.
func gammaDraw(src *rng.Source, shape float64) float64 {
	if shape < 1 {
		// Boost: Gamma(a) = Gamma(a+1) · U^(1/a).
		u := src.Float64()
		for u == 0 {
			u = src.Float64()
		}
		return gammaDraw(src, shape+1) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1.0 / math.Sqrt(9*d)
	for {
		x := src.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := src.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// SampleN draws n examples uniformly with replacement, used to give workers
// local datasets of arbitrary sizes (the market experiments draw
// n_i ~ U[1, 10000]).
func (d *Dataset) SampleN(src *rng.Source, n int) *Dataset {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = src.Intn(d.Len())
	}
	return d.Subset(idx)
}

// PoisonLabels returns a copy in which a fraction p of the examples have
// their label replaced by a different, uniformly chosen wrong class. This
// is the data-poison worker model of the paper: p is the unreliability
// degree p_d.
func (d *Dataset) PoisonLabels(src *rng.Source, p float64) *Dataset {
	out := d.Subset(identity(d.Len()))
	if p <= 0 {
		return out
	}
	nPoison := int(p * float64(d.Len()))
	for _, idx := range src.Sample(d.Len(), nPoison) {
		wrong := src.Intn(d.Classes - 1)
		if wrong >= out.Labels[idx] {
			wrong++
		}
		out.Labels[idx] = wrong
	}
	return out
}

// identity returns [0,1,...,n-1].
func identity(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
