// Package nn implements a small but real multilayer perceptron — dense
// layers, ReLU activations, softmax cross-entropy, SGD — on the tensor
// kernels. It exists so the emulation path (internal/emu) can schedule the
// communication of *actual* gradients computed by *actual* backward
// propagation, and so convergence under every scheduler can be asserted
// end to end.
//
// Parameter tensors follow the paper's indexing: tensor 0 is the first
// layer's weights (highest transfer priority, produced last by backward
// propagation, needed first by forward propagation).
package nn

import (
	"fmt"
	"math"

	"prophet/internal/sim"
	"prophet/internal/tensor"
)

// Tensor identifies one parameter tensor of the network.
type Tensor struct {
	// Index is the transfer priority (0 = first layer's weights).
	Index int
	// Layer is the owning dense layer.
	Layer int
	// IsBias distinguishes the layer's bias from its weight matrix.
	IsBias bool
	// Elems is the parameter count.
	Elems int
}

// dense is one fully connected layer: y = x·W + b.
type dense struct {
	in, out int
	w       *tensor.Mat // in×out
	b       tensor.Vec  // out
	applyNL bool

	// Training scratch, reused by every Forward and Backward; the
	// batch-shaped buffers are reallocated only when the row count changes.
	input  *tensor.Mat // the batch Forward fed this layer (not owned)
	act    *tensor.Mat // rows×out: the layer's output, after the ReLU
	mask   []bool      // rows×out ReLU mask; unused on the output layer
	gradW  *tensor.Mat // in×out
	gradB  tensor.Vec  // out
	gradIn *tensor.Mat // rows×in; unused on layer 0
}

// MLP is a feed-forward classifier.
type MLP struct {
	layers  []*dense
	tensors []Tensor
	// dLogits is Backward's scratch for the loss gradient.
	dLogits *tensor.Mat
	// eval is Evaluate's scratch: eval[0] views the input block, eval[l+1]
	// holds layer l's output for one block.
	eval []tensor.Mat
}

// NewMLP builds a network with the given layer widths, e.g.
// NewMLP([]int{20, 64, 64, 4}, seed) for 20 inputs, two hidden layers of
// 64, and 4 classes. Weights are He-initialized from a deterministic seed.
func NewMLP(sizes []int, seed uint64) *MLP {
	if len(sizes) < 2 {
		panic("nn: NewMLP needs at least input and output sizes")
	}
	rng := sim.NewRand(seed)
	m := &MLP{}
	for l := 0; l+1 < len(sizes); l++ {
		d := &dense{
			in:      sizes[l],
			out:     sizes[l+1],
			w:       tensor.NewMat(sizes[l], sizes[l+1]),
			b:       tensor.NewVec(sizes[l+1]),
			applyNL: l+2 < len(sizes), // ReLU on all but the output layer
			gradW:   tensor.NewMat(sizes[l], sizes[l+1]),
			gradB:   tensor.NewVec(sizes[l+1]),
		}
		d.w.FillRandn(rng, math.Sqrt2/math.Sqrt(float64(sizes[l])))
		m.layers = append(m.layers, d)
		m.tensors = append(m.tensors,
			Tensor{Index: 2 * l, Layer: l, IsBias: false, Elems: sizes[l] * sizes[l+1]},
			Tensor{Index: 2*l + 1, Layer: l, IsBias: true, Elems: sizes[l+1]},
		)
	}
	return m
}

// Tensors lists the parameter tensors in priority order.
func (m *MLP) Tensors() []Tensor { return m.tensors }

// NumTensors returns the number of parameter tensors (2 per layer).
func (m *MLP) NumTensors() int { return len(m.tensors) }

// TotalParams returns the total parameter count.
func (m *MLP) TotalParams() int {
	n := 0
	for _, t := range m.tensors {
		n += t.Elems
	}
	return n
}

// ParamData returns the raw storage of tensor idx (a live view: writes
// update the model).
func (m *MLP) ParamData(idx int) tensor.Vec {
	t := m.tensors[idx]
	d := m.layers[t.Layer]
	if t.IsBias {
		return d.b
	}
	return d.w.Data
}

// GradData returns the raw storage of tensor idx's most recent gradient.
// Valid after Backward, until the next Backward overwrites it in place.
func (m *MLP) GradData(idx int) tensor.Vec {
	t := m.tensors[idx]
	d := m.layers[t.Layer]
	if t.IsBias {
		return d.gradB
	}
	return d.gradW.Data
}

// scratch returns buf if it already has the given row count, else a fresh
// rows×cols matrix: batch-shaped scratch survives every step of a fixed
// batch size.
func scratch(buf *tensor.Mat, rows, cols int) *tensor.Mat {
	if buf != nil && buf.Rows == rows {
		return buf
	}
	return tensor.NewMat(rows, cols)
}

// Forward computes logits for a batch (rows = samples). The result is the
// MLP's scratch, valid until the next Forward; Backward reads it and the
// per-layer caches Forward leaves, so the pair allocates nothing once a
// batch size has been seen.
func (m *MLP) Forward(x *tensor.Mat) *tensor.Mat {
	if x.Cols != m.layers[0].in {
		panic(fmt.Sprintf("nn: input has %d features, model expects %d", x.Cols, m.layers[0].in))
	}
	cur := x
	for _, d := range m.layers {
		d.input = cur
		d.act = scratch(d.act, cur.Rows, d.out)
		tensor.MatMul(d.act, cur, d.w)
		tensor.AddRowBias(d.act, d.b)
		if d.applyNL {
			if len(d.mask) != len(d.act.Data) {
				d.mask = make([]bool, len(d.act.Data))
			}
			tensor.ReLU(d.act, d.mask)
		}
		cur = d.act
	}
	return cur
}

// Backward computes the loss for labels and all parameter gradients,
// invoking onTensor (if non-nil) for each tensor as its gradient becomes
// available — in backward order, highest index first, exactly as a DNN
// framework's communication layer sees them. It returns the mean loss.
// logits must be the last Forward's result; the gradients overwrite the
// previous ones in place (see GradData).
func (m *MLP) Backward(logits *tensor.Mat, labels []int, onTensor func(idx int)) float64 {
	m.dLogits = scratch(m.dLogits, logits.Rows, logits.Cols)
	loss := tensor.SoftmaxCrossEntropy(m.dLogits, logits, labels)
	upstream := m.dLogits
	for l := len(m.layers) - 1; l >= 0; l-- {
		d := m.layers[l]
		if d.applyNL {
			tensor.ReLUBackward(upstream, d.mask)
		}
		// dW = inputᵀ · upstream; db = column sums of upstream.
		tensor.MatMulTransA(d.gradW, d.input, upstream)
		d.gradB.Zero()
		for r := 0; r < upstream.Rows; r++ {
			d.gradB.Add(upstream.Row(r))
		}
		// dInput = upstream · Wᵀ (skip for layer 0 — nothing consumes it).
		if l > 0 {
			d.gradIn = scratch(d.gradIn, upstream.Rows, d.in)
			tensor.MatMulTransB(d.gradIn, upstream, d.w)
		}
		// Bias then weight, mirroring frameworks that emit auxiliary
		// tensors with their layer: indices 2l+1 then 2l.
		if onTensor != nil {
			onTensor(2*l + 1)
			onTensor(2 * l)
		}
		upstream = d.gradIn
	}
	return loss
}

// Step applies plain SGD: param -= lr * grad, for every tensor.
func (m *MLP) Step(lr float64) {
	for idx := range m.tensors {
		m.ParamData(idx).AXPY(-lr, m.GradData(idx))
	}
}

// SetGrad overwrites tensor idx's gradient storage (used when the PS
// returns an aggregated gradient).
func (m *MLP) SetGrad(idx int, g tensor.Vec) {
	dst := m.GradData(idx)
	if len(dst) != len(g) {
		panic(fmt.Sprintf("nn: SetGrad tensor %d length %d != %d", idx, len(g), len(dst)))
	}
	copy(dst, g)
}

// Loss computes the mean loss for a batch without touching gradients: the
// loss Evaluate returns.
func (m *MLP) Loss(x *tensor.Mat, labels []int) float64 {
	loss, _ := m.Evaluate(x, labels)
	return loss
}

// evalBlock is how many rows Evaluate pushes through the network at a time:
// a block's activations stay in cache, and its scratch is a few tens of KB
// however large the dataset.
const evalBlock = 64

// Evaluate returns a batch's mean loss, bit-identical to SoftmaxCrossEntropy
// over Forward(x), and its accuracy — the fraction of samples whose argmax
// (the first maximum on a tie) matches the label — from one forward walk,
// without touching gradients. x goes through every layer evalBlock rows at a
// time, in scratch the MLP owns (allocated on first use, so a warm call
// allocates nothing), with an in-place ReLU and none of the caches Backward
// reads. Every row's logits are those Forward computes — a row's arithmetic
// never involves another row — so the loss summed over the blocks in order
// is the whole batch's to the bit. Besides its scratch Evaluate only reads
// the parameters, which Forward, Backward and SetGrad never write — they
// write buffers the MLP owns, but none Evaluate reads — so it may run
// concurrently with them, but not with Step, and not with another Evaluate.
func (m *MLP) Evaluate(x *tensor.Mat, labels []int) (loss, accuracy float64) {
	if x.Cols != m.layers[0].in {
		panic(fmt.Sprintf("nn: input has %d features, model expects %d", x.Cols, m.layers[0].in))
	}
	if len(labels) != x.Rows {
		panic(fmt.Sprintf("nn: %d labels for %d rows", len(labels), x.Rows))
	}
	if m.eval == nil {
		m.eval = make([]tensor.Mat, len(m.layers)+1)
		for l, d := range m.layers {
			m.eval[l+1] = tensor.Mat{Cols: d.out, Data: tensor.NewVec(evalBlock * d.out)}
		}
	}
	var total float64
	correct := 0
	in, logits := &m.eval[0], &m.eval[len(m.layers)]
	in.Cols = x.Cols
	for lo := 0; lo < x.Rows; lo += evalBlock {
		n := min(evalBlock, x.Rows-lo)
		in.Rows, in.Data = n, x.Data[lo*x.Cols:(lo+n)*x.Cols]
		for l, d := range m.layers {
			out := &m.eval[l+1]
			out.Rows, out.Data = n, out.Data[:n*d.out]
			tensor.MatMul(out, &m.eval[l], d.w)
			tensor.AddRowBias(out, d.b)
			if d.applyNL {
				tensor.ReLUInPlace(out)
			}
		}
		block := labels[lo : lo+n]
		total = tensor.CrossEntropySum(total, logits, block)
		for r, label := range block {
			row := logits.Row(r)
			best := 0
			for c, v := range row {
				if v > row[best] {
					best = c
				}
			}
			if best == label {
				correct++
			}
		}
	}
	in.Data = nil // do not keep the caller's dataset reachable
	return total * (1.0 / float64(x.Rows)), float64(correct) / float64(x.Rows)
}

// Dataset is a labeled classification set.
type Dataset struct {
	X      *tensor.Mat
	Labels []int
}

// Blobs generates a synthetic Gaussian-blob classification dataset:
// `classes` cluster centers in `features` dimensions, n samples.
func Blobs(n, features, classes int, seed uint64) *Dataset {
	rng := sim.NewRand(seed)
	centers := tensor.NewMat(classes, features)
	centers.FillRandn(rng, 3)
	x := tensor.NewMat(n, features)
	labels := make([]int, n)
	for r := 0; r < n; r++ {
		c := rng.Intn(classes)
		labels[r] = c
		row := x.Row(r)
		center := centers.Row(c)
		for i := range row {
			row[i] = center[i] + rng.NormFloat64()
		}
	}
	return &Dataset{X: x, Labels: labels}
}

// Batch returns rows [lo, hi) as a copy-free view plus labels.
func (d *Dataset) Batch(lo, hi int) (*tensor.Mat, []int) {
	x := new(tensor.Mat)
	return x, d.BatchInto(x, lo, hi)
}

// BatchInto points x at rows [lo, hi) — a copy-free view, so a caller that
// keeps one x pays no header per batch — and returns their labels.
func (d *Dataset) BatchInto(x *tensor.Mat, lo, hi int) []int {
	if lo < 0 || hi > d.X.Rows || lo >= hi {
		panic(fmt.Sprintf("nn: Batch [%d, %d) out of range", lo, hi))
	}
	x.Rows, x.Cols = hi-lo, d.X.Cols
	x.Data = d.X.Data[lo*d.X.Cols : hi*d.X.Cols]
	return d.Labels[lo:hi]
}
