// Package model is the DNN model zoo: it describes the models used in the
// paper's evaluation (ResNet18/50/152, Inception-v3) plus VGG19 and AlexNet
// (used in the paper's motivation section) as sequences of *gradient
// tensors* — the unit of communication in parameter-server training.
//
// A real framework would materialize these tensors on a GPU; for scheduling
// purposes what matters is each tensor's size (bytes on the wire), its
// position in the network (transfer priority: index 0 is the layer closest
// to the input, generated last during backward propagation and needed first
// by forward propagation), and the compute cost of the layer that produces
// it. Layer shapes follow the published architectures, so parameter counts
// match the real models to within a fraction of a percent.
package model

import "fmt"

// BytesPerParam is the wire size of one parameter (float32 gradients).
const BytesPerParam = 4

// Gradient is one parameter tensor of a model: the unit of push/pull
// communication and of scheduling priority.
type Gradient struct {
	// Index is the transfer priority: 0 is highest (first layer, needed
	// first by forward propagation). During backward propagation gradients
	// are produced in decreasing index order.
	Index int
	// Layer is a human-readable name, e.g. "layer3.5.conv2.weight".
	Layer string
	// Elems is the number of parameters in the tensor.
	Elems int64
	// FwdFLOPs and BwdFLOPs are the per-sample compute attributed to this
	// tensor's layer segment (auxiliary tensors such as batch-norm scales
	// carry ~0; the segment's cost is attributed to its main tensor).
	FwdFLOPs float64
	BwdFLOPs float64
}

// Bytes returns the tensor's wire size in bytes.
func (g Gradient) Bytes() float64 { return BytesPerParam * float64(g.Elems) }

// Model is an immutable description of a DNN for scheduling purposes.
type Model struct {
	// Name identifies the model, e.g. "resnet50".
	Name string
	// Grads lists every gradient tensor, ordered by Index (front-to-back).
	Grads []Gradient
	// Efficiency is a per-model calibration factor applied to device FLOPS
	// (real kernels achieve different fractions of peak on different
	// architectures; see DESIGN.md §2).
	Efficiency float64
}

// NumGradients returns the number of gradient tensors.
func (m *Model) NumGradients() int { return len(m.Grads) }

// TotalParams returns the total parameter count.
func (m *Model) TotalParams() int64 {
	var n int64
	for _, g := range m.Grads {
		n += g.Elems
	}
	return n
}

// TotalBytes returns the total gradient payload per iteration direction.
func (m *Model) TotalBytes() float64 { return BytesPerParam * float64(m.TotalParams()) }

// TotalFwdFLOPs returns per-sample forward FLOPs.
func (m *Model) TotalFwdFLOPs() float64 {
	var f float64
	for _, g := range m.Grads {
		f += g.FwdFLOPs
	}
	return f
}

// validate panics if the model is malformed; builders call it before
// returning a model to the registry.
func (m *Model) validate() {
	if len(m.Grads) == 0 {
		panic(fmt.Sprintf("model %s: no gradients", m.Name))
	}
	for i, g := range m.Grads {
		if g.Index != i {
			panic(fmt.Sprintf("model %s: gradient %d has index %d", m.Name, i, g.Index))
		}
		if g.Elems <= 0 {
			panic(fmt.Sprintf("model %s: gradient %s has %d elems", m.Name, g.Layer, g.Elems))
		}
		if g.FwdFLOPs < 0 || g.BwdFLOPs < 0 {
			panic(fmt.Sprintf("model %s: gradient %s has negative FLOPs", m.Name, g.Layer))
		}
	}
	if m.Efficiency <= 0 {
		panic(fmt.Sprintf("model %s: non-positive efficiency", m.Name))
	}
}

// WithWireFactor returns a copy of m whose gradient tensors are k times
// larger on the wire, with compute costs unchanged. It models nodes running
// k GPU processes behind one NIC without local gradient aggregation (the
// paper's g3.8xlarge instances carry 2 GPUs each, and MXNet's distributed
// KVStore pushes each device's gradients separately), so per-node network
// traffic is k× the model size while the calibrated node compute throughput
// already covers all k devices.
func WithWireFactor(m *Model, k int) *Model {
	if k <= 0 {
		panic("model: WithWireFactor needs k >= 1")
	}
	out := &Model{Name: m.Name, Grads: append([]Gradient(nil), m.Grads...), Efficiency: m.Efficiency}
	for i := range out.Grads {
		out.Grads[i].Elems *= int64(k)
	}
	return out
}

// Hardware models a worker's compute device for cost estimation.
type Hardware struct {
	// FLOPS is the device's effective sustained throughput in FLOP/s.
	FLOPS float64
	// LayerOverhead is the fixed per-tensor-segment cost in seconds
	// (kernel launches, framework dispatch).
	LayerOverhead float64
}

// M60Like returns a hardware profile calibrated so that absolute training
// rates land near the paper's g3.8xlarge (2× NVIDIA M60) numbers: ~4.8
// TFLOP/s of effective fp32 throughput across the two GPUs, before the
// per-model efficiency factor.
func M60Like() Hardware {
	return Hardware{FLOPS: 4.8e12, LayerOverhead: 35e-6}
}

// V100Like returns a profile for the p3-class instances the paper names as
// future work (Sec. 7): roughly 4× the M60 node's sustained throughput and
// lower per-kernel overhead. Faster compute shrinks the backward window the
// stepwise pattern spans, making communication scheduling matter at higher
// bandwidths.
func V100Like() Hardware {
	return Hardware{FLOPS: 20e12, LayerOverhead: 20e-6}
}

// Custom builds a model from explicit tensor sizes, for users studying
// communication schedules of architectures outside the built-in zoo. sizes
// are parameter counts per gradient tensor, front (highest priority) to
// back; fwdFLOPs are the per-sample forward costs attributed to each
// tensor's layer segment (backward is charged 2×, the standard ratio). Pass
// efficiency <= 0 for the default 0.5.
func Custom(name string, sizes []int64, fwdFLOPs []float64, efficiency float64) (*Model, error) {
	if len(sizes) == 0 {
		return nil, fmt.Errorf("model: Custom %q needs at least one tensor", name)
	}
	if len(fwdFLOPs) != len(sizes) {
		return nil, fmt.Errorf("model: Custom %q: %d sizes but %d FLOPs entries", name, len(sizes), len(fwdFLOPs))
	}
	if efficiency <= 0 {
		efficiency = 0.5
	}
	m := &Model{Name: name, Efficiency: efficiency}
	for i, n := range sizes {
		if n <= 0 {
			return nil, fmt.Errorf("model: Custom %q: tensor %d has %d elems", name, i, n)
		}
		if fwdFLOPs[i] < 0 {
			return nil, fmt.Errorf("model: Custom %q: tensor %d has negative FLOPs", name, i)
		}
		m.Grads = append(m.Grads, Gradient{
			Index:    i,
			Layer:    fmt.Sprintf("%s.t%d", name, i),
			Elems:    n,
			FwdFLOPs: fwdFLOPs[i],
			BwdFLOPs: 2 * fwdFLOPs[i],
		})
	}
	m.validate()
	return m, nil
}

// FwdTime returns the forward-propagation time of gradient g's segment for
// one mini-batch on hardware hw.
func (m *Model) FwdTime(hw Hardware, g Gradient, batch int) float64 {
	return g.FwdFLOPs*float64(batch)/(hw.FLOPS*m.Efficiency) + hw.LayerOverhead
}

// BwdTime returns the backward-propagation time of gradient g's segment.
func (m *Model) BwdTime(hw Hardware, g Gradient, batch int) float64 {
	return g.BwdFLOPs*float64(batch)/(hw.FLOPS*m.Efficiency) + hw.LayerOverhead
}

// IterComputeTime returns total fwd+bwd compute for one mini-batch.
func (m *Model) IterComputeTime(hw Hardware, batch int) float64 {
	var t float64
	for _, g := range m.Grads {
		t += m.FwdTime(hw, g, batch) + m.BwdTime(hw, g, batch)
	}
	return t
}

// builder accumulates gradient tensors while tracking the activation's
// spatial extent, so conv FLOPs can be computed from output feature size.
type builder struct {
	name  string
	grads []Gradient
	h, w  int // current spatial size
	c     int // current channels
}

func newBuilder(name string, inputH, inputW, inputC int) *builder {
	return &builder{name: name, h: inputH, w: inputW, c: inputC}
}

func (b *builder) add(layer string, elems int64, fwdFLOPs float64) {
	if elems <= 0 {
		panic(fmt.Sprintf("model %s: layer %s has %d elems", b.name, layer, elems))
	}
	b.grads = append(b.grads, Gradient{
		Index:    len(b.grads),
		Layer:    layer,
		Elems:    elems,
		FwdFLOPs: fwdFLOPs,
		BwdFLOPs: 2 * fwdFLOPs, // standard: backward ≈ 2× forward compute
	})
}

// conv adds a 2D convolution (no bias, as in BN architectures), updating
// spatial dims. Padding is assumed "same" for stride 1 and k/2 otherwise.
func (b *builder) conv(layer string, k, stride, outC int) {
	outH := (b.h + stride - 1) / stride
	outW := (b.w + stride - 1) / stride
	elems := int64(k) * int64(k) * int64(b.c) * int64(outC)
	flops := 2 * float64(elems) * float64(outH) * float64(outW)
	b.add(layer+".weight", elems, flops)
	b.h, b.w, b.c = outH, outW, outC
}

// convBias adds a convolution with bias (pre-BN era architectures).
func (b *builder) convBias(layer string, k, stride, outC int) {
	b.conv(layer, k, stride, outC)
	b.add(layer+".bias", int64(outC), 0)
}

// bn adds batch normalization: two tensors (scale and shift) over the
// current channel count, with negligible FLOPs attributed.
func (b *builder) bn(layer string) {
	c := int64(b.c)
	elementwise := 2 * float64(b.c) * float64(b.h) * float64(b.w)
	b.add(layer+".gamma", c, elementwise)
	b.add(layer+".beta", c, 0)
}

// pool applies spatial pooling (no parameters).
func (b *builder) pool(stride int) {
	b.h = (b.h + stride - 1) / stride
	b.w = (b.w + stride - 1) / stride
}

// globalPool collapses the spatial extent to 1×1.
func (b *builder) globalPool() { b.h, b.w = 1, 1 }

// setSpatial overrides the tracked spatial size (for valid-padding layers
// whose exact arithmetic we want to match).
func (b *builder) setSpatial(h, w int) { b.h, b.w = h, w }

// fc adds a fully connected layer with bias.
func (b *builder) fc(layer string, outF int) {
	inF := int64(b.c) * int64(b.h) * int64(b.w)
	elems := inF * int64(outF)
	flops := 2 * float64(elems)
	b.add(layer+".weight", elems, flops)
	b.add(layer+".bias", int64(outF), 0)
	b.c, b.h, b.w = outF, 1, 1
}

func (b *builder) build(efficiency float64) *Model {
	m := &Model{Name: b.name, Grads: b.grads, Efficiency: efficiency}
	m.validate()
	return m
}
