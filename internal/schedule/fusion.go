package schedule

import "fmt"

// Fusion is the Horovod-style fusion-buffer policy: ready tensors queue in
// generation order, and whenever the wire frees, the head of the queue is
// fused with its successors until the buffer would exceed the byte
// threshold. The head tensor is always taken — a tensor larger than the
// threshold ships alone rather than deadlocking.
//
// This is the collective world's static baseline (registry name "fusion"):
// it sizes blocks by a fixed threshold and ignores the stepwise generation
// windows entirely.
type Fusion struct {
	sizes     []float64
	threshold float64
	pending   []int
	head      int
}

// NewFusion builds the fusion policy over per-gradient sizes with the given
// buffer threshold in bytes.
func NewFusion(sizes []float64, threshold float64) *Fusion {
	return &Fusion{sizes: sizes, threshold: threshold}
}

// Name implements Scheduler.
func (f *Fusion) Name() string { return "fusion" }

// BeginIteration implements Scheduler. The BSP barrier guarantees
// the queue drained before a new iteration's backward pass starts, so there
// is nothing to reset.
func (f *Fusion) BeginIteration(iter int) {}

// OnGenerated implements Scheduler.
func (f *Fusion) OnGenerated(g int, now float64) {
	if f.head > 0 && f.head == len(f.pending) {
		f.pending = f.pending[:0]
		f.head = 0
	}
	f.pending = append(f.pending, g)
}

// Next implements Scheduler: pop the head tensor unconditionally,
// then keep fusing while the buffer stays within the threshold.
func (f *Fusion) Next(now float64) (Message, bool) {
	if f.head == len(f.pending) {
		return Message{}, false
	}
	var pieces []Piece
	bytes := 0.0
	for f.head < len(f.pending) {
		g := f.pending[f.head]
		gb := f.sizes[g]
		if len(pieces) > 0 && bytes+gb > f.threshold {
			break
		}
		pieces = append(pieces, Piece{Grad: g, Bytes: gb, Last: true})
		bytes += gb
		f.head++
	}
	return Message{
		Pieces: pieces,
		Bytes:  bytes,
		Label:  fmt.Sprintf("fuse[%d#%d]", pieces[0].Grad, len(pieces)),
	}, true
}

// OnSent implements Scheduler.
func (f *Fusion) OnSent(msg Message, start, end float64) {}

// OnIterationEnd implements Scheduler.
func (f *Fusion) OnIterationEnd(iterDur float64) {}
