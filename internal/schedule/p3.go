package schedule

import (
	"container/heap"
	"fmt"
)

// P3 implements Priority-based Parameter Propagation (Jayarajan et al.,
// MLSys'19): every gradient is sliced into fixed-size partitions, and
// whenever the link frees, the next partition of the highest-priority
// generated-but-unfinished gradient is sent. Small partitions give fine
// preemption granularity but pay the per-message overhead once per
// partition — the cost quantified in the paper's Fig. 3(a).
type P3 struct {
	sizes     []float64
	partition float64

	// EngineCost is the per-partition dispatch cost of P3's
	// implementation (blocking KVStore slicing and per-slice rendezvous),
	// calibrated against the paper's Fig. 3(a) and Table 2.
	EngineCost float64

	remaining []float64
	ready     gradHeap
	inHeap    []bool
}

// DefaultP3EngineCost is the calibrated per-partition dispatch cost.
const DefaultP3EngineCost = 0.5e-3

// NewP3 creates the strategy with the given partition size in bytes (the
// paper's experiments use 4 MB).
func NewP3(sizes []float64, partition float64) *P3 {
	if partition <= 0 {
		panic("schedule: P3 partition must be positive")
	}
	return &P3{
		sizes:      sizes,
		partition:  partition,
		EngineCost: DefaultP3EngineCost,
		remaining:  make([]float64, len(sizes)),
		inHeap:     make([]bool, len(sizes)),
	}
}

// Name implements Scheduler.
func (p *P3) Name() string { return "p3" }

// BeginIteration implements Scheduler.
func (p *P3) BeginIteration(int) {
	p.ready = p.ready[:0]
	for i := range p.remaining {
		p.remaining[i] = 0
		p.inHeap[i] = false
	}
}

// OnGenerated implements Scheduler.
func (p *P3) OnGenerated(g int, _ float64) {
	if g < 0 || g >= len(p.sizes) {
		panic(fmt.Sprintf("schedule: P3.OnGenerated(%d) out of range", g))
	}
	p.remaining[g] = p.sizes[g]
	if !p.inHeap[g] {
		heap.Push(&p.ready, g)
		p.inHeap[g] = true
	}
}

// Next implements Scheduler.
func (p *P3) Next(float64) (Message, bool) {
	for len(p.ready) > 0 {
		g := p.ready[0]
		if p.remaining[g] <= 0 {
			heap.Pop(&p.ready)
			p.inHeap[g] = false
			continue
		}
		take := p.partition
		if take >= p.remaining[g] {
			take = p.remaining[g]
		}
		p.remaining[g] -= take
		last := p.remaining[g] <= 0
		if last {
			heap.Pop(&p.ready)
			p.inHeap[g] = false
		}
		return Message{
			Pieces: []Piece{{Grad: g, Bytes: take, Last: last}},
			Bytes:  take,
			Label:  fmt.Sprintf("g%d/part", g),
			Stall:  p.EngineCost,
		}, true
	}
	return Message{}, false
}

// OnSent implements Scheduler.
func (p *P3) OnSent(Message, float64, float64) {}

// OnIterationEnd implements Scheduler.
func (p *P3) OnIterationEnd(float64) {}

// gradHeap is a min-heap of gradient indices (lowest index = highest
// priority at the top).
type gradHeap []int

func (h gradHeap) Len() int           { return len(h) }
func (h gradHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h gradHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *gradHeap) Push(x any)        { *h = append(*h, x.(int)) }
func (h *gradHeap) Pop() any {
	old := *h
	n := len(old)
	v := old[n-1]
	*h = old[:n-1]
	return v
}
