package schedule

import (
	"fmt"
	"math"

	"prophet/internal/core"
)

// Queue is every baseline the paper compares Prophet with: one design
// space, not five programs. A baseline is a row (the package comment has the
// table) of what goes next and how much one message may carry, plus its
// name, its trace label and its calibrated engine stall.
//
// Next takes the head of the queue — the oldest release, or the lowest
// gradient index — and fills one message up to the budget. A row that
// slices cuts the head at the budget and resumes it in a later message, so
// the budget is its preemption granularity; one that does not ships whole
// tensors only, and a tensor over the budget ships alone rather than never.
// A row that spans keeps filling from the next head while budget is left.
//
// The stall and the label are row data because they describe the system the
// row stands for, not the queue: the implementations run on very different
// substrates (see Message.Stall and DESIGN.md §5), and the labels are what
// traces and goldens have always shown for each.
//
// Two inputs the drivers never produce are defined here and pinned by
// TestBaselineRowsOddInputs. A gradient released again while it is still
// queued is ignored. A zero-byte tensor ships as an empty piece marked
// Last, so it completes on every row.
type Queue struct {
	row
	sizes []float64

	// ready holds the queued gradients from head on: in release order, or as
	// a min-heap on the gradient index with head fixed at 0.
	ready core.GradHeap
	head  int
	// remaining[g] is what gradient g still has to send; queued[g] marks it
	// as being in ready.
	remaining []float64
	queued    []bool

	// pieces holds the piece slices OnSent handed back, for Next to refill;
	// labels caches each rendered label by (first gradient, piece count).
	// A warm iteration allocates nothing.
	pieces [][]Piece
	labels map[[2]int]string

	tuner *CreditTuner
}

// row is what tells one baseline from another.
type row struct {
	name string
	// byPriority serves the lowest gradient index first; otherwise the
	// oldest release.
	byPriority bool
	// budget is the most bytes one message carries, except that a row which
	// does not slice always takes its head whole.
	budget float64
	slices bool // the head may be cut at the budget
	spans  bool // a message may carry more than one gradient
	// label formats (first gradient, pieces, pieces−1).
	label string
	// stall is the engine dispatch cost per message, in seconds.
	stall float64
}

// Calibrated per-message dispatch costs (DESIGN.md §5): TicTac rides the
// framework's native op scheduler, so it is small; P3 pays blocking KVStore
// slicing and a per-slice rendezvous, calibrated against the paper's
// Fig. 3(a) and Table 2; ByteScheduler's core interposes a Python layer that
// does credit accounting, tensor slicing and cross-worker rendezvous on
// every round — calibrated against Table 2, where it trails even P3 at
// 3–4.5 Gbps despite coarser messages.
const (
	DefaultTicTacEngineCost        = 0.2e-3
	DefaultP3EngineCost            = 0.5e-3
	DefaultByteSchedulerEngineCost = 5e-3
)

func newQueue(sizes []float64, r row) *Queue {
	return &Queue{
		row:       r,
		sizes:     sizes,
		remaining: make([]float64, len(sizes)),
		queued:    make([]bool, len(sizes)),
		labels:    make(map[[2]int]string),
	}
}

// NewFIFO is the default framework strategy (unscheduled MXNet): whole
// gradients in the order the aggregation layer releases them, with no
// preemption. A large low-priority tensor therefore blocks gradient 0 — the
// behaviour motivating the paper (Fig. 5, "default"). Gradient i has
// sizes[i] bytes.
func NewFIFO(sizes []float64) *Queue {
	return newQueue(sizes, row{name: "fifo", label: "g%[1]d"})
}

// NewFusion is the Horovod-style fusion buffer, the collective world's
// static baseline: whenever the wire frees, the oldest ready tensor is fused
// with its successors until the buffer would exceed threshold bytes. It
// sizes blocks by a fixed threshold and ignores the stepwise generation
// windows entirely.
func NewFusion(sizes []float64, threshold float64) *Queue {
	return newQueue(sizes, row{name: "fusion", budget: threshold, spans: true, label: "fuse[%[1]d#%[2]d]"})
}

// NewTicTac approximates the op-level priority scheduling of TicTac (Hashemi
// et al., MLSys'19): whole tensors in strict priority order among those
// generated — P3 at an infinite partition. Preemption granularity is a whole
// tensor: finer than FIFO's obliviousness, coarser than P3's partitions, the
// middle ground the paper's related-work discussion places it in.
func NewTicTac(sizes []float64) *Queue {
	return newQueue(sizes, row{name: "tictac", byPriority: true, budget: math.Inf(1), slices: true,
		label: "op[g%[1]d]", stall: DefaultTicTacEngineCost})
}

// NewP3 is Priority-based Parameter Propagation (Jayarajan et al.,
// MLSys'19): every gradient is sliced into partitions of the given size in
// bytes (the paper's experiments use 4 MB), and whenever the link frees, the
// next partition of the highest-priority unfinished gradient is sent. Small
// partitions give fine preemption but pay the per-message overhead once per
// partition — the cost quantified in the paper's Fig. 3(a).
func NewP3(sizes []float64, partition float64) *Queue {
	if partition <= 0 {
		panic("schedule: P3 partition must be positive")
	}
	return newQueue(sizes, row{name: "p3", byPriority: true, budget: partition, slices: true,
		label: "g%[1]d/part", stall: DefaultP3EngineCost})
}

// NewByteScheduler is credit-based priority scheduling (Peng et al.,
// SOSP'19): when the link frees, up to credit bytes are drained from the
// priority queue into one message (the credit models the scheduler's
// in-flight window, which amortizes per-partition overhead). Preemption
// granularity is therefore the credit: a higher-priority gradient generated
// mid-message waits for the whole window to drain — the behaviour Prophet's
// window-fitted blocks avoid. EnableTuning makes the credit a moving one.
func NewByteScheduler(sizes []float64, credit float64) *Queue {
	if credit <= 0 {
		panic("schedule: ByteScheduler credit must be positive")
	}
	return newQueue(sizes, row{name: "bytescheduler", byPriority: true, budget: credit, slices: true, spans: true,
		label: "credit[g%[1]d+%[3]d]", stall: DefaultByteSchedulerEngineCost})
}

// Name implements Scheduler.
func (q *Queue) Name() string { return q.name }

// BeginIteration implements Scheduler: the queue empties (the BSP barrier
// has drained it already) and an attached tuner proposes this iteration's
// budget.
func (q *Queue) BeginIteration(int) {
	q.ready, q.head = q.ready[:0], 0
	for g := range q.queued {
		q.remaining[g], q.queued[g] = 0, false
	}
	if q.tuner != nil {
		q.budget = q.tuner.Propose()
	}
}

// OnGenerated implements Scheduler.
func (q *Queue) OnGenerated(g int, _ float64) {
	if g < 0 || g >= len(q.sizes) {
		panic(fmt.Sprintf("schedule: %s.OnGenerated(%d) out of range", q.name, g))
	}
	if q.queued[g] {
		return
	}
	q.remaining[g], q.queued[g] = q.sizes[g], true
	if q.byPriority {
		q.ready.Push(g)
	} else {
		q.ready = append(q.ready, g)
	}
}

// Next implements Scheduler.
func (q *Queue) Next(float64) (Message, bool) {
	if q.head == len(q.ready) {
		return Message{}, false
	}
	// The head always yields a piece: one within the room, one cut at it,
	// or a whole tensor over the budget shipping alone.
	msg := Message{Pieces: q.newPieces(), Stall: q.stall}
	room := q.budget
	for q.head < len(q.ready) {
		g := q.ready[q.head]
		take := q.remaining[g]
		if take > room {
			if q.slices {
				take = room
			} else if len(msg.Pieces) > 0 {
				break // the next whole tensor does not fit behind what is fused
			}
		}
		q.remaining[g] -= take
		last := q.remaining[g] <= 0
		if last {
			q.queued[g] = false
			if q.byPriority {
				q.ready.Pop()
			} else {
				q.head++
			}
		}
		msg.Pieces = append(msg.Pieces, Piece{Grad: g, Bytes: take, Last: last})
		msg.Bytes += take
		room -= take
		if !q.spans || room <= 0 {
			break
		}
	}
	msg.Label = q.labelOf(msg.Pieces[0].Grad, len(msg.Pieces))
	return msg, true
}

func (q *Queue) newPieces() []Piece {
	if n := len(q.pieces); n > 0 {
		p := q.pieces[n-1]
		q.pieces = q.pieces[:n-1]
		return p[:0]
	}
	return nil
}

// labelOf renders the row's label for a message of n pieces starting at
// gradient first, once per distinct pair.
func (q *Queue) labelOf(first, n int) string {
	k := [2]int{first, n}
	l, ok := q.labels[k]
	if !ok {
		l = fmt.Sprintf(q.label, first, n, n-1)
		q.labels[k] = l
	}
	return l
}

// OnSent implements Scheduler: the message's pieces come back for reuse.
func (q *Queue) OnSent(msg Message, _, _ float64) {
	if cap(msg.Pieces) > 0 {
		q.pieces = append(q.pieces, msg.Pieces)
	}
}

// OnIterationEnd implements Scheduler: an attached tuner learns how the
// budget it proposed did.
func (q *Queue) OnIterationEnd(iterDur float64) {
	if q.tuner != nil {
		q.tuner.Report(iterDur)
	}
}
