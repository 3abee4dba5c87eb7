package core

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
)

// Phase labels when a transfer unit is scheduled relative to the
// backward/forward boundary.
type Phase int

const (
	// Backward units are gradient blocks assembled by Algorithm 1's
	// greedy window test (lines 5–11).
	Backward Phase = iota
	// Forward units carry one gradient each, in strict priority order
	// (lines 12–18).
	Forward
)

func (p Phase) String() string {
	switch p {
	case Backward:
		return "backward"
	case Forward:
		return "forward"
	default:
		return fmt.Sprintf("Phase(%d)", int(p))
	}
}

// Span is a (possibly partial) byte range of one gradient inside a unit.
// Prophet schedules at partition granularity — the illustrative example in
// the paper's Sec. 2.3 assembles "the two partitions of gradient 1" — so a
// large tensor's partitions can spread across consecutive blocks.
type Span struct {
	Grad  int
	Bytes float64
	// Last marks the span that completes its gradient's transfer.
	Last bool
}

// Unit is one network transfer: a gradient block (backward phase) or a
// whole gradient (forward phase).
type Unit struct {
	Spans        []Span
	Bytes        float64
	PlannedStart float64
	Phase        Phase
}

// Priority returns the unit's transfer priority (its most critical member).
func (u Unit) Priority() int {
	p := 1 << 30
	for _, s := range u.Spans {
		if s.Grad < p {
			p = s.Grad
		}
	}
	return p
}

// Grads returns the distinct gradient indices the unit touches, ascending.
func (u Unit) Grads() []int {
	seen := map[int]bool{}
	var out []int
	for _, s := range u.Spans {
		if !seen[s.Grad] {
			seen[s.Grad] = true
			out = append(out, s.Grad)
		}
	}
	sort.Ints(out)
	return out
}

// GradRange returns the smallest and largest gradient index the unit
// touches, without allocating — the label-rendering form of Grads.
func (u Unit) GradRange() (lo, hi int) {
	lo, hi = 1<<30, -1
	for _, s := range u.Spans {
		if s.Grad < lo {
			lo = s.Grad
		}
		if s.Grad > hi {
			hi = s.Grad
		}
	}
	return lo, hi
}

// Plan is Algorithm 1's output: the ordered sequence of transfer units for
// one training iteration, plus the planned start time t(i) per gradient
// (the start of its first span). It is read-only once Assemble returns:
// schedule.Planner hands one Plan to many Prophets, across goroutines.
type Plan struct {
	Units []Unit
	// Start[i] is t(i), the planned transfer start of gradient i.
	Start []float64
}

// NumBlocks returns how many backward-phase blocks the plan contains.
func (p *Plan) NumBlocks() int {
	n := 0
	for _, u := range p.Units {
		if u.Phase == Backward {
			n++
		}
	}
	return n
}

// Config parameterizes Algorithm 1.
type Config struct {
	// Bandwidth is the monitored available bandwidth B in bytes/sec,
	// used for the transmission estimate E(i) = s(i)/B (Eq. 5).
	Bandwidth float64
	// Partition is the slicing granularity in bytes (default 4 MB, the
	// same partition size the paper configures for P3). Blocks are
	// assembled from partitions so a large tensor never monopolizes a
	// window.
	Partition float64
	// PerMessageTime is the fixed cost in seconds of putting one message
	// on the wire (connection setup, slow start, engine dispatch). Block
	// assembly charges it when a block opens and the admission test
	// includes it, so blocks genuinely finish within their windows —
	// Eq. 10's point that small messages under-utilize the network.
	PerMessageTime float64
	// IgnoreWindows disables the transfer-window admission test: blocks
	// grow until the next release interrupts them, losing the preemption
	// guarantee. Exists only for the DESIGN.md §5 ablation.
	IgnoreWindows bool
}

// DefaultPartition is the default slicing granularity (4 MB).
const DefaultPartition = 4e6

// GradHeap is a min-heap of gradient indices: the lowest index, the most
// urgent gradient, sits at [0]. Algorithm 1's ready set and the priority
// rows of schedule.Queue pop from it; it is typed, so Push and Pop box
// nothing.
type GradHeap []int

// Push adds gradient g.
func (h *GradHeap) Push(g int) {
	s := append(*h, g)
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if s[p] <= s[i] {
			break
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
	*h = s
}

// Pop removes and returns the lowest index.
func (h *GradHeap) Pop() int {
	s := *h
	g, n := s[0], len(s)-1
	s[0] = s[n]
	s = s[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && s[c+1] < s[c] {
			c++
		}
		if s[i] <= s[c] {
			break
		}
		s[i], s[c] = s[c], s[i]
		i = c
	}
	*h = s
	return g
}

// Assemble runs Algorithm 1 over a profile and returns the transfer plan
// for one iteration.
//
// Backward phase (Alg. 1 lines 5–11): ready gradients are sliced into
// partitions and greedily appended, highest priority first, to the current
// gradient block while the block still finishes before the next release of
// higher-priority gradients. For a gradient admitted at its own release
// this is exactly the paper's window test T_used + E(partition) ≤ A(q)
// (A(q) is the gap from q's release to the next one, Alg. 1 line 1); for
// leftovers retried later, anchoring the deadline at the *upcoming* release
// is the direct reading of Constraint 11. When the test fails the block
// closes — that is the preemption point where freshly generated
// higher-priority gradients enter — and the outer loop (line 2) immediately
// opens a new block with T_used reset, so the link never idles while
// eligible gradients wait. A block always admits at least one partition,
// bounding priority inversion by one partition's transfer time (the same
// bound P3 and ByteScheduler give).
//
// Forward phase (lines 12–18, Constraint 9): gradient 0 goes out the moment
// backward ends (t(0) = c(0), or when the link frees under backlog), then
// each remaining gradient's leftover bytes as one message, in strict
// priority order.
func Assemble(prof *Profile, cfg Config) (*Plan, error) {
	if err := prof.validate(); err != nil {
		return nil, err
	}
	if cfg.Bandwidth <= 0 {
		panic("core: Config needs positive Bandwidth")
	}
	if cfg.Partition == 0 {
		cfg.Partition = DefaultPartition
	}
	if cfg.Partition < 0 {
		return nil, fmt.Errorf("core: negative partition size")
	}
	n := prof.N()

	// Release order: by (generation time, descending index) — backward
	// produces high indices first.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int {
		return cmp.Or(cmp.Compare(prof.Gen[a], prof.Gen[b]), cmp.Compare(b, a))
	})

	c0 := prof.BackwardEnd()
	start := make([]float64, n)
	remaining := make([]float64, n)
	left := 0 // gradients with remaining bytes
	// maxSpans bounds the total span count across the whole plan: the
	// backward phase appends at most one span per partition (merges only
	// shrink that), and the forward phase at most one span per gradient.
	// One shared backing buffer of that size serves every unit, so span
	// storage is a single allocation instead of one per block.
	maxSpans := n
	for i := range start {
		start[i] = -1
		remaining[i] = prof.Bytes[i]
		left++
		maxSpans += int(prof.Bytes[i]/cfg.Partition) + 1
	}
	spanBuf := make([]Span, 0, maxSpans)
	plan := &Plan{Start: start, Units: make([]Unit, 0, 64)}

	ready := make(GradHeap, 0, n)
	next := 0 // next index into order not yet released
	absorb := func(now float64) {
		for next < n && prof.Gen[order[next]] <= now {
			ready.Push(order[next])
			next++
		}
	}

	linkFree := 0.0
	reachedZero := false
	for left > 0 && !reachedZero {
		absorb(linkFree)
		if len(ready) == 0 {
			if next >= n {
				break
			}
			// Link idles until the next release.
			if t := prof.Gen[order[next]]; t > linkFree {
				linkFree = t
			}
			absorb(linkFree)
		}
		if linkFree >= c0 {
			break // backward propagation is over; forward phase takes it
		}
		// Form one block starting when the link frees (lines 6–11). The
		// block pays its per-message cost up front, so the window test
		// accounts for the true wire time.
		blockStart := linkFree
		tUsed := cfg.PerMessageTime
		base := len(spanBuf)
		var bytes float64
		for len(ready) > 0 {
			q := ready[0]
			if q == 0 {
				reachedZero = true // c(0) reached: the rest is forward phase
				break
			}
			take := cfg.Partition
			if take > remaining[q] {
				take = remaining[q]
			}
			e := take / cfg.Bandwidth
			// Deadline: the next release of (necessarily higher-priority)
			// gradients; c(0) bounds it because gradient 0 must go out
			// the moment backward ends.
			deadline := c0
			if next < n && prof.Gen[order[next]] < deadline {
				deadline = prof.Gen[order[next]]
			}
			if !cfg.IgnoreWindows && blockStart+tUsed+e > deadline {
				if len(spanBuf) > base {
					break // block boundary: preemption point (line 7 fails)
				}
				// Not even one partition fits before the deadline. If the
				// deadline is c(0), the paper's Sec. 2.3 example is
				// explicit: leave the link free so gradient 0 departs the
				// instant it is generated (the u(0) − c(0) term dominates
				// Eq. 6) — but only when the idle gap costs less than the
				// delay the partition would impose on gradient 0. For
				// mid-backward releases, idling just re-poses the same
				// dilemma one window later, so stay work-conserving and
				// accept a one-partition inversion — the same bound P3
				// and ByteScheduler give.
				if gap := c0 - (blockStart + tUsed); deadline == c0 && gap <= (blockStart+tUsed+e)-c0 {
					linkFree = c0
					break
				}
			}
			if start[q] < 0 {
				start[q] = blockStart + tUsed
			}
			remaining[q] -= take
			last := remaining[q] <= 0
			if last {
				ready.Pop()
				left--
			}
			// Merge consecutive spans of the same gradient.
			if k := len(spanBuf); k > base && spanBuf[k-1].Grad == q {
				spanBuf[k-1].Bytes += take
				spanBuf[k-1].Last = last
			} else {
				spanBuf = append(spanBuf, Span{Grad: q, Bytes: take, Last: last})
			}
			bytes += take
			tUsed += e
			// Note on Alg. 1 line 10: the pseudocode lets gradients
			// generated *during* a block's transmission join it. A block
			// is one wire message here (that is what amortizes the
			// per-message overhead), so it cannot depart before its last
			// member exists — admitting future releases would stall the
			// link waiting for them. Gradients released while this block
			// is on the wire instead lead the next block, which the outer
			// loop opens immediately.
		}
		if len(spanBuf) == base {
			continue
		}
		// Three-index slice: a later append past capacity (impossible given
		// maxSpans, but harmless if it ever happened) can't scribble over
		// this unit's spans.
		plan.Units = append(plan.Units, Unit{
			Spans:        spanBuf[base:len(spanBuf):len(spanBuf)],
			Bytes:        bytes,
			PlannedStart: blockStart,
			Phase:        Backward,
		})
		linkFree = blockStart + tUsed
	}

	// Forward phase: leftover bytes in strict priority order, beginning
	// with gradient 0 *alone* at c(0) (lines 16–18) so its pull — the one
	// gating forward propagation — is as small and early as possible.
	// Later gradients are bundled into partition-sized units: sending each
	// tiny tensor (batch-norm scales are a few hundred bytes) as its own
	// message would burn a per-message overhead a hundred times over,
	// which no transport does; bundles preserve priority order and keep
	// pull granularity at one partition.
	tNext := c0
	if linkFree > tNext {
		tNext = linkFree
	}
	base := len(spanBuf)
	var bytes float64
	emit := func() {
		if len(spanBuf) == base {
			return
		}
		plan.Units = append(plan.Units, Unit{
			Spans:        spanBuf[base:len(spanBuf):len(spanBuf)],
			Bytes:        bytes,
			PlannedStart: tNext,
			Phase:        Forward,
		})
		tNext += cfg.PerMessageTime + bytes/cfg.Bandwidth
		base = len(spanBuf)
		bytes = 0
	}
	for q := 0; q < n; q++ {
		if remaining[q] <= 0 {
			continue
		}
		if start[q] < 0 {
			// The gradient's bytes hit the wire after the bundle's
			// per-message overhead and the bytes queued ahead of it —
			// mirroring the backward phase, where tUsed opens at
			// PerMessageTime before the first span's wire time.
			start[q] = tNext + cfg.PerMessageTime + bytes/cfg.Bandwidth
		}
		spanBuf = append(spanBuf, Span{Grad: q, Bytes: remaining[q], Last: true})
		bytes += remaining[q]
		remaining[q] = 0
		// Gradient 0 ships alone; afterwards close a bundle once it
		// reaches the partition size.
		if q == 0 || bytes >= cfg.Partition {
			emit()
		}
	}
	emit()
	return plan, nil
}
