package core

import "fmt"

// Queue is Prophet's Scheduled Queue (Sec. 4.2): it holds the plan's
// transfer units and hands them to the transport "while maintaining the
// priority order of gradients". A unit is *eligible* once every gradient it
// spans has been generated in the current iteration; among eligible units
// the highest-priority one (smallest member index, ties broken by plan
// order) is dispatched first.
//
// In the common case — transfers keeping up with backward propagation —
// exactly one unit is eligible at a time and dispatch follows the plan
// chronologically. When the network lags the plan (bandwidth dipped below
// the monitored estimate), several units become eligible together and
// priority dispatch makes freshly generated critical gradients (ultimately
// gradient 0) overtake stale low-priority blocks at message boundaries,
// exactly as the underlying BytePS priority queues do.
//
// The queue is reset at the start of each iteration (ResetIteration) and
// consumed by the transport via PopIndexed.
type Queue struct {
	plan      *Plan
	sent      []bool
	nSent     int
	generated []bool
	nGrads    int
}

// NewQueue creates a queue over plan for a model with nGrads gradients.
func NewQueue(plan *Plan, nGrads int) *Queue {
	q := &Queue{plan: plan, nGrads: nGrads}
	q.ResetIteration()
	return q
}

// ResetIteration clears generation and dispatch marks, ready for the next
// training iteration. The mark slices are reused across iterations.
func (q *Queue) ResetIteration() {
	q.nSent = 0
	if cap(q.sent) < len(q.plan.Units) {
		q.sent = make([]bool, len(q.plan.Units))
	} else {
		q.sent = q.sent[:len(q.plan.Units)]
		clear(q.sent)
	}
	if cap(q.generated) < q.nGrads {
		q.generated = make([]bool, q.nGrads)
	} else {
		q.generated = q.generated[:q.nGrads]
		clear(q.generated)
	}
}

// SetPlan replaces the plan (Prophet re-plans when the bandwidth monitor
// reports a change) and rewinds the queue.
func (q *Queue) SetPlan(plan *Plan) {
	q.plan = plan
	q.ResetIteration()
}

// MarkGenerated records that gradient g finished backward computation.
func (q *Queue) MarkGenerated(g int) {
	if g < 0 || g >= q.nGrads {
		panic(fmt.Sprintf("core: MarkGenerated(%d) out of range [0,%d)", g, q.nGrads))
	}
	q.generated[g] = true
}

// eligible reports whether unit i can be dispatched.
func (q *Queue) eligible(i int) bool {
	if q.sent[i] {
		return false
	}
	for _, s := range q.plan.Units[i].Spans {
		if s.Grad >= q.nGrads || !q.generated[s.Grad] {
			return false
		}
	}
	return true
}

// pick returns the index of the highest-priority eligible unit, or -1.
func (q *Queue) pick() int {
	best := -1
	bestPrio := 0
	for i := range q.plan.Units {
		if !q.eligible(i) {
			continue
		}
		p := q.plan.Units[i].Priority()
		if best == -1 || p < bestPrio {
			best = i
			bestPrio = p
		}
	}
	return best
}

// PopIndexed removes the highest-priority eligible unit and returns it
// together with its index in the plan. ok is false when nothing is
// eligible. The index lets callers key per-unit caches without re-deriving
// unit identity from its spans.
func (q *Queue) PopIndexed() (Unit, int, bool) {
	i := q.pick()
	if i < 0 {
		return Unit{}, -1, false
	}
	q.sent[i] = true
	q.nSent++
	return q.plan.Units[i], i, true
}

// Exhausted reports whether every unit has been dispatched.
func (q *Queue) Exhausted() bool { return q.nSent >= len(q.plan.Units) }

// Remaining returns the number of units not yet dispatched.
func (q *Queue) Remaining() int { return len(q.plan.Units) - q.nSent }
