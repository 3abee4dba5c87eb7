// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine is the substrate for every simulated experiment in this
// repository: it owns a virtual clock, a cancelable event queue, and a
// seedable random source, so that simulation results are bit-for-bit
// reproducible across runs and machines. No wall-clock time ever enters a
// simulation.
//
// The queue is a typed binary min-heap whose slots hold each event's firing
// key (time, scheduling sequence) inline beside a pointer to the pooled
// Event, so sifting compares plain values; Cancel removes by the heap index
// the Event keeps, in O(log n).
package sim

import (
	"fmt"
	"math"
)

// Time is a point on the simulation clock, in seconds.
type Time = float64

// Event is a pooled scheduler node. Callers never construct or hold an
// Event directly: Engine.Schedule and Engine.At return a Handle, and the
// Event itself is recycled through the engine's free list the moment it
// fires or is canceled. The generation counter is what keeps recycled
// nodes safe: a Handle created for one incarnation can never affect the
// next one. The firing time and sequence live in the event's queue slot,
// not here.
type Event struct {
	index int // heap index, -1 once popped or canceled
	gen   uint64
	fn    func()
}

// Handle identifies one scheduled callback. It is a small value type —
// copying it is free and holding it past the event's firing is safe: a
// stale Handle no longer matches its Event's generation, so Cancel and
// Active report false instead of touching a recycled event.
type Handle struct {
	ev  *Event
	gen uint64
	at  Time
}

// At reports the simulation time at which the event was scheduled to fire.
func (h Handle) At() Time { return h.at }

// Engine is a discrete-event simulator. The zero value is ready to use.
// Engine is not safe for concurrent use; a simulation is single-threaded by
// design (determinism), while the systems *modeled* may be concurrent.
// Concurrency in the harness happens one level up: independent simulations,
// each owning its private Engine, run on separate goroutines.
type Engine struct {
	now    Time
	queue  eventQueue
	seq    uint64
	nFired uint64
	// free is the Event free list: fired and canceled events are recycled
	// here so steady-state simulation allocates no event nodes at all.
	free []*Event
}

// New returns a new engine with the clock at zero.
func New() *Engine { return &Engine{} }

// Now returns the current simulation time in seconds.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events executed so far.
func (e *Engine) Fired() uint64 { return e.nFired }

// Pending returns the number of events waiting in the queue.
func (e *Engine) Pending() int { return len(e.queue) }

// FreeListLen returns how many recycled events are pooled (test hook).
func (e *Engine) FreeListLen() int { return len(e.free) }

// Schedule arranges for fn to run after delay seconds of simulated time and
// returns a handle that can be canceled. A negative delay panics: scheduling
// into the past would silently corrupt causality.
func (e *Engine) Schedule(delay Time, fn func()) Handle {
	if delay < 0 || math.IsNaN(delay) {
		panic(fmt.Sprintf("sim: Schedule with invalid delay %v at t=%v", delay, e.now))
	}
	return e.At(e.now+delay, fn)
}

// At arranges for fn to run at absolute time t. Events at equal times fire
// in scheduling order (FIFO), which keeps runs deterministic.
func (e *Engine) At(t Time, fn func()) Handle {
	if t < e.now || math.IsNaN(t) {
		panic(fmt.Sprintf("sim: At(%v) is in the past (now=%v)", t, e.now))
	}
	if fn == nil {
		panic("sim: At with nil callback")
	}
	var ev *Event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		ev = &Event{}
	}
	ev.fn = fn
	e.queue.push(slot{at: t, seq: e.seq, ev: ev})
	e.seq++
	return Handle{ev: ev, gen: ev.gen, at: t}
}

// release returns an event to the free list and invalidates every
// outstanding Handle to it by bumping the generation.
func (e *Engine) release(ev *Event) {
	ev.fn = nil
	ev.gen++
	e.free = append(e.free, ev)
}

// Cancel removes a pending event. Canceling an already-fired,
// already-canceled, or zero Handle is a no-op and returns false — even if
// the underlying event node has been recycled for a new callback, the
// generation check guarantees the new incarnation is untouched.
func (e *Engine) Cancel(h Handle) bool {
	if h.ev == nil || h.ev.gen != h.gen || h.ev.index < 0 {
		return false
	}
	e.queue.remove(h.ev.index)
	e.release(h.ev)
	return true
}

// Active reports whether the handle's event is still pending.
func (e *Engine) Active(h Handle) bool {
	return h.ev != nil && h.ev.gen == h.gen && h.ev.index >= 0
}

// Step executes the next pending event, advancing the clock. It returns
// false when the queue is empty.
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	s := e.queue.remove(0) // the earliest event
	ev := s.ev
	e.now = s.at
	e.nFired++
	fn := ev.fn
	// Recycle before running fn: the callback may schedule new events and
	// reuse this very node, which is exactly the steady-state ping-pong
	// that makes the hot loop allocation-free.
	e.release(ev)
	fn()
	return true
}

// Run executes events until the queue is empty.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with firing time <= t, then advances the clock to
// exactly t. Events scheduled later remain pending.
func (e *Engine) RunUntil(t Time) {
	if t < e.now {
		panic(fmt.Sprintf("sim: RunUntil(%v) is in the past (now=%v)", t, e.now))
	}
	for len(e.queue) > 0 && e.queue[0].at <= t {
		e.Step()
	}
	e.now = t
}

// RunFor executes events for d seconds of simulated time from now.
func (e *Engine) RunFor(d Time) { e.RunUntil(e.now + d) }

// slot is one eventQueue entry. The (at, seq) key lives inline so that a
// sift compares keys without dereferencing the events it moves.
type slot struct {
	at  Time
	seq uint64
	ev  *Event
}

// before reports whether a fires before b: earlier time, then earlier
// scheduling. seq is unique, so this is a total order and any valid heap
// pops the same sequence.
func (a *slot) before(b *slot) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// eventQueue is a binary min-heap of slots on (at, seq). Every move writes
// the event's new position to Event.index, which Cancel removes by.
type eventQueue []slot

func (q *eventQueue) push(s slot) {
	*q = append(*q, s)
	q.up(len(*q) - 1)
}

// remove takes the entry at index i out of the heap: the last entry fills
// the hole and sifts whichever way restores the order.
func (q *eventQueue) remove(i int) slot {
	h := *q
	n := len(h) - 1
	s := h[i]
	if i != n {
		h[i] = h[n]
	}
	h[n] = slot{}
	*q = h[:n]
	if i != n && !q.down(i) {
		q.up(i)
	}
	s.ev.index = -1
	return s
}

// up moves the entry at i toward the root until its parent fires first.
func (q eventQueue) up(i int) {
	s := q[i]
	for i > 0 {
		p := (i - 1) / 2
		if !s.before(&q[p]) {
			break
		}
		q[i] = q[p]
		q[i].ev.index = i
		i = p
	}
	q[i] = s
	s.ev.index = i
}

// down moves the entry at i toward the leaves until both children fire
// after it, and reports whether it moved.
func (q eventQueue) down(i int) bool {
	n := len(q)
	s := q[i]
	i0 := i
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q[r].before(&q[c]) {
			c = r
		}
		if !q[c].before(&s) {
			break
		}
		q[i] = q[c]
		q[i].ev.index = i
		i = c
	}
	q[i] = s
	s.ev.index = i
	return i > i0
}
