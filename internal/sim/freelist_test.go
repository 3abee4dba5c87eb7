package sim

import (
	"testing"
	"testing/quick"
)

// The free-list tests pin down the safety contract of the pooled event
// engine: recycled nodes never resurrect a canceled or fired callback, a
// stale Handle can never touch the node's next incarnation, and Fired()
// stays exact through arbitrary cancel/reschedule churn.

func TestFreeListRecyclesNodes(t *testing.T) {
	e := New()
	e.Schedule(1, func() {})
	e.Run()
	if got := e.FreeListLen(); got != 1 {
		t.Fatalf("FreeListLen after one fire = %d, want 1", got)
	}
	// The next schedule must reuse the pooled node, not allocate.
	e.Schedule(1, func() {})
	if got := e.FreeListLen(); got != 0 {
		t.Fatalf("FreeListLen after reuse = %d, want 0", got)
	}
	e.Run()
}

func TestSteadyStateDoesNotGrowPool(t *testing.T) {
	// A self-rescheduling callback — the shape of every periodic process in
	// the cluster sim — must ping-pong on a single pooled node.
	e := New()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < 1000 {
			e.Schedule(1, tick)
		}
	}
	e.Schedule(1, tick)
	e.Run()
	if n != 1000 {
		t.Fatalf("ticks = %d, want 1000", n)
	}
	if got := e.FreeListLen(); got != 1 {
		t.Fatalf("FreeListLen = %d, want 1 (single node reused)", got)
	}
	if e.Fired() != 1000 {
		t.Fatalf("Fired() = %d, want 1000", e.Fired())
	}
}

func TestStaleHandleCannotCancelRecycledNode(t *testing.T) {
	e := New()
	firstFired, secondFired := false, false
	h1 := e.Schedule(1, func() { firstFired = true })
	e.Run()
	// h1's node is now in the free list; the next schedule reuses it.
	h2 := e.Schedule(1, func() { secondFired = true })
	if e.Cancel(h1) {
		t.Fatal("stale handle canceled a recycled node")
	}
	if !e.Active(h2) {
		t.Fatal("fresh handle reported inactive")
	}
	if e.Active(h1) {
		t.Fatal("stale handle reported active")
	}
	e.Run()
	if !firstFired || !secondFired {
		t.Fatalf("fired = (%v, %v), want both", firstFired, secondFired)
	}
}

func TestStaleHandleAfterCancelCannotDoubleCancel(t *testing.T) {
	e := New()
	h1 := e.Schedule(1, func() { t.Fatal("canceled callback fired") })
	if !e.Cancel(h1) {
		t.Fatal("first Cancel returned false")
	}
	// Node is recycled into a live event; the stale handle must not kill it.
	fired := false
	e.Schedule(2, func() { fired = true })
	if e.Cancel(h1) {
		t.Fatal("double Cancel through a stale handle returned true")
	}
	e.Run()
	if !fired {
		t.Fatal("recycled event did not fire")
	}
	if e.Fired() != 1 {
		t.Fatalf("Fired() = %d, want 1", e.Fired())
	}
}

func TestCancelRescheduleLoop(t *testing.T) {
	// Repeatedly schedule-then-cancel (a timer being pushed out, the shape
	// of retry deadlines): no callback may ever fire, Fired() stays 0, and
	// the pool holds exactly one node.
	e := New()
	var h Handle
	for i := 0; i < 100; i++ {
		h = e.Schedule(float64(i+1), func() { t.Fatal("canceled timer fired") })
		if !e.Cancel(h) {
			t.Fatalf("Cancel %d returned false", i)
		}
	}
	e.Run()
	if e.Fired() != 0 {
		t.Fatalf("Fired() = %d, want 0", e.Fired())
	}
	if got := e.FreeListLen(); got != 1 {
		t.Fatalf("FreeListLen = %d, want 1", got)
	}
}

func TestHandleAt(t *testing.T) {
	e := New()
	h := e.Schedule(2.5, func() {})
	if h.At() != 2.5 {
		t.Fatalf("Handle.At() = %v, want 2.5", h.At())
	}
	e.Run()
	// At() remains readable after the event fires.
	if h.At() != 2.5 {
		t.Fatalf("Handle.At() after fire = %v, want 2.5", h.At())
	}
}

func TestZeroHandleIsInert(t *testing.T) {
	e := New()
	var h Handle
	if e.Cancel(h) {
		t.Fatal("Cancel of zero Handle returned true")
	}
	if e.Active(h) {
		t.Fatal("Active of zero Handle returned true")
	}
}

// Property: under random interleavings of schedule and cancel, exactly the
// non-canceled callbacks fire, Fired() matches, and no canceled callback
// ever runs — even though nodes are being recycled throughout.
func TestPropertyPoolChurn(t *testing.T) {
	type tracked struct {
		h  Handle
		id int
	}
	f := func(ops []uint16) bool {
		e := New()
		fired := 0
		canceled := make(map[int]bool)
		var handles []tracked
		id := 0
		for _, op := range ops {
			delay := Time(op%64) + 1
			switch {
			case op%3 == 0 && len(handles) > 0:
				// Cancel the most recent still-tracked handle.
				i := len(handles) - 1
				if e.Cancel(handles[i].h) {
					canceled[handles[i].id] = true
				}
				handles = handles[:i]
			default:
				myID := id
				id++
				h := e.Schedule(delay, func() {
					fired++
					if canceled[myID] {
						panic("canceled callback fired")
					}
				})
				handles = append(handles, tracked{h, myID})
				// Occasionally drain mid-stream so nodes recycle while
				// handles are still held.
				if op%7 == 0 {
					e.RunFor(Time(op % 8))
				}
			}
		}
		e.Run()
		want := id - len(canceled)
		return fired == want && e.Fired() == uint64(want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
