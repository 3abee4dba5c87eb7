package sim

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestEngineStartsAtZero(t *testing.T) {
	e := New()
	if e.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", e.Now())
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d, want 0", e.Pending())
	}
}

func TestScheduleAdvancesClock(t *testing.T) {
	e := New()
	var fired Time = -1
	e.Schedule(2.5, func() { fired = e.Now() })
	e.Run()
	if fired != 2.5 {
		t.Fatalf("event fired at %v, want 2.5", fired)
	}
	if e.Now() != 2.5 {
		t.Fatalf("Now() = %v, want 2.5", e.Now())
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	e := New()
	var order []int
	e.Schedule(3, func() { order = append(order, 3) })
	e.Schedule(1, func() { order = append(order, 1) })
	e.Schedule(2, func() { order = append(order, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestTiesFireInScheduleOrder(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(1, func() { order = append(order, i) })
	}
	e.Run()
	for i := range order {
		if order[i] != i {
			t.Fatalf("ties fired out of FIFO order: %v", order)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	e := New()
	var times []Time
	e.Schedule(1, func() {
		times = append(times, e.Now())
		e.Schedule(1, func() {
			times = append(times, e.Now())
		})
	})
	e.Run()
	if len(times) != 2 || times[0] != 1 || times[1] != 2 {
		t.Fatalf("times = %v, want [1 2]", times)
	}
}

func TestCancelPreventsFiring(t *testing.T) {
	e := New()
	fired := false
	ev := e.Schedule(1, func() { fired = true })
	if !e.Cancel(ev) {
		t.Fatal("Cancel returned false for pending event")
	}
	e.Run()
	if fired {
		t.Fatal("canceled event fired")
	}
	if e.Cancel(ev) {
		t.Fatal("double Cancel returned true")
	}
}

func TestCancelAfterFireIsNoop(t *testing.T) {
	e := New()
	ev := e.Schedule(1, func() {})
	e.Run()
	if e.Cancel(ev) {
		t.Fatal("Cancel after fire returned true")
	}
}

func TestCancelMiddleOfQueue(t *testing.T) {
	e := New()
	var order []int
	e.Schedule(1, func() { order = append(order, 1) })
	ev := e.Schedule(2, func() { order = append(order, 2) })
	e.Schedule(3, func() { order = append(order, 3) })
	e.Cancel(ev)
	e.Run()
	if len(order) != 2 || order[0] != 1 || order[1] != 3 {
		t.Fatalf("order = %v, want [1 3]", order)
	}
}

func TestRunUntilStopsAtBoundary(t *testing.T) {
	e := New()
	var fired []Time
	for _, d := range []Time{1, 2, 3, 4} {
		d := d
		e.Schedule(d, func() { fired = append(fired, d) })
	}
	e.RunUntil(2.5)
	if len(fired) != 2 {
		t.Fatalf("fired %v, want events at 1 and 2 only", fired)
	}
	if e.Now() != 2.5 {
		t.Fatalf("Now() = %v, want 2.5", e.Now())
	}
	e.Run()
	if len(fired) != 4 {
		t.Fatalf("after Run, fired %v, want 4 events", fired)
	}
}

func TestRunUntilInclusive(t *testing.T) {
	e := New()
	fired := false
	e.Schedule(2, func() { fired = true })
	e.RunUntil(2)
	if !fired {
		t.Fatal("event at exactly the RunUntil boundary did not fire")
	}
}

func TestRunForAdvancesRelative(t *testing.T) {
	e := New()
	e.Schedule(1, func() {})
	e.Run()
	e.RunFor(3)
	if e.Now() != 4 {
		t.Fatalf("Now() = %v, want 4", e.Now())
	}
}

func TestScheduleNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for negative delay")
		}
	}()
	New().Schedule(-1, func() {})
}

func TestScheduleNaNPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for NaN delay")
		}
	}()
	New().Schedule(math.NaN(), func() {})
}

func TestAtPastPanics(t *testing.T) {
	e := New()
	e.Schedule(5, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for At in the past")
		}
	}()
	e.At(1, func() {})
}

func TestAtNilCallbackPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for nil callback")
		}
	}()
	New().At(1, nil)
}

func TestFiredCounter(t *testing.T) {
	e := New()
	for i := 0; i < 7; i++ {
		e.Schedule(float64(i), func() {})
	}
	e.Run()
	if e.Fired() != 7 {
		t.Fatalf("Fired() = %d, want 7", e.Fired())
	}
}

func TestStepReturnsFalseWhenEmpty(t *testing.T) {
	e := New()
	if e.Step() {
		t.Fatal("Step on empty queue returned true")
	}
}

// Property: for any set of non-negative delays, events fire in sorted order
// and the final clock equals the maximum delay.
func TestPropertyEventsSorted(t *testing.T) {
	f := func(raw []uint16) bool {
		e := New()
		var fired []Time
		var maxT Time
		for _, r := range raw {
			d := Time(r) / 100
			if d > maxT {
				maxT = d
			}
			e.Schedule(d, func() { fired = append(fired, d) })
		}
		e.Run()
		if !sort.Float64sAreSorted(fired) {
			return false
		}
		if len(raw) > 0 && e.Now() != maxT {
			return false
		}
		return len(fired) == len(raw)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: canceling a random subset fires exactly the complement.
func TestPropertyCancelSubset(t *testing.T) {
	f := func(raw []uint8, mask uint64) bool {
		e := New()
		firedCount := 0
		events := make([]Handle, len(raw))
		wantFired := 0
		for i, r := range raw {
			events[i] = e.Schedule(Time(r), func() { firedCount++ })
		}
		for i := range events {
			if mask&(1<<(uint(i)%64)) != 0 && i%2 == 0 {
				e.Cancel(events[i])
			} else {
				wantFired++
			}
		}
		e.Run()
		return firedCount == wantFired
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkEngine_Step measures one Step (pop, fire, and the callback's
// reschedule) at a fixed queue depth. depth1 is the ping-pong that never
// sifts; depth12 is where the simulated PS cell runs, with 4–15 events
// pending.
func BenchmarkEngine_Step(b *testing.B) {
	for _, depth := range []int{1, 12} {
		b.Run(fmt.Sprintf("depth%d", depth), func(b *testing.B) {
			e := New()
			rng := NewRand(1)
			var tick func()
			tick = func() { e.Schedule(rng.Float64(), tick) }
			for i := 0; i < depth; i++ {
				e.Schedule(rng.Float64(), tick)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Step()
			}
		})
	}
}
