package sim

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"
)

// refEvent is one pending callback in FuzzEngineOrder's reference model.
type refEvent struct {
	at    Time
	id    int
	child Time // >= 0: firing schedules a plain event this much later
}

// FuzzEngineOrder runs a script of At, Schedule (with a callback that
// schedules again), Cancel through any handle ever issued (fired and
// canceled ones included), Step and RunUntil against a reference that
// keeps pending events in scheduling order and stable-sorts them by time,
// so ties fire first-scheduled first. After every operation the firing
// order, Now, Pending and Active of every handle must match.
func FuzzEngineOrder(f *testing.F) {
	f.Add([]byte{0, 4, 0, 4, 1, 2, 3, 0, 2, 1, 4, 9, 3, 0})
	f.Add([]byte{1, 0, 1, 0, 0, 0, 2, 0, 2, 0, 3, 0, 3, 0, 3, 0})
	f.Add([]byte{0, 15, 0, 3, 0, 7, 0, 1, 2, 2, 4, 4, 1, 5, 4, 15, 2, 0, 3, 3})
	f.Fuzz(func(t *testing.T, script []byte) {
		e := New()
		var handles []Handle
		var fired []int
		plain := func(id int) func() { return func() { fired = append(fired, id) } }
		nested := func(id int, d Time) func() {
			return func() {
				fired = append(fired, id)
				handles = append(handles, e.Schedule(d, plain(len(handles))))
			}
		}

		var pending []refEvent
		var want []int
		var now Time
		nextID := 0
		refAdd := func(at, child Time) {
			pending = append(pending, refEvent{at: at, id: nextID, child: child})
			nextID++
		}
		// refNext orders pending by time, ties in scheduling order, and
		// reports whether an event fires by time until.
		refNext := func(until Time) bool {
			sort.SliceStable(pending, func(i, j int) bool { return pending[i].at < pending[j].at })
			return len(pending) > 0 && pending[0].at <= until
		}
		refStep := func() bool {
			if !refNext(math.Inf(1)) {
				return false
			}
			ev := pending[0]
			pending = slices.Delete(pending, 0, 1)
			now = ev.at
			want = append(want, ev.id)
			if ev.child >= 0 {
				refAdd(now+ev.child, -1)
			}
			return true
		}
		refPending := func(id int) bool {
			return slices.ContainsFunc(pending, func(ev refEvent) bool { return ev.id == id })
		}
		check := func(step int, what string) {
			t.Helper()
			if !slices.Equal(fired, want) {
				t.Fatalf("op %d (%s): fired %v, reference %v", step, what, fired, want)
			}
			if e.Now() != now || e.Pending() != len(pending) || len(handles) != nextID {
				t.Fatalf("op %d (%s): now %v pending %d handles %d, reference now %v pending %d handles %d",
					step, what, e.Now(), e.Pending(), len(handles), now, len(pending), nextID)
			}
			for id, h := range handles {
				if e.Active(h) != refPending(id) {
					t.Fatalf("op %d (%s): Active(handle %d) = %v, reference %v", step, what, id, e.Active(h), refPending(id))
				}
			}
		}

		for i := 0; i+1 < len(script); i += 2 {
			arg := script[i+1]
			d := Time(arg%16) / 4 // quarter steps, so ties are common
			var what string
			switch script[i] % 5 {
			case 0:
				what = fmt.Sprintf("At(now+%v)", d)
				handles = append(handles, e.At(now+d, plain(len(handles))))
				refAdd(now+d, -1)
			case 1:
				what = fmt.Sprintf("Schedule(%v) nesting", d)
				handles = append(handles, e.Schedule(d, nested(len(handles), d)))
				refAdd(now+d, d)
			case 2:
				if len(handles) == 0 {
					continue
				}
				id := int(arg) % len(handles)
				what = fmt.Sprintf("Cancel(handle %d)", id)
				wantOK := refPending(id)
				if got := e.Cancel(handles[id]); got != wantOK {
					t.Fatalf("op %d: %s = %v, reference %v", i/2, what, got, wantOK)
				}
				pending = slices.DeleteFunc(pending, func(ev refEvent) bool { return ev.id == id })
			case 3:
				what = "Step"
				if got, wantOK := e.Step(), refStep(); got != wantOK {
					t.Fatalf("op %d: Step = %v, reference %v", i/2, got, wantOK)
				}
			case 4:
				until := now + d
				what = fmt.Sprintf("RunUntil(%v)", until)
				e.RunUntil(until)
				for refNext(until) {
					refStep()
				}
				now = until
			}
			check(i/2, what)
		}
		e.Run()
		for refStep() {
		}
		check(len(script)/2, "Run")
	})
}
