package core

import "testing"

func planForQueue(t *testing.T) (*Plan, int) {
	t.Helper()
	prof := stepProfile(t, 3, 3, 0.1, 1e6)
	plan, err := assemble(t, prof, Config{Bandwidth: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	return plan, prof.N()
}

func TestQueueNotReadyBeforeGeneration(t *testing.T) {
	plan, n := planForQueue(t)
	q := NewQueue(plan, n)
	if _, _, ok := q.PopIndexed(); ok {
		t.Fatal("queue ready before any gradient generated")
	}
}

func TestQueueReadyAfterMembersGenerated(t *testing.T) {
	plan, n := planForQueue(t)
	q := NewQueue(plan, n)
	head := plan.Units[0]
	for _, g := range head.Grads() {
		q.MarkGenerated(g)
	}
	u, _, ok := q.PopIndexed()
	if !ok {
		t.Fatal("queue not ready after head members generated")
	}
	if u.Priority() != head.Priority() {
		t.Fatalf("ready unit %v, want %v", u.Grads(), head.Grads())
	}
}

func TestQueuePartialGenerationNotReady(t *testing.T) {
	plan, n := planForQueue(t)
	head := plan.Units[0]
	if len(head.Grads()) < 2 {
		t.Skip("head unit too small for partial test")
	}
	q := NewQueue(plan, n)
	q.MarkGenerated(head.Grads()[0])
	if _, _, ok := q.PopIndexed(); ok {
		t.Fatal("queue ready with only one of several members generated")
	}
}

func TestQueuePopAdvances(t *testing.T) {
	plan, n := planForQueue(t)
	q := NewQueue(plan, n)
	for g := 0; g < n; g++ {
		q.MarkGenerated(g)
	}
	count := 0
	for !q.Exhausted() {
		if _, i, ok := q.PopIndexed(); !ok || i < 0 {
			t.Fatalf("pop %d: not ready with every gradient generated", count)
		}
		count++
	}
	if count != len(plan.Units) {
		t.Fatalf("popped %d units, plan has %d", count, len(plan.Units))
	}
	if _, i, ok := q.PopIndexed(); ok || i != -1 {
		t.Fatal("exhausted queue still ready")
	}
}

func TestQueuePriorityDelivery(t *testing.T) {
	plan, n := planForQueue(t)
	q := NewQueue(plan, n)
	// Generate everything up front (network lagged the whole plan); pops
	// must come out in non-decreasing priority order.
	for g := 0; g < n; g++ {
		q.MarkGenerated(g)
	}
	prev := -1
	for !q.Exhausted() {
		u, _, _ := q.PopIndexed()
		if u.Priority() < prev {
			t.Fatalf("priority went backwards: %d after %d", u.Priority(), prev)
		}
		prev = u.Priority()
	}
}

func TestQueueStepwiseGenerationFollowsPlanOrder(t *testing.T) {
	// When generation arrives in backward order (the normal case), pops
	// track the plan chronologically: each newly generated release makes
	// exactly its own units eligible.
	plan, n := planForQueue(t)
	q := NewQueue(plan, n)
	popped := 0
	for g := n - 1; g >= 0; g-- {
		q.MarkGenerated(g)
		for {
			u, _, ok := q.PopIndexed()
			if !ok {
				break
			}
			popped++
			// Every dispatched unit's members are generated.
			for _, s := range u.Spans {
				if s.Grad < g {
					t.Fatalf("unit spans ungenerated gradient %d (now at %d)", s.Grad, g)
				}
			}
		}
	}
	if popped != len(plan.Units) {
		t.Fatalf("popped %d of %d units", popped, len(plan.Units))
	}
}

func TestQueueIneligibleUnitsNeverDispatch(t *testing.T) {
	plan, n := planForQueue(t)
	if len(plan.Units) < 2 {
		t.Skip("need 2+ units")
	}
	q := NewQueue(plan, n)
	// Generate only the members of one unit; every dispatch must span
	// only generated gradients.
	gen := map[int]bool{}
	for _, g := range plan.Units[1].Grads() {
		q.MarkGenerated(g)
		gen[g] = true
	}
	for {
		u, _, ok := q.PopIndexed()
		if !ok {
			break
		}
		for _, s := range u.Spans {
			if !gen[s.Grad] {
				t.Fatalf("dispatched unit spans ungenerated gradient %d", s.Grad)
			}
		}
	}
}

func TestQueueResetIteration(t *testing.T) {
	plan, n := planForQueue(t)
	q := NewQueue(plan, n)
	for g := 0; g < n; g++ {
		q.MarkGenerated(g)
	}
	q.PopIndexed()
	q.ResetIteration()
	if q.Remaining() != len(plan.Units) {
		t.Fatalf("Remaining = %d after reset", q.Remaining())
	}
	if _, _, ok := q.PopIndexed(); ok {
		t.Fatal("generation marks survived reset")
	}
}

func TestQueueSetPlanRewinds(t *testing.T) {
	plan, n := planForQueue(t)
	q := NewQueue(plan, n)
	for g := 0; g < n; g++ {
		q.MarkGenerated(g)
	}
	q.PopIndexed()
	q.SetPlan(plan)
	if q.Remaining() != len(plan.Units) {
		t.Fatal("SetPlan did not rewind")
	}
}

func TestQueueMarkGeneratedOutOfRangePanics(t *testing.T) {
	plan, n := planForQueue(t)
	q := NewQueue(plan, n)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	q.MarkGenerated(n + 5)
}
