package attrib

import (
	"math"
	"testing"

	"prophet/internal/probe"
)

// script builds the worked example the assertions below decode by hand:
// one worker, one lane, two gradients. g1 generates first and transmits
// first; g0 generates while g1's span occupies the lane, so part of its
// wait is bandwidth wait and the remainder is priority wait.
//
//	iter start 0.0
//	g1 generated 0.1, span [0.5, 0.9), acked 1.0
//	g0 generated 0.3, span [0.9, 1.2), acked 1.5
func script() *probe.SpanRecorder {
	rec := probe.NewSpanRecorder()
	var obs probe.Observer = rec
	obs.BeginIteration(0, 0, 0.0)
	obs.Generated(0, 1, 0.1)
	obs.Generated(0, 0, 0.3)
	obs.SendStart(0, 0, 0, 0, "g1", 100, []probe.Range{{Grad: 1, Bytes: 100, Last: true}}, 0.5)
	obs.SendComplete(0, 0, 0, 0.9)
	obs.SendStart(0, 0, 1, 0, "g0", 75, []probe.Range{{Grad: 0, Bytes: 75, Last: true}}, 0.9)
	obs.SendComplete(0, 0, 0, 1.2)
	obs.PullAcked(0, 1, 0, 1.0)
	obs.PullAcked(0, 0, 0, 1.5)
	obs.EndIteration(0, 0, 1.6)
	return rec
}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9 }

func TestAnalyzeComponents(t *testing.T) {
	rep := Analyze(script(), 3)
	if rep.Skipped != 0 {
		t.Errorf("skipped = %d, want 0", rep.Skipped)
	}
	if len(rep.PerGrad) != 2 {
		t.Fatalf("per-grad entries = %d, want 2", len(rep.PerGrad))
	}
	// Sorted by (worker, iter, grad): index 0 is gradient 0.
	g0, g1 := rep.PerGrad[0], rep.PerGrad[1]

	// g1: generated 0.1 into the iteration, waited [0.1, 0.5) on an idle
	// lane (pure priority wait), transmitted 0.4, acked 0.1 later.
	checks := []struct {
		name      string
		got, want float64
	}{
		{"g1.Generation", g1.Generation, 0.1},
		{"g1.PriorityWait", g1.PriorityWait, 0.4},
		{"g1.BandwidthWait", g1.BandwidthWait, 0.0},
		{"g1.Transmit", g1.Transmit, 0.4},
		{"g1.Ack", g1.Ack, 0.1},
		{"g1.Completion", g1.Completion, 1.0},
		// g0: generated at 0.3, waited [0.3, 0.9); the lane carried g1's
		// bytes for [0.5, 0.9) of that window (bandwidth wait 0.4, priority
		// wait 0.2), transmitted 0.3, acked 0.3 later.
		{"g0.Generation", g0.Generation, 0.3},
		{"g0.PriorityWait", g0.PriorityWait, 0.2},
		{"g0.BandwidthWait", g0.BandwidthWait, 0.4},
		{"g0.Transmit", g0.Transmit, 0.3},
		{"g0.Ack", g0.Ack, 0.3},
		{"g0.Completion", g0.Completion, 1.5},
	}
	for _, c := range checks {
		if !near(c.got, c.want) {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
	for _, c := range rep.PerGrad {
		if !near(c.Sum(), c.Completion) {
			t.Errorf("g%d components sum %v != completion %v", c.Grad, c.Sum(), c.Completion)
		}
	}

	if len(rep.Top) != 1 {
		t.Fatalf("top entries = %d, want 1", len(rep.Top))
	}
	top := rep.Top[0]
	if top.Worker != 0 || top.Iter != 0 || len(top.Top) != 2 {
		t.Fatalf("top = %+v", top)
	}
	// g0's total wait 0.6 outranks g1's 0.4.
	if top.Top[0].Grad != 0 || top.Top[1].Grad != 1 {
		t.Errorf("blocking order = [g%d g%d], want [g0 g1]", top.Top[0].Grad, top.Top[1].Grad)
	}
}

func TestAnalyzeSkipsIncomplete(t *testing.T) {
	rec := probe.NewSpanRecorder()
	var obs probe.Observer = rec
	obs.BeginIteration(0, 0, 0.0)
	obs.Generated(0, 0, 0.1)
	obs.SendStart(0, 0, 0, 0, "g0", 10, []probe.Range{{Grad: 0, Bytes: 10, Last: true}}, 0.2)
	obs.SendComplete(0, 0, 0, 0.3)
	// No PullAcked: the lifecycle is incomplete and must be skipped, not
	// reported with a bogus zero ack time.
	rep := Analyze(rec, 0)
	if len(rep.PerGrad) != 0 || rep.Skipped != 1 {
		t.Errorf("per-grad = %d, skipped = %d; want 0, 1", len(rep.PerGrad), rep.Skipped)
	}
}

func TestMeanAndRender(t *testing.T) {
	rep := Analyze(script(), 0)
	m := rep.Mean(0, 0)
	if !near(m.Completion, 1.25) { // (1.0 + 1.5) / 2
		t.Errorf("mean completion = %v, want 1.25", m.Completion)
	}
	if !near(m.Sum(), m.Completion) {
		t.Errorf("mean components sum %v != mean completion %v", m.Sum(), m.Completion)
	}
	if z := rep.Mean(7, 0); z.Completion != 0 {
		t.Errorf("mean of unknown worker = %+v, want zero value", z)
	}
}
