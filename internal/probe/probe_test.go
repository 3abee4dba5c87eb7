package probe

import (
	"bytes"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// countObs counts events per method (single-threaded test helper).
type countObs struct {
	begin, end, gen, start, complete, acked, faults int
}

func (c *countObs) BeginIteration(worker, iter int, now float64) { c.begin++ }
func (c *countObs) EndIteration(worker, iter int, now float64)   { c.end++ }
func (c *countObs) Generated(worker, grad int, now float64)      { c.gen++ }
func (c *countObs) SendStart(worker, lane, seq, iter int, label string, bytes float64, ranges []Range, now float64) {
	c.start++
}
func (c *countObs) SendComplete(worker, lane, iter int, now float64)   { c.complete++ }
func (c *countObs) PullAcked(worker, grad, iter int, now float64)      { c.acked++ }
func (c *countObs) FaultInjected(worker int, kind string, now float64) { c.faults++ }

func TestNewMulti(t *testing.T) {
	if obs := NewMulti(); obs != nil {
		t.Errorf("NewMulti() = %v, want nil", obs)
	}
	if obs := NewMulti(nil, nil); obs != nil {
		t.Errorf("NewMulti(nil, nil) = %v, want nil", obs)
	}
	a := &countObs{}
	if obs := NewMulti(nil, a, nil); obs != Observer(a) {
		t.Errorf("NewMulti with one non-nil should return it directly, got %T", obs)
	}
	b := &countObs{}
	obs := NewMulti(a, b)
	obs.BeginIteration(0, 0, 0)
	obs.Generated(0, 1, 0.5)
	obs.SendStart(0, 0, 0, 0, "m", 10, nil, 0.6)
	obs.SendComplete(0, 0, 0, 0.7)
	obs.PullAcked(0, 1, 0, 0.8)
	obs.FaultInjected(0, "drop", 0.9)
	obs.EndIteration(0, 0, 1)
	for i, c := range []*countObs{a, b} {
		got := [7]int{c.begin, c.end, c.gen, c.start, c.complete, c.acked, c.faults}
		if got != [7]int{1, 1, 1, 1, 1, 1, 1} {
			t.Errorf("observer %d: event counts %v, want all ones", i, got)
		}
	}
}

func TestSpanRecorderScript(t *testing.T) {
	rec := NewSpanRecorder()
	var obs Observer = rec

	obs.BeginIteration(0, 0, 0.0)
	obs.Generated(0, 1, 1.0)
	obs.Generated(0, 0, 1.5)
	ranges := []Range{{Grad: 1, Off: 0, Bytes: 100, Last: true}}
	obs.SendStart(0, 0, 0, 0, "m0", 100, ranges, 2.0)
	ranges[0].Grad = 99 // recorder must have copied the borrowed slice
	obs.SendComplete(0, 0, 0, 3.0)
	obs.SendStart(0, 0, 1, 0, "m1", 50, []Range{{Grad: 0, Bytes: 50, Last: true}}, 3.0)
	obs.SendComplete(0, 0, 0, 3.5)
	obs.PullAcked(0, 1, 0, 4.0)
	obs.PullAcked(0, 0, 0, 4.5)
	obs.FaultInjected(0, "stall", 3.3)
	obs.EndIteration(0, 0, 5.0)

	spans := rec.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	if spans[0].Label != "m0" || spans[0].Start != 2.0 || spans[0].End != 3.0 || spans[0].Bytes != 100 {
		t.Errorf("span 0 = %+v", spans[0])
	}
	if spans[1].Label != "m1" || spans[1].Start != 3.0 || spans[1].End != 3.5 {
		t.Errorf("span 1 = %+v", spans[1])
	}

	grads := rec.Grads()
	if len(grads) != 2 {
		t.Fatalf("got %d gradient lifecycles, want 2 (borrowed ranges not copied?)", len(grads))
	}
	g0, g1 := grads[0], grads[1] // sorted by grad id
	if g1.Grad != 1 || g1.Generated != 1.0 || g1.Start != 2.0 || g1.End != 3.0 || g1.Acked != 4.0 {
		t.Errorf("gradient 1 lifecycle = %+v", g1)
	}
	if g0.Grad != 0 || g0.Generated != 1.5 || g0.Start != 3.0 || g0.End != 3.5 || !g0.HasEnd {
		t.Errorf("gradient 0 lifecycle = %+v", g0)
	}
	if !g1.HasStart || !g1.HasEnd || !g1.HasAcked || g1.Lane != 0 {
		t.Errorf("gradient 1 flags = %+v", g1)
	}

	if busy := rec.LaneBusy(0, 0).BusyBetween(0, 5); busy != 1.5 {
		t.Errorf("lane busy = %v, want 1.5", busy)
	}
	if start, ok := rec.IterStart(0, 0); !ok || start != 0 {
		t.Errorf("IterStart = %v, %v", start, ok)
	}
	if n := rec.Iterations(0).Count(); n != 1 {
		t.Errorf("iteration count = %d, want 1", n)
	}
	if rt := rec.Rate(0); rt.TotalBytes() != 150 || rt.BytesBetween(2.5, 3.25) != 75 {
		t.Errorf("rate series: total %v, [2.5, 3.25) %v; want 150, 75", rt.TotalBytes(), rt.BytesBetween(2.5, 3.25))
	}
	if fs := rec.Faults(); len(fs) != 1 || fs[0].Kind != "stall" {
		t.Errorf("faults = %+v", fs)
	}
	if ws := rec.Workers(); len(ws) != 1 || ws[0] != 0 {
		t.Errorf("workers = %v", ws)
	}
	if ls := rec.Lanes(0); len(ls) != 1 || ls[0] != 0 {
		t.Errorf("lanes = %v", ls)
	}
}

// Rate and Grads are views: derived from the spans and gradient lifecycles
// on every call — Rate per worker, in time order across lanes — without
// touching the recorder.
func TestRateAndTransfersAreViews(t *testing.T) {
	rec := NewSpanRecorder()
	for w := 0; w < 2; w++ {
		rec.BeginIteration(w, 0, 0)
		rec.Generated(w, 0, 0.1)
		rec.Generated(w, 1, 0.1)
		// Two lanes in flight at once; lane 1 finishes first.
		rec.SendStart(w, 0, 0, 0, "a", 80, []Range{{Grad: 0, Bytes: 80, Last: true}}, 0.2)
		rec.SendStart(w, 1, 1, 0, "b", 20, []Range{{Grad: 1, Bytes: 20, Last: true}}, 0.25)
		rec.SendComplete(w, 1, 0, 0.3)
		rec.SendComplete(w, 0, 0, 0.6)
		rec.EndIteration(w, 0, 1)
	}
	spans, grads := rec.Spans(), rec.Grads()

	r1, r2 := rec.Rate(1), rec.Rate(1)
	if r1 == r2 || !reflect.DeepEqual(r1, r2) {
		t.Errorf("Rate should return equal, independent series: %+v vs %+v", r1, r2)
	}
	if r1.TotalBytes() != 100 {
		t.Errorf("worker 1 moved %v bytes, want 100 (its own spans only)", r1.TotalBytes())
	}
	want := []GradTimes{
		{Worker: 1, Grad: 0, Generated: 0.1, Start: 0.2, End: 0.6, HasStart: true, HasEnd: true},
		{Worker: 1, Grad: 1, Generated: 0.1, Start: 0.25, End: 0.3, HasStart: true, HasEnd: true, Lane: 1},
	}
	if !reflect.DeepEqual(grads[2:], want) {
		t.Errorf("worker 1 gradient rows = %+v, want %+v", grads[2:], want)
	}
	rec.Grads()[2].End = 99 // a caller's edit must not reach the recorder
	if !reflect.DeepEqual(rec.Spans(), spans) || !reflect.DeepEqual(rec.Grads(), grads) {
		t.Error("reading or editing the views mutated the recorder's primary records")
	}
}

func TestMetricsRegistry(t *testing.T) {
	m := NewMetrics()
	m.Counter("a").Inc()
	m.Counter("a").Add(2)
	m.Histogram("h").Observe(3)
	m.Histogram("h").Observe(5)
	if got := m.Counter("a").Value(); got != 3 {
		t.Errorf("counter = %d, want 3", got)
	}
	h := m.Histogram("h")
	if h.Count() != 2 || h.Sum() != 8 || h.Max() != 5 {
		t.Errorf("histogram count=%d sum=%v max=%v", h.Count(), h.Sum(), h.Max())
	}
	counters, hists := m.Snapshot()
	if counters["a"] != 3 {
		t.Errorf("snapshot counters = %v", counters)
	}
	// 3 lands in bucket (2,4], 5 in (4,8].
	if hists["h"][2] != 1 || hists["h"][3] != 1 {
		t.Errorf("snapshot buckets = %v", hists["h"])
	}

	// Nil receivers must be usable.
	var nilM *Metrics
	nilM.Counter("x").Inc()
	nilM.Histogram("y").Observe(1)
	if nilM.Observer() != nil {
		t.Error("nil registry Observer() should be nil")
	}
	if err := nilM.WriteJSON(&bytes.Buffer{}); err != nil {
		t.Errorf("nil WriteJSON: %v", err)
	}
}

func TestMetricsJSONDeterministic(t *testing.T) {
	build := func() *Metrics {
		m := NewMetrics()
		m.Counter("zz").Add(7)
		m.Counter("aa").Add(1)
		m.Histogram("depth").Observe(2)
		m.Histogram("depth").Observe(9)
		return m
	}
	var b1, b2 bytes.Buffer
	if err := build().WriteJSON(&b1); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteJSON(&b2); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Errorf("dumps differ:\n%s\n%s", b1.String(), b2.String())
	}
	for _, want := range []string{`"aa": 1`, `"zz": 7`, `"le_2": 1`, `"le_16": 1`} {
		if !strings.Contains(b1.String(), want) {
			t.Errorf("dump missing %q:\n%s", want, b1.String())
		}
	}
}

func TestMetricsHandler(t *testing.T) {
	m := NewMetrics()
	m.Counter("served").Inc()
	rr := httptest.NewRecorder()
	m.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	if rr.Code != 200 {
		t.Fatalf("status %d", rr.Code)
	}
	if ct := rr.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type %q", ct)
	}
	if !strings.Contains(rr.Body.String(), `"served": 1`) {
		t.Errorf("body: %s", rr.Body.String())
	}
}

func TestMetricsObserver(t *testing.T) {
	m := NewMetrics()
	obs := m.Observer()
	obs.BeginIteration(0, 0, 0)
	obs.Generated(0, 0, 0.1)
	obs.SendStart(0, 0, 0, 0, "m", 64, nil, 0.2)
	obs.SendComplete(0, 0, 0, 0.3)
	obs.PullAcked(0, 0, 0, 0.4)
	obs.FaultInjected(0, "drop", 0.5)
	obs.EndIteration(0, 0, 1)
	want := map[string]int64{
		"probe_iterations":       1,
		"probe_generated":        1,
		"probe_sends":            1,
		"probe_pull_acked":       1,
		"probe_fault_injections": 1,
		"probe_fault_drop":       1,
	}
	for name, v := range want {
		if got := m.Counter(name).Value(); got != v {
			t.Errorf("%s = %d, want %d", name, got, v)
		}
	}
	if got := m.Histogram("probe_send_bytes").Sum(); got != 64 {
		t.Errorf("probe_send_bytes sum = %v, want 64", got)
	}
}
