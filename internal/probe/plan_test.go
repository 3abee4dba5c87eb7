package probe

import (
	"net/http/httptest"
	"strings"
	"testing"
)

func TestSpanRecorderPlannedAndAlarms(t *testing.T) {
	rec := NewSpanRecorder()
	// Out of order on purpose: Planned() must sort by (Worker, Lane,
	// Start, Seq).
	rec.SendPlanned(1, 0, 0, 0, 0, 100, 5.0, 6.0)
	rec.SendPlanned(0, 1, 0, 0, 1, 200, 1.0, 2.0)
	rec.SendPlanned(0, 0, 1, 0, 0, 300, 2.0, 3.0)
	rec.SendPlanned(0, 0, 0, 0, 0, 400, 2.0, 2.5)

	ps := rec.Planned()
	if len(ps) != 4 {
		t.Fatalf("got %d planned spans, want 4", len(ps))
	}
	order := [][2]int{{0, 0}, {0, 0}, {0, 1}, {1, 0}}
	for i, want := range order {
		if ps[i].Worker != want[0] || ps[i].Lane != want[1] {
			t.Fatalf("planned[%d] = %+v, want worker/lane %v", i, ps[i], want)
		}
	}
	if ps[0].Seq != 0 || ps[1].Seq != 1 {
		t.Errorf("same-start planned spans not ordered by seq: %+v %+v", ps[0], ps[1])
	}
	if ps[3].Bytes != 100 || ps[3].Start != 5.0 || ps[3].End != 6.0 {
		t.Errorf("planned span fields lost: %+v", ps[3])
	}

	rec.DriftAlarm(2, 7, 0.9, 0.5, 3.25)
	rec.DriftAlarm(0, 8, 1.2, 0.5, 4.0)
	als := rec.DriftAlarms()
	if len(als) != 2 {
		t.Fatalf("got %d alarms, want 2", len(als))
	}
	// Emission order, not sorted.
	if als[0].Worker != 2 || als[0].Iter != 7 || als[0].Score != 0.9 ||
		als[0].Threshold != 0.5 || als[0].Time != 3.25 {
		t.Errorf("alarm 0 = %+v", als[0])
	}
	if als[1].Worker != 0 {
		t.Errorf("alarm 1 = %+v, want emission order preserved", als[1])
	}
}

func TestSpanRecorderSteps(t *testing.T) {
	rec := NewSpanRecorder()
	rec.SendStep(0, 0, 0, 1, 4, 50, 1.5, 2.0)
	rec.SendStep(0, 0, 0, 0, 4, 50, 1.0, 1.5)
	steps := rec.Steps()
	if len(steps) != 2 {
		t.Fatalf("got %d steps, want 2", len(steps))
	}
	if steps[0].Step != 0 || steps[1].Step != 1 {
		t.Errorf("steps not sorted by start: %+v", steps)
	}
	if steps[0].Steps != 4 || steps[0].Bytes != 50 || steps[0].End != 1.5 {
		t.Errorf("step fields lost: %+v", steps[0])
	}
}

func TestSpanRecorderHintAndRate(t *testing.T) {
	rec := NewSpanRecorder()
	rec.SetIterationHint(8)
	rec.ShardEnqueued(0, 0, 0, 0, 10, 1, 0.1) // timeline no-op, must not panic
	if rec.Rate(0) != nil {
		t.Error("Rate for a worker that never transmitted should be nil")
	}
	rec.BeginIteration(0, 0, 0)
	rec.SendStart(0, 0, 0, 0, 0, "m", 64, nil, 0.25)
	if rec.Rate(0) != nil {
		t.Error("a send still on the wire must not count as a transfer")
	}
	rec.SendComplete(0, 0, 0, true, 0.75)
	rec.EndIteration(0, 0, 1)
	rt := rec.Rate(0)
	if rt == nil {
		t.Fatal("Rate after a transfer should be non-nil")
	}
	if rt.TotalBytes() != 64 || rt.BytesBetween(0.25, 0.5) != 32 {
		t.Errorf("rate series = %v total, %v in the first half; want 64, 32", rt.TotalBytes(), rt.BytesBetween(0.25, 0.5))
	}
}

// planCounter implements PlanObserver and AlarmObserver on top of the
// base Observer; countObs implements neither. Multi must forward the
// extension events only to the entries that support them.
type planCounter struct {
	countObs
	planned, alarms, steps int
}

func (p *planCounter) SendPlanned(worker, lane, seq, iter, prio int, bytes float64, start, end float64) {
	p.planned++
}
func (p *planCounter) DriftAlarm(worker, iter int, score, threshold, now float64) { p.alarms++ }
func (p *planCounter) SendStep(worker, lane, seq, step, steps int, bytes float64, start, end float64) {
	p.steps++
}

func TestMultiForwardsExtensionInterfaces(t *testing.T) {
	plain := &countObs{}
	ext := &planCounter{}
	obs := NewMulti(plain, ext)

	po, ok := obs.(PlanObserver)
	if !ok {
		t.Fatal("Multi should implement PlanObserver")
	}
	po.SendPlanned(0, 0, 0, 0, 0, 10, 0, 1)
	ao, ok := obs.(AlarmObserver)
	if !ok {
		t.Fatal("Multi should implement AlarmObserver")
	}
	ao.DriftAlarm(0, 0, 1.0, 0.5, 1)
	so, ok := obs.(StepObserver)
	if !ok {
		t.Fatal("Multi should implement StepObserver")
	}
	so.SendStep(0, 0, 0, 0, 2, 10, 0, 1)

	if ext.planned != 1 || ext.alarms != 1 || ext.steps != 1 {
		t.Errorf("extension observer got planned=%d alarms=%d steps=%d, want 1/1/1",
			ext.planned, ext.alarms, ext.steps)
	}
	// The plain observer saw none of the base events — extension events
	// must not leak into the base interface.
	if plain.start != 0 || plain.complete != 0 {
		t.Errorf("plain observer saw base events: %+v", plain)
	}
}

func TestBucketUpper(t *testing.T) {
	cases := map[int]float64{-1: 1, 0: 1, 1: 2, 3: 8}
	for k, want := range cases {
		if got := BucketUpper(k); got != want {
			t.Errorf("BucketUpper(%d) = %v, want %v", k, got, want)
		}
	}
}

func TestNilMetricsHandler(t *testing.T) {
	var m *Metrics
	rr := httptest.NewRecorder()
	m.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	if rr.Code != 200 {
		t.Fatalf("nil-registry handler status %d", rr.Code)
	}
	if !strings.Contains(rr.Body.String(), "{") {
		t.Errorf("nil-registry handler body: %q", rr.Body.String())
	}
}
