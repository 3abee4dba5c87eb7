package probe

import (
	"net/http/httptest"
	"strings"
	"testing"
)

func TestSpanRecorderHintAndRate(t *testing.T) {
	rec := NewSpanRecorder()
	rec.SetIterationHint(8)
	if rec.Rate(0) != nil {
		t.Error("Rate for a worker that never transmitted should be nil")
	}
	rec.BeginIteration(0, 0, 0)
	rec.SendStart(0, 0, 0, 0, "m", 64, nil, 0.25)
	if rec.Rate(0) != nil {
		t.Error("a send still on the wire must not count as a transfer")
	}
	rec.SendComplete(0, 0, 0, 0.75)
	rec.EndIteration(0, 0, 1)
	rt := rec.Rate(0)
	if rt == nil {
		t.Fatal("Rate after a transfer should be non-nil")
	}
	if rt.TotalBytes() != 64 || rt.BytesBetween(0.25, 0.5) != 32 {
		t.Errorf("rate series = %v total, %v in the first half; want 64, 32", rt.TotalBytes(), rt.BytesBetween(0.25, 0.5))
	}
}

// planCounter implements PlanObserver on top of the base Observer; countObs
// does not. Multi must forward plans only to the entries that take them.
type planCounter struct {
	countObs
	planned int
}

func (p *planCounter) SendPlanned(worker, lane, seq, iter int, bytes float64, start, end float64) {
	p.planned++
}

// TestMultiForwardsExtensionInterfaces pins the rule that switches
// prediction on: a fan-out is a PlanObserver exactly when one of its
// entries is, at any nesting depth, and then forwards each plan once.
func TestMultiForwardsExtensionInterfaces(t *testing.T) {
	if _, ok := NewMulti(&countObs{}, &countObs{}).(PlanObserver); ok {
		t.Fatal("a Multi with no plan listener must not be a PlanObserver")
	}

	plain := &countObs{}
	ext := &planCounter{}
	obs := NewMulti(plain, ext)
	po, ok := obs.(PlanObserver)
	if !ok {
		t.Fatal("a Multi with a plan listener should be a PlanObserver")
	}
	po.SendPlanned(0, 0, 0, 0, 10, 0, 1)
	if ext.planned != 1 {
		t.Errorf("plan observer got planned=%d, want 1", ext.planned)
	}
	// The plain observer saw none of the base events — plans must not leak
	// into the base interface.
	if plain.start != 0 || plain.complete != 0 {
		t.Errorf("plain observer saw base events: %+v", plain)
	}

	nested, ok := NewMulti(obs, &countObs{}).(PlanObserver)
	if !ok {
		t.Fatal("a Multi nesting a plan-forwarding Multi should be a PlanObserver")
	}
	nested.SendPlanned(0, 0, 1, 0, 10, 1, 2)
	if ext.planned != 2 {
		t.Errorf("nested forward: planned=%d, want 2", ext.planned)
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
