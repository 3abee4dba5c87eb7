package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestIntervalSeriesBasicUtilization(t *testing.T) {
	var s IntervalSeries
	s.Start(0)
	s.Stop(1)
	s.Start(2)
	s.Stop(3)
	if got := s.Utilization(0, 4); got != 0.5 {
		t.Fatalf("utilization = %v, want 0.5", got)
	}
}

func TestIntervalSeriesPartialWindow(t *testing.T) {
	var s IntervalSeries
	s.Start(0)
	s.Stop(10)
	if got := s.BusyBetween(4, 6); got != 2 {
		t.Fatalf("BusyBetween = %v, want 2", got)
	}
}

func TestIntervalSeriesOpenIntervalCounts(t *testing.T) {
	var s IntervalSeries
	s.Start(1)
	if got := s.BusyBetween(0, 3); got != 2 {
		t.Fatalf("open interval busy = %v, want 2", got)
	}
	if !s.Busy() {
		t.Fatal("should report busy")
	}
}

func TestIntervalSeriesDoubleStartPanics(t *testing.T) {
	var s IntervalSeries
	s.Start(0)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	s.Start(1)
}

func TestIntervalSeriesStopWithoutStartPanics(t *testing.T) {
	var s IntervalSeries
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	s.Stop(1)
}

func TestIntervalSeriesBackwardsStartPanics(t *testing.T) {
	var s IntervalSeries
	s.Start(0)
	s.Stop(5)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	s.Start(3)
}

func TestIntervalSeriesTimeline(t *testing.T) {
	var s IntervalSeries
	s.Start(0)
	s.Stop(1.5)
	tl := s.Timeline(0, 3, 1)
	want := []float64{1, 0.5, 0}
	if len(tl) != 3 {
		t.Fatalf("timeline length %d, want 3", len(tl))
	}
	for i := range want {
		if math.Abs(tl[i]-want[i]) > 1e-12 {
			t.Fatalf("timeline = %v, want %v", tl, want)
		}
	}
}

func TestIntervalSeriesTimelineRaggedEnd(t *testing.T) {
	var s IntervalSeries
	s.Start(0)
	s.Stop(2.5)
	tl := s.Timeline(0, 2.5, 1) // last bin is half width
	if len(tl) != 3 {
		t.Fatalf("timeline length %d, want 3", len(tl))
	}
	if tl[2] != 1 {
		t.Fatalf("ragged bin utilization = %v, want 1", tl[2])
	}
}

func TestIntervalSeriesEmptyWindow(t *testing.T) {
	var s IntervalSeries
	if s.Utilization(5, 5) != 0 {
		t.Fatal("zero-width window should be 0")
	}
}

func TestRateSeriesTotalAndWindow(t *testing.T) {
	var r RateSeries
	r.Add(0, 2, 100) // 50 B/s over [0,2)
	r.Add(1, 3, 100) // 50 B/s over [1,3)
	if r.TotalBytes() != 200 {
		t.Fatalf("total = %v", r.TotalBytes())
	}
	if got := r.BytesBetween(1, 2); math.Abs(got-100) > 1e-9 {
		t.Fatalf("window bytes = %v, want 100", got)
	}
	if got := r.Throughput(0, 4); math.Abs(got-50) > 1e-9 {
		t.Fatalf("throughput = %v, want 50", got)
	}
}

func TestRateSeriesInstantaneous(t *testing.T) {
	var r RateSeries
	r.Add(1, 1, 42)
	if got := r.BytesBetween(0, 2); got != 42 {
		t.Fatalf("instant bytes = %v, want 42", got)
	}
	if got := r.BytesBetween(1.5, 2); got != 0 {
		t.Fatalf("bytes outside instant = %v", got)
	}
}

func TestRateSeriesTimelineConserved(t *testing.T) {
	var r RateSeries
	r.Add(0.3, 4.7, 1234)
	tl := r.Timeline(0, 5, 0.5)
	var sum float64
	for _, v := range tl {
		sum += v * 0.5
	}
	if math.Abs(sum-1234) > 1e-6 {
		t.Fatalf("binned bytes = %v, want 1234", sum)
	}
}

func TestRateSeriesBadAddPanics(t *testing.T) {
	var r RateSeries
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	r.Add(2, 1, 10)
}

func TestIterationLogRates(t *testing.T) {
	var l IterationLog
	l.Add(0, 2)
	l.Add(2, 4)
	l.Add(4, 6)
	// 3 iterations x 32 samples over 6 s = 16 samples/s.
	if got := l.SteadyRate(0, 32); got != 16 {
		t.Fatalf("rate = %v, want 16", got)
	}
	// Skip first iteration: 2 x 32 over 4 s = 16.
	if got := l.SteadyRate(1, 32); got != 16 {
		t.Fatalf("rate = %v, want 16", got)
	}
}

func TestIterationLogPerIterationRates(t *testing.T) {
	var l IterationLog
	l.Add(0, 1)
	l.Add(1, 3)
	rates := l.PerIterationRates(10)
	if rates[0] != 10 || rates[1] != 5 {
		t.Fatalf("rates = %v", rates)
	}
}

func TestIterationLogBadWindowPanics(t *testing.T) {
	var l IterationLog
	l.Add(0, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	l.Rate(0, 5, 10)
}

func TestIterationLogWarmupTooLargePanics(t *testing.T) {
	var l IterationLog
	l.Add(0, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	l.SteadyRate(1, 10)
}

// Property: utilization is always within [0, 1].
func TestPropertyUtilizationBounded(t *testing.T) {
	f := func(durs []uint8) bool {
		var s IntervalSeries
		now := 0.0
		for _, d := range durs {
			busy := float64(d%10) / 10
			idle := float64(d%7) / 10
			s.Start(now)
			s.Stop(now + busy)
			now += busy + idle
		}
		if now == 0 {
			return true
		}
		u := s.Utilization(0, now)
		return u >= -1e-9 && u <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: RateSeries window decomposition is additive.
func TestPropertyRateSeriesAdditive(t *testing.T) {
	f := func(spans []uint16) bool {
		var r RateSeries
		for _, raw := range spans {
			start := float64(raw % 100)
			dur := float64(raw%13) + 1
			r.Add(start, start+dur, float64(raw%997))
		}
		whole := r.BytesBetween(0, 200)
		split := r.BytesBetween(0, 57.3) + r.BytesBetween(57.3, 200)
		return math.Abs(whole-split) < 1e-6*(1+whole)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntervalSeriesGrowPreservesAndPresizes(t *testing.T) {
	var s IntervalSeries
	s.Start(0)
	s.Stop(1)
	s.Grow(10)
	if iv := s.Intervals(); len(iv) != 1 || iv[0] != (Interval{0, 1}) {
		t.Fatalf("Grow mangled contents: %+v", iv)
	}
	if c := cap(s.Intervals()); c < 11 {
		t.Fatalf("Grow(10) left capacity %d", c)
	}
	s.Grow(0)
	s.Grow(-5) // no-ops
	if n := len(s.Intervals()); n != 1 {
		t.Fatalf("no-op Grow changed count to %d", n)
	}
	first := &s.Intervals()[0]
	for i := 0; i < 10; i++ {
		s.Start(float64(1 + i))
		s.Stop(float64(1 + i))
	}
	if &s.Intervals()[0] != first {
		t.Fatal("10 intervals into a Grow(10) series reallocated it")
	}
}

func TestIterationLogGrowPreservesAndPresizes(t *testing.T) {
	var l IterationLog
	l.Add(0, 1)
	l.Grow(10)
	if l.Count() != 1 || l.Starts[0] != 0 || l.Ends[0] != 1 {
		t.Fatalf("Grow mangled contents: %+v", l)
	}
	if cap(l.Starts) < 11 || cap(l.Ends) < 11 {
		t.Fatalf("Grow(10) left capacity %d/%d", cap(l.Starts), cap(l.Ends))
	}
	l.Grow(0)
	l.Grow(-5) // no-ops
	if l.Count() != 1 {
		t.Fatalf("no-op Grow changed count to %d", l.Count())
	}
}

// A grown log records its full run without touching the allocator — the
// property the live path's per-worker logs rely on at 1000-worker scale.
func TestIterationLogGrowNoAllocAppends(t *testing.T) {
	const iters = 100
	l := &IterationLog{}
	l.Grow(iters)
	allocs := testing.AllocsPerRun(10, func() {
		l.Starts = l.Starts[:0]
		l.Ends = l.Ends[:0]
		for i := 0; i < iters; i++ {
			l.Add(float64(i), float64(i)+0.5)
		}
	})
	if allocs != 0 {
		t.Fatalf("grown IterationLog allocated %.1f times per run, want 0", allocs)
	}
}
