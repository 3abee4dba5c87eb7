// Package metrics collects the signals the paper's evaluation reports:
// GPU utilization over time (Figs. 2, 9, 13), network throughput over time
// (Figs. 2, 10), per-gradient wait and transfer times (Fig. 11), and
// per-iteration training rates (Figs. 8, 12; Tables 2, 3). Everything is
// event-sourced from the simulator, so a single run can be summarized or
// binned into timelines after the fact.
package metrics

import (
	"fmt"
	"math"
	"slices"
)

// Interval is a closed-open busy span [Start, End).
type Interval struct {
	Start, End float64
}

// Duration returns the interval length.
func (iv Interval) Duration() float64 { return iv.End - iv.Start }

// IntervalSeries accumulates busy intervals of a resource (a GPU computing,
// a link transmitting) and answers utilization queries. Intervals must be
// opened and closed in time order; overlapping opens are a caller bug.
type IntervalSeries struct {
	intervals []Interval
	openAt    float64
	open      bool
}

// Start opens a busy interval at time t.
func (s *IntervalSeries) Start(t float64) {
	if s.open {
		panic(fmt.Sprintf("metrics: Start at %v while already busy since %v", t, s.openAt))
	}
	if n := len(s.intervals); n > 0 && t < s.intervals[n-1].End {
		panic(fmt.Sprintf("metrics: Start at %v before previous end %v", t, s.intervals[n-1].End))
	}
	s.open = true
	s.openAt = t
}

// Stop closes the busy interval at time t.
func (s *IntervalSeries) Stop(t float64) {
	if !s.open {
		panic("metrics: Stop while not busy")
	}
	if t < s.openAt {
		panic(fmt.Sprintf("metrics: Stop at %v before start %v", t, s.openAt))
	}
	s.open = false
	s.intervals = append(s.intervals, Interval{Start: s.openAt, End: t})
}

// Grow pre-allocates capacity for n further intervals, so a resource whose
// interval count is known up front (a simulated GPU's segments) records
// without reallocating.
func (s *IntervalSeries) Grow(n int) {
	if n > 0 {
		s.intervals = slices.Grow(s.intervals, n)
	}
}

// Busy reports whether an interval is currently open.
func (s *IntervalSeries) Busy() bool { return s.open }

// Intervals returns the closed intervals recorded so far.
func (s *IntervalSeries) Intervals() []Interval { return s.intervals }

// BusyBetween returns the total busy time within the window [a, b),
// counting a still-open interval as busy through b.
func (s *IntervalSeries) BusyBetween(a, b float64) float64 {
	if b <= a {
		return 0
	}
	var busy float64
	for _, iv := range s.intervals {
		busy += overlap(iv.Start, iv.End, a, b)
	}
	if s.open {
		busy += overlap(s.openAt, b, a, b)
	}
	return busy
}

// Utilization returns the fraction of [a, b) the resource was busy.
func (s *IntervalSeries) Utilization(a, b float64) float64 {
	if b <= a {
		return 0
	}
	return s.BusyBetween(a, b) / (b - a)
}

// Timeline bins [a, b) into width-sized buckets of utilization.
func (s *IntervalSeries) Timeline(a, b, width float64) []float64 {
	return binify(a, b, width, func(lo, hi float64) float64 {
		return s.BusyBetween(lo, hi) / (hi - lo)
	})
}

func overlap(s1, e1, s2, e2 float64) float64 {
	lo := math.Max(s1, s2)
	hi := math.Min(e1, e2)
	if hi <= lo {
		return 0
	}
	return hi - lo
}

func binify(a, b, width float64, f func(lo, hi float64) float64) []float64 {
	if width <= 0 {
		panic("metrics: non-positive bin width")
	}
	if b <= a {
		return nil
	}
	n := int(math.Ceil((b - a) / width))
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		lo := a + float64(i)*width
		hi := math.Min(lo+width, b)
		out[i] = f(lo, hi)
	}
	return out
}

// span is a byte transfer spread uniformly over [Start, End).
type span struct {
	start, end, bytes float64
}

// RateSeries accumulates byte transfers and answers throughput queries.
// Each transfer's bytes are attributed uniformly across its duration, so a
// binned timeline integrates back to the true byte total.
type RateSeries struct {
	spans []span
	total float64
}

// Add records `bytes` moved over [start, end). Instantaneous transfers
// (end == start) are attributed to the start bin.
func (r *RateSeries) Add(start, end, bytes float64) {
	if end < start {
		panic(fmt.Sprintf("metrics: RateSeries.Add end %v < start %v", end, start))
	}
	if bytes < 0 {
		panic("metrics: negative bytes")
	}
	r.spans = append(r.spans, span{start, end, bytes})
	r.total += bytes
}

// TotalBytes returns the sum of all recorded transfers.
func (r *RateSeries) TotalBytes() float64 { return r.total }

// BytesBetween returns bytes attributed to the window [a, b).
func (r *RateSeries) BytesBetween(a, b float64) float64 {
	if b <= a {
		return 0
	}
	var sum float64
	for _, sp := range r.spans {
		if sp.end == sp.start {
			if sp.start >= a && sp.start < b {
				sum += sp.bytes
			}
			continue
		}
		frac := overlap(sp.start, sp.end, a, b) / (sp.end - sp.start)
		sum += sp.bytes * frac
	}
	return sum
}

// Throughput returns average bytes/sec over [a, b).
func (r *RateSeries) Throughput(a, b float64) float64 {
	if b <= a {
		return 0
	}
	return r.BytesBetween(a, b) / (b - a)
}

// Timeline bins [a, b) into width-sized buckets of bytes/sec.
func (r *RateSeries) Timeline(a, b, width float64) []float64 {
	return binify(a, b, width, func(lo, hi float64) float64 {
		return r.BytesBetween(lo, hi) / (hi - lo)
	})
}

// IterationLog records iteration boundaries and converts them to training
// rates (samples/sec) given the per-iteration sample count.
type IterationLog struct {
	// Ends[i] is the completion time of iteration i; Starts[i] its start.
	Starts, Ends []float64
}

// Grow pre-allocates capacity for n further iterations, so a run whose
// length is known up front (Config.Iterations on either execution path)
// records without reallocating the sample slices.
func (l *IterationLog) Grow(n int) {
	if n <= 0 || cap(l.Starts)-len(l.Starts) >= n {
		return
	}
	starts := make([]float64, len(l.Starts), len(l.Starts)+n)
	copy(starts, l.Starts)
	l.Starts = starts
	ends := make([]float64, len(l.Ends), len(l.Ends)+n)
	copy(ends, l.Ends)
	l.Ends = ends
}

// Add records one iteration.
func (l *IterationLog) Add(start, end float64) {
	if end < start {
		panic("metrics: iteration ends before it starts")
	}
	l.Starts = append(l.Starts, start)
	l.Ends = append(l.Ends, end)
}

// Count returns the number of recorded iterations.
func (l *IterationLog) Count() int { return len(l.Ends) }

// Durations returns per-iteration durations.
func (l *IterationLog) Durations() []float64 {
	out := make([]float64, len(l.Ends))
	for i := range out {
		out[i] = l.Ends[i] - l.Starts[i]
	}
	return out
}

// Rate returns the steady-state training rate in samples/sec for the
// iterations [from, to), given samplesPerIter (global batch size).
func (l *IterationLog) Rate(from, to, samplesPerIter int) float64 {
	if from < 0 || to > len(l.Ends) || from >= to {
		panic(fmt.Sprintf("metrics: Rate window [%d,%d) out of range (have %d)", from, to, len(l.Ends)))
	}
	elapsed := l.Ends[to-1] - l.Starts[from]
	if elapsed <= 0 {
		return 0
	}
	return float64((to-from)*samplesPerIter) / elapsed
}

// SteadyRate returns the rate over all iterations after skipping warmup.
func (l *IterationLog) SteadyRate(warmup, samplesPerIter int) float64 {
	if warmup >= len(l.Ends) {
		panic(fmt.Sprintf("metrics: warmup %d >= iterations %d", warmup, len(l.Ends)))
	}
	return l.Rate(warmup, len(l.Ends), samplesPerIter)
}

// PerIterationRates returns samples/sec for each iteration individually —
// the series plotted in Fig. 3(b).
func (l *IterationLog) PerIterationRates(samplesPerIter int) []float64 {
	out := make([]float64, len(l.Ends))
	for i, d := range l.Durations() {
		if d > 0 {
			out[i] = float64(samplesPerIter) / d
		}
	}
	return out
}
