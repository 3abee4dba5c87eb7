package probe

import (
	"sort"
	"sync"

	"prophet/internal/metrics"
)

// SendSpan is one completed wire transfer: a per-lane sub-message from
// SendStart to SendComplete. The slice of these is what prophet-run's trace
// renders as complete ("X") events.
type SendSpan struct {
	Worker, Lane, Seq, Iter int
	Label                   string
	Bytes                   float64
	Start, End              float64
}

// GradTimes is the full lifecycle of one gradient's push in one iteration:
// released by the aggregation layer (Generated), first byte on the wire
// (Start), last byte off the wire (End), aggregated value back on the
// worker (Acked). attrib decomposes these into the Fig. 11 components.
type GradTimes struct {
	Worker, Iter, Grad           int
	Generated, Start, End, Acked float64
	HasStart, HasEnd, HasAcked   bool
	// Lane is the lane that carried the gradient's first byte (valid when
	// HasStart) — the lane whose busy timeline explains its bandwidth wait.
	Lane int
}

// FaultEvent records one fault-injector firing.
type FaultEvent struct {
	Worker int
	Kind   string
	Time   float64
}

// openSend tracks the in-flight sub-message of one (worker, lane).
type openSend struct {
	spanIdx int
	start   float64
	bytes   float64
	iter    int
	ranges  []Range // copied: the driver's slice is borrowed
}

type laneKey struct{ worker, lane int }

type gradKey struct{ worker, iter, grad int }

// SpanRecorder is an Observer that keeps the primary records of a run —
// send spans, gradient lifecycles, iteration starts and
// logs, faults — as the probe stream delivers them. It is the one place
// any executor's throughput timeline (Rate, derived from the spans on
// read) and per-gradient lifecycle (Grads, which attrib decomposes into
// Fig. 11's wait and transfer) come from. The per-lane busy series is the
// single derived structure maintained eagerly, because attrib.Analyze
// looks it up once per gradient. The recorder is
// mutex-protected and safe for the live path's concurrent emitters;
// per-(worker, lane) event order is the only ordering it relies on (lanes
// are serial).
type SpanRecorder struct {
	mu sync.Mutex

	curIter   map[int]int
	iterStart map[[2]int]float64
	iters     map[int]*metrics.IterationLog

	lanes    map[laneKey]*metrics.IntervalSeries
	inflight map[laneKey]*openSend

	spans []SendSpan
	grads map[gradKey]*GradTimes

	faults []FaultEvent
	rFree  [][]Range

	iterHint int
}

// NewSpanRecorder returns an empty recorder.
func NewSpanRecorder() *SpanRecorder {
	return &SpanRecorder{
		curIter:   make(map[int]int),
		iterStart: make(map[[2]int]float64),
		iters:     make(map[int]*metrics.IterationLog),
		lanes:     make(map[laneKey]*metrics.IntervalSeries),
		inflight:  make(map[laneKey]*openSend),
		grads:     make(map[gradKey]*GradTimes),
	}
}

func (r *SpanRecorder) grad(k gradKey) *GradTimes {
	g, ok := r.grads[k]
	if !ok {
		g = &GradTimes{Worker: k.worker, Iter: k.iter, Grad: k.grad}
		r.grads[k] = g
	}
	return g
}

// BeginIteration implements Observer.
func (r *SpanRecorder) BeginIteration(worker, iter int, now float64) {
	r.mu.Lock()
	r.curIter[worker] = iter
	r.iterStart[[2]int{worker, iter}] = now
	r.mu.Unlock()
}

// EndIteration implements Observer.
func (r *SpanRecorder) EndIteration(worker, iter int, now float64) {
	r.mu.Lock()
	start, ok := r.iterStart[[2]int{worker, iter}]
	if !ok {
		start = now
	}
	log, ok := r.iters[worker]
	if !ok {
		log = &metrics.IterationLog{}
		log.Grow(r.iterHint)
		r.iters[worker] = log
	}
	log.Add(start, now)
	r.mu.Unlock()
}

// SetIterationHint tells the recorder how many iterations each worker will
// run, so per-worker iteration logs allocate once instead of growing
// append-by-append — at 1000-worker scale the doubling garbage is real.
// Zero (the default) keeps plain append growth.
func (r *SpanRecorder) SetIterationHint(n int) {
	r.mu.Lock()
	r.iterHint = n
	r.mu.Unlock()
}

// Generated implements Observer.
func (r *SpanRecorder) Generated(worker, grad int, now float64) {
	r.mu.Lock()
	g := r.grad(gradKey{worker, r.curIter[worker], grad})
	g.Generated = now
	r.mu.Unlock()
}

// SendStart implements Observer.
func (r *SpanRecorder) SendStart(worker, lane, seq, iter int, label string, bytes float64, ranges []Range, now float64) {
	r.mu.Lock()
	lk := laneKey{worker, lane}
	s, ok := r.lanes[lk]
	if !ok {
		s = &metrics.IntervalSeries{}
		r.lanes[lk] = s
	}
	s.Start(now)
	rc := r.newRanges(len(ranges))
	rc = append(rc, ranges...)
	r.inflight[lk] = &openSend{
		spanIdx: len(r.spans),
		start:   now,
		bytes:   bytes,
		iter:    iter,
		ranges:  rc,
	}
	r.spans = append(r.spans, SendSpan{
		Worker: worker, Lane: lane, Seq: seq, Iter: iter,
		Label: label, Bytes: bytes, Start: now, End: now,
	})
	for _, rg := range ranges {
		g := r.grad(gradKey{worker, iter, rg.Grad})
		if !g.HasStart {
			g.HasStart = true
			g.Start = now
			g.Lane = lane
		}
	}
	r.mu.Unlock()
}

// SendComplete implements Observer.
func (r *SpanRecorder) SendComplete(worker, lane, iter int, now float64) {
	r.mu.Lock()
	lk := laneKey{worker, lane}
	o, ok := r.inflight[lk]
	if !ok {
		r.mu.Unlock()
		return
	}
	delete(r.inflight, lk)
	r.lanes[lk].Stop(now)
	r.spans[o.spanIdx].End = now
	for _, rg := range o.ranges {
		if !rg.Last {
			continue
		}
		g := r.grad(gradKey{worker, o.iter, rg.Grad})
		g.HasEnd = true
		g.End = now
	}
	r.rFree = append(r.rFree, o.ranges[:0])
	r.mu.Unlock()
}

// PullAcked implements Observer.
func (r *SpanRecorder) PullAcked(worker, grad, iter int, now float64) {
	r.mu.Lock()
	g := r.grad(gradKey{worker, iter, grad})
	g.HasAcked = true
	g.Acked = now
	r.mu.Unlock()
}

// FaultInjected implements Observer.
func (r *SpanRecorder) FaultInjected(worker int, kind string, now float64) {
	r.mu.Lock()
	r.faults = append(r.faults, FaultEvent{Worker: worker, Kind: kind, Time: now})
	r.mu.Unlock()
}

func (r *SpanRecorder) newRanges(n int) []Range {
	if l := len(r.rFree); l > 0 {
		buf := r.rFree[l-1]
		r.rFree = r.rFree[:l-1]
		return buf
	}
	return make([]Range, 0, n)
}

// Spans returns a copy of the recorded send spans, sorted by (Worker,
// Lane, Start, Seq) for deterministic rendering.
func (r *SpanRecorder) Spans() []SendSpan {
	r.mu.Lock()
	out := make([]SendSpan, len(r.spans))
	copy(out, r.spans)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Worker != b.Worker {
			return a.Worker < b.Worker
		}
		if a.Lane != b.Lane {
			return a.Lane < b.Lane
		}
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		return a.Seq < b.Seq
	})
	return out
}

// Grads returns a copy of every gradient lifecycle, sorted by (Worker,
// Iter, Grad).
func (r *SpanRecorder) Grads() []GradTimes {
	r.mu.Lock()
	out := make([]GradTimes, 0, len(r.grads))
	for _, g := range r.grads {
		out = append(out, *g)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Worker != b.Worker {
			return a.Worker < b.Worker
		}
		if a.Iter != b.Iter {
			return a.Iter < b.Iter
		}
		return a.Grad < b.Grad
	})
	return out
}

// IterStart returns the recorded start time of (worker, iter).
func (r *SpanRecorder) IterStart(worker, iter int) (float64, bool) {
	r.mu.Lock()
	t, ok := r.iterStart[[2]int{worker, iter}]
	r.mu.Unlock()
	return t, ok
}

// Iterations returns worker's iteration log (nil if none recorded).
func (r *SpanRecorder) Iterations(worker int) *metrics.IterationLog {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.iters[worker]
}

// LaneBusy returns the busy IntervalSeries of (worker, lane), nil if the
// lane never transmitted.
func (r *SpanRecorder) LaneBusy(worker, lane int) *metrics.IntervalSeries {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lanes[laneKey{worker, lane}]
}

// Rate returns worker's uplink payload series (the Fig. 2/10 input): one
// row per completed send span, across the worker's lanes in time order
// (End, then Lane). It is a view derived from the recorded spans on every
// call; nil if the worker never completed a transfer.
func (r *SpanRecorder) Rate(worker int) *metrics.RateSeries {
	var done []SendSpan
	r.mu.Lock()
	for i, s := range r.spans {
		if s.Worker != worker {
			continue
		}
		if o := r.inflight[laneKey{worker, s.Lane}]; o != nil && o.spanIdx == i {
			continue // still on the wire: End is a placeholder
		}
		done = append(done, s)
	}
	r.mu.Unlock()
	if len(done) == 0 {
		return nil
	}
	sort.SliceStable(done, func(i, j int) bool {
		if done[i].End != done[j].End {
			return done[i].End < done[j].End
		}
		return done[i].Lane < done[j].Lane
	})
	rate := &metrics.RateSeries{}
	for _, s := range done {
		rate.Add(s.Start, s.End, s.Bytes)
	}
	return rate
}

// Faults returns the recorded fault events.
func (r *SpanRecorder) Faults() []FaultEvent {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]FaultEvent, len(r.faults))
	copy(out, r.faults)
	return out
}

// Workers returns the sorted worker ids that recorded any iteration.
func (r *SpanRecorder) Workers() []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]int, 0, len(r.iters))
	for w := range r.iters {
		out = append(out, w)
	}
	sort.Ints(out)
	return out
}

// Lanes returns the sorted lane ids that transmitted for worker.
func (r *SpanRecorder) Lanes(worker int) []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []int
	for k := range r.lanes {
		if k.worker == worker {
			out = append(out, k.lane)
		}
	}
	sort.Ints(out)
	return out
}
