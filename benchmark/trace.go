package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"prophet/internal/sim"
)

// span is one interval recorded around calls into a layer. Start and End
// are seconds since the traced pass began. Parent is the id of the span
// that caused this one (-1 for the root). Calls is the number of layer
// calls the interval covers: nanosecond-scale functions are timed in
// batches, one span per batch.
type span struct {
	ID       int     `json:"id"`
	Name     string  `json:"name"`
	Start    float64 `json:"start"`
	End      float64 `json:"end"`
	Parent   int     `json:"parent"`
	Workload string  `json:"workload"`
	Calls    int     `json:"calls,omitempty"`
	// Self is the span's duration minus the part its children cover.
	Self float64 `json:"self"`
}

// tracer keeps spans in memory and writes them out when the pass ends.
type tracer struct {
	mu       sync.Mutex
	t0       time.Time
	workload string
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{t0: time.Now(), workload: workload}
}

func (t *tracer) now() float64 { return time.Since(t.t0).Seconds() }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name, Parent: parent, Workload: t.workload, Start: t.now()})
	return id
}

// end closes a span that covered `calls` layer calls and returns its
// duration in seconds.
func (t *tracer) end(id, calls int) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.End = t.now()
	s.Calls = calls
	return s.End - s.Start
}

// add records a span whose interval was measured elsewhere (a collective
// step callback, a probe send span), already on the tracer's clock.
func (t *tracer) add(name string, parent int, start, end float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Name: name, Parent: parent, Workload: t.workload, Start: start, End: end, Calls: 1})
}

// loop runs batch until budget is spent (at least once), one span per
// batch under parent. batch returns how many layer calls it made; its first
// error ends the loop. The result is the median per-call time in seconds
// across batches.
func (t *tracer) loop(name string, parent int, budget time.Duration, batch func(span int) (int, error)) (float64, error) {
	var per []float64
	deadline := time.Now().Add(budget)
	for len(per) == 0 || time.Now().Before(deadline) {
		id := t.begin(name, parent)
		calls, err := batch(id)
		d := t.end(id, calls)
		if err != nil {
			return 0, err
		}
		per = append(per, d/float64(max(calls, 1)))
	}
	return sim.Median(per), nil
}

// selfTimes fills each span's Self: its duration minus the union of its
// children's intervals (children may overlap: W peers step concurrently).
func (t *tracer) selfTimes() {
	children := make(map[int][]int)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return t.spans[kids[a]].Start < t.spans[kids[b]].Start })
		covered, edge := 0.0, s.Start
		for _, k := range kids {
			lo, hi := t.spans[k].Start, t.spans[k].End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		s.Self = (s.End - s.Start) - covered
	}
}

// write stores the spans as JSON under dir/trace-<workload>.json.
func (t *tracer) write(dir string) (string, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.selfTimes()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+t.workload+".json")
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{t.workload, t.spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
