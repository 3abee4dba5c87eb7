package probe

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
)

// Metrics is a concurrency-safe registry of named counters and sparse
// histograms for the live path: transport retries, redials, pull timeouts,
// dropped workers, fault injections. It is the expvar analogue for this
// repo — JSON-dumpable at end of run and servable over HTTP (prophet-run
// -debug-addr) — without the package-level global state expvar imposes
// (every emulation owns its own registry, so tests and sweeps never share
// counters).
//
// Counter and Histogram handles are stable: look them up once, then update
// through the handle with no map access on the hot path.
type Metrics struct {
	mu       sync.Mutex
	counters map[string]*Counter
	hists    map[string]*Histogram
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		counters: make(map[string]*Counter),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. Safe for
// concurrent use; nil receivers return a usable throwaway counter so
// callers can update unconditionally.
func (m *Metrics) Counter(name string) *Counter {
	if m == nil {
		return &Counter{}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.counters[name]
	if !ok {
		c = &Counter{}
		m.counters[name] = c
	}
	return c
}

// Histogram returns the named histogram, creating it on first use. Safe
// for concurrent use; nil receivers return a usable throwaway histogram.
func (m *Metrics) Histogram(name string) *Histogram {
	if m == nil {
		return &Histogram{}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	h, ok := m.hists[name]
	if !ok {
		h = &Histogram{}
		m.hists[name] = h
	}
	return h
}

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Histogram accumulates observations into sparse power-of-two buckets:
// bucket k counts observations v with 2^(k-1) < v <= 2^k (bucket 0 counts
// v <= 1, negatives included). Only touched buckets consume memory, so a
// queue-depth histogram costs a handful of entries while a latency
// histogram in nanoseconds still stays under ~64.
type Histogram struct {
	mu      sync.Mutex
	buckets map[int]int64
	count   int64
	sum     float64
	max     float64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	k := bucketOf(v)
	h.mu.Lock()
	if h.buckets == nil {
		h.buckets = make(map[int]int64)
	}
	h.buckets[k]++
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
	h.mu.Unlock()
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Max returns the largest observed value (0 before any observation).
func (h *Histogram) Max() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.max
}

// bucketOf maps v to its power-of-two bucket index.
func bucketOf(v float64) int {
	if v <= 1 {
		return 0
	}
	return int(math.Ceil(math.Log2(v)))
}

// BucketUpper returns the inclusive upper bound of bucket k, for rendering
// dumps ("<=8": 3 means three observations in (4, 8]).
func BucketUpper(k int) float64 {
	if k <= 0 {
		return 1
	}
	return math.Pow(2, float64(k))
}

// histogramJSON is the wire form of one histogram.
type histogramJSON struct {
	Count   int64            `json:"count"`
	Sum     float64          `json:"sum"`
	Max     float64          `json:"max"`
	Buckets map[string]int64 `json:"buckets,omitempty"`
}

// Snapshot returns a stable copy of the registry: counter values and
// histogram bucket counts keyed by name.
func (m *Metrics) Snapshot() (counters map[string]int64, hists map[string]map[int]int64) {
	counters = make(map[string]int64)
	hists = make(map[string]map[int]int64)
	if m == nil {
		return counters, hists
	}
	m.mu.Lock()
	names := make([]string, 0, len(m.counters))
	for name := range m.counters {
		names = append(names, name)
	}
	hnames := make([]string, 0, len(m.hists))
	for name := range m.hists {
		hnames = append(hnames, name)
	}
	cs := make(map[string]*Counter, len(names))
	hs := make(map[string]*Histogram, len(hnames))
	for _, name := range names {
		cs[name] = m.counters[name]
	}
	for _, name := range hnames {
		hs[name] = m.hists[name]
	}
	m.mu.Unlock()
	for name, c := range cs {
		counters[name] = c.Value()
	}
	for name, h := range hs {
		h.mu.Lock()
		bs := make(map[int]int64, len(h.buckets))
		for k, n := range h.buckets {
			bs[k] = n
		}
		h.mu.Unlock()
		hists[name] = bs
	}
	return counters, hists
}

// WriteJSON dumps the registry as a deterministic (key-sorted) JSON
// object: {"counters": {...}, "histograms": {...}}.
func (m *Metrics) WriteJSON(w io.Writer) error {
	type dump struct {
		Counters   map[string]int64         `json:"counters"`
		Histograms map[string]histogramJSON `json:"histograms"`
	}
	d := dump{
		Counters:   make(map[string]int64),
		Histograms: make(map[string]histogramJSON),
	}
	if m != nil {
		m.mu.Lock()
		cs := make(map[string]*Counter, len(m.counters))
		hs := make(map[string]*Histogram, len(m.hists))
		for name, c := range m.counters {
			cs[name] = c
		}
		for name, h := range m.hists {
			hs[name] = h
		}
		m.mu.Unlock()
		for name, c := range cs {
			d.Counters[name] = c.Value()
		}
		for name, h := range hs {
			h.mu.Lock()
			hj := histogramJSON{Count: h.count, Sum: h.sum, Max: h.max}
			if len(h.buckets) > 0 {
				hj.Buckets = make(map[string]int64, len(h.buckets))
				for k, n := range h.buckets {
					hj.Buckets[fmt.Sprintf("le_%g", BucketUpper(k))] = n
				}
			}
			h.mu.Unlock()
			d.Histograms[name] = hj
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d) // encoding/json sorts map keys: deterministic dump
}

// Handler serves the registry as JSON — the expvar-style endpoint behind
// prophet-run's -debug-addr listener.
func (m *Metrics) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := m.WriteJSON(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}
