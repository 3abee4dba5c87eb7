package probe

import (
	"sync"
	"testing"
)

// TestConcurrentEmission hammers one composed observer (SpanRecorder +
// metrics) from many goroutines the way the live path does: one emitter
// per (worker, lane) for send sequences, one per worker for the iteration
// and gradient lifecycle events. Run under -race this is the data-race
// gate for every observer shipped in the package.
func TestConcurrentEmission(t *testing.T) {
	const (
		workers = 4
		lanes   = 3
		iters   = 5
		sends   = 20 // per (worker, lane, iter)
	)
	rec := NewSpanRecorder()
	m := NewMetrics()
	obs := NewMulti(rec, m.Observer())

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				base := float64(it)
				obs.BeginIteration(w, it, base)
				for g := 0; g < sends; g++ {
					obs.Generated(w, g, base+0.1)
					obs.PullAcked(w, g, it, base+0.9)
				}
				obs.FaultInjected(w, "stall", base+0.6)
				obs.EndIteration(w, it, base+1)
			}
		}()
		for l := 0; l < lanes; l++ {
			l := l
			wg.Add(1)
			go func() {
				defer wg.Done()
				ranges := make([]Range, 1)
				for it := 0; it < iters; it++ {
					for s := 0; s < sends; s++ {
						now := float64(it) + float64(s)*1e-3
						ranges[0] = Range{Grad: s, Bytes: 8, Last: true}
						obs.SendStart(w, l, s, it, "m", 8, ranges, now)
						obs.SendComplete(w, l, it, now+5e-4)
					}
				}
			}()
		}
	}
	wg.Wait()

	wantSends := int64(workers * lanes * iters * sends)
	if got := m.Counter("probe_sends").Value(); got != wantSends {
		t.Errorf("probe_sends = %d, want %d", got, wantSends)
	}
	if got := m.Counter("probe_iterations").Value(); got != int64(workers*iters) {
		t.Errorf("probe_iterations = %d, want %d", got, workers*iters)
	}
	if got := m.Counter("probe_fault_stall").Value(); got != int64(workers*iters) {
		t.Errorf("probe_fault_stall = %d, want %d", got, workers*iters)
	}
	if got := len(rec.Spans()); got != int(wantSends) {
		t.Errorf("recorded spans = %d, want %d", got, wantSends)
	}
	for w := 0; w < workers; w++ {
		if got := rec.Iterations(w).Count(); got != iters {
			t.Errorf("worker %d iterations = %d, want %d", w, got, iters)
		}
		if got := len(rec.Lanes(w)); got != lanes {
			t.Errorf("worker %d lanes = %d, want %d", w, got, lanes)
		}
	}
}
