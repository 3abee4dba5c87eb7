package emu

import (
	"fmt"
	"runtime"
	"testing"

	"prophet/internal/metrics"
	"prophet/internal/nn"
	"prophet/internal/probe"
)

func TestPushLabelsMatchSprintf(t *testing.T) {
	labels := pushLabels(15)
	for idx, got := range labels {
		if want := fmt.Sprintf("push[t%d]", idx); got != want {
			t.Fatalf("label %d: got %q want %q", idx, got, want)
		}
	}
	if got := pushLabels(0); len(got) != 0 {
		t.Fatalf("pushLabels(0) = %v", got)
	}
}

// TestPushLabelsAllocBound pins the cold-start satellite: rendering a
// worker's label table costs exactly the retained memory — one string per
// label, the table itself, and the scratch buffer — with no fmt machinery.
// At 1000 workers the table is built per worker, so the bound is per-run.
func TestPushLabelsAllocBound(t *testing.T) {
	const n = 64
	allocs := testing.AllocsPerRun(20, func() {
		_ = pushLabels(n)
	})
	if allocs > n+2 {
		t.Fatalf("pushLabels(%d) allocates %.1f times per run, want ≤ %d", n, allocs, n+2)
	}
}

// TestWorkerTablesFastPath pins the per-run table sharing: the tensor-size
// and label tables are built once (newWorkerTables) and handed read-only to
// every worker, and label rendering is skipped entirely on the unobserved
// fast path — at 1000 workers neither cost may scale with the fleet.
func TestWorkerTablesFastPath(t *testing.T) {
	cfg := baseConfig()
	tables := newWorkerTables(&cfg)
	if tables.labels != nil {
		t.Fatal("unobserved run rendered push labels")
	}
	if len(tables.sizes) == 0 {
		t.Fatal("no tensor sizes")
	}
	cfg.Observer = probe.NewSpanRecorder()
	tables = newWorkerTables(&cfg)
	if len(tables.labels) != len(tables.sizes) {
		t.Fatalf("observed run rendered %d labels for %d tensors", len(tables.labels), len(tables.sizes))
	}
}

// TestSampleGrowthAllocBound pins the metrics half of the cold-start
// satellite: a run whose length is known up front pre-sizes its iteration
// logs (IterationLog.Grow, reached through the span recorder's
// SetIterationHint), so recording costs exactly the backing arrays and
// nothing from append doubling.
func TestSampleGrowthAllocBound(t *testing.T) {
	const n = 256
	if allocs := testing.AllocsPerRun(10, func() {
		var l metrics.IterationLog
		l.Grow(n)
		for i := 0; i < n; i++ {
			l.Add(float64(i), float64(i)+0.5)
		}
	}); allocs > 2 {
		t.Fatalf("pre-sized IterationLog allocates %.1f times for %d iterations, want ≤ 2", allocs, n)
	}
}

// TestMuxSteadyStateAllocs pins the warm live iteration on the muxed PS at
// W=64 over 4 shards, fifo: the decision replay, the driver, the schedulers
// and the pull channels recycle their per-message memory, so what a worker
// allocates per iteration is a small constant. Two runs that differ only in
// length difference out the set-up: (Mallocs of 60 iterations − Mallocs of
// 20) ÷ (40 · 64) is the steady-state count per worker-iteration.
func TestMuxSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are only meaningful without -race")
	}
	const workers, short, long, bound = 64, 20, 60, 1.0
	cfg := Config{
		Workers: workers, Layers: []int{16, 32, 32, 4}, Dataset: nn.Blobs(256, 16, 4, 11),
		Batch: 16, LR: 0.1, Seed: 5, Policy: "fifo", Shards: 4, Mux: true,
	}
	mallocs := func(iters int) uint64 {
		cfg.Iterations = iters
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	mallocs(short) // warm the process-wide payload and float pools
	a, b := mallocs(short), mallocs(long)
	per := (float64(b) - float64(a)) / float64((long-short)*workers)
	t.Logf("%d mallocs at %d iterations, %d at %d: %.2f per worker-iteration", a, short, b, long, per)
	if per > bound {
		t.Errorf("%.2f allocations per worker-iteration in the steady state, want ≤ %v", per, bound)
	}
}
