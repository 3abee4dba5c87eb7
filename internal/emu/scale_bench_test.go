package emu

// BenchmarkEmu_Scale is the tentpole scaling sweep: whole emulated
// training runs (2 iterations, fifo, unshaped links) at worker counts a
// pipe per worker×shard cannot reach sanely, over 1 and 4 PS shards on the
// shared-pipe topology, plus one per-worker-pipe reference point. Beyond
// wall time it reports two custom metrics consumed by cmd/bench2json:
//
//	goroutines      peak live goroutines during the run — per-pipe cost
//	                is the property under test (W=1000 must sit near
//	                W+4·shards, not W×shards×4)
//	peak-rss-bytes  the process high-water resident set (VmHWM)
//
// VmHWM is process-monotonic, so the sweep runs ascending in worker count:
// each point's reading bounds the memory needed at ≤ its scale. Regenerate
// the committed numbers with `make bench-scale` (part of bench-emu-json).

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// peakRSSBytes parses VmHWM from /proc/self/status. Returns 0 when the
// platform has no procfs — the metric is best-effort.
func peakRSSBytes() int64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) < 1 {
			return 0
		}
		kb, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0
		}
		return kb << 10
	}
	return 0
}

// sampleGoroutines polls the live goroutine count until stop closes and
// reports the peak observed.
func sampleGoroutines(stop <-chan struct{}, peak *int, done *sync.WaitGroup) {
	defer done.Done()
	tick := time.NewTicker(200 * time.Microsecond)
	defer tick.Stop()
	for {
		if n := runtime.NumGoroutine(); n > *peak {
			*peak = n
		}
		select {
		case <-stop:
			return
		case <-tick.C:
		}
	}
}

func BenchmarkEmu_Scale(b *testing.B) {
	points := []struct {
		workers, shards int
		mux             bool
		transport       string // "" = parameter server
	}{
		// Live collectives beside the PS rows of their scale: the fabric is one
		// shared pipe regardless of W, so the goroutine and RSS columns are
		// directly comparable to the mux PS transport, and the three worker
		// counts are what DESIGN §12's ring ÷ PS formula is checked against —
		// a ring op is 2(W−1) steps of W chunks, a tree op 2·log₂W, and fifo's
		// four sends here fuse into one op. A ring of 1000 is then 2 M chunks
		// per iteration (8 M unfused), about eleven seconds for the row.
		{8, 1, true, ""}, {8, 4, true, ""},
		{8, 1, false, "ring"}, {8, 1, false, "tree"},
		{64, 4, false, ""}, // per-worker-pipe reference: goroutines ∝ workers×shards
		{64, 1, true, ""}, {64, 4, true, ""},
		{64, 1, false, "ring"}, {64, 1, false, "tree"},
		{256, 1, true, ""}, {256, 4, true, ""},
		{256, 1, false, "ring"}, {256, 1, false, "tree"},
		{1000, 1, true, ""}, {1000, 4, true, ""},
		{1000, 1, false, "ring"}, {1024, 1, false, "tree"},
	}
	for _, p := range points {
		transport := "mux"
		switch {
		case p.transport != "":
			transport = p.transport
		case !p.mux:
			transport = "conns"
		}
		b.Run(fmt.Sprintf("w%d_s%d_%s", p.workers, p.shards, transport), func(b *testing.B) {
			cfg := baseConfig()
			cfg.Workers = p.workers
			cfg.Shards = p.shards
			cfg.Mux = p.mux
			cfg.Transport = p.transport
			cfg.Batch = 16
			cfg.Iterations = 2
			cfg.Policy = "fifo"

			var peak int
			stop := make(chan struct{})
			var done sync.WaitGroup
			done.Add(1)
			go sampleGoroutines(stop, &peak, &done)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			close(stop)
			done.Wait()
			b.ReportMetric(float64(peak), "goroutines")
			b.ReportMetric(float64(peakRSSBytes()), "peak-rss-bytes")
		})
	}
}
