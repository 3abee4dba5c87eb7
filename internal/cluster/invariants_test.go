package cluster

import (
	"math"
	"testing"
	"testing/quick"

	"prophet/internal/model"
	"prophet/internal/netsim"
	"prophet/internal/probe"
	"prophet/internal/sim"
	"prophet/internal/stepwise"
)

// TestPropertyInvariantsAcrossConfigs sweeps random (scheduler, bandwidth,
// workers, batch, sync mode) configurations and checks the simulator's
// global invariants:
//
//  1. byte conservation: every worker pushes and pulls exactly the model's
//     wire size per iteration;
//  2. GPU busy time never exceeds wall time, and is positive;
//  3. iteration spans are contiguous and monotone;
//  4. per-gradient pushes never precede generation (Constraint 7).
func TestPropertyInvariantsAcrossConfigs(t *testing.T) {
	m18 := model.ResNet18()
	agg := stepwise.DefaultAggregate(m18)
	factories := []SchedulerFactory{
		FIFOFactory(m18),
		P3Factory(m18, 4e6),
		ByteSchedulerFactory(m18, 4e6),
		mustByName("tictac", m18, Options{}),
	}
	f := func(facRaw, wRaw, bRaw, bwRaw uint8, asp bool, seed uint64) bool {
		factory := factories[int(facRaw)%len(factories)]
		workers := int(wRaw%3) + 2
		batch := []int{16, 32, 64}[int(bRaw)%3]
		gbps := []float64{1, 2.5, 6}[int(bwRaw)%3]
		const iters = 3
		rec := probe.NewSpanRecorder()
		res, err := Run(Config{
			Model:   m18,
			Batch:   batch,
			Workers: workers,
			Agg:     agg,
			Uplink: func(int) netsim.LinkConfig {
				return netsim.DefaultLinkConfig(netsim.Const(netsim.Gbps(gbps)))
			},
			Scheduler:   factory,
			Iterations:  iters,
			Seed:        seed%1000 + 1,
			ASP:         asp,
			RecordLinks: true,
			Observer:    rec,
		})
		if err != nil {
			t.Logf("run failed: %v", err)
			return false
		}
		wantBytes := m18.TotalBytes() * iters
		for w := 0; w < workers; w++ {
			if up := rec.Rate(w).TotalBytes(); math.Abs(up-wantBytes) > 1e-6*wantBytes {
				t.Logf("worker %d pushed %v, want %v", w, up, wantBytes)
				return false
			}
			if down := recordBytes(res.DownRecords[w]); math.Abs(down-wantBytes) > 1e-6*wantBytes {
				t.Logf("worker %d pulled %v, want %v", w, down, wantBytes)
				return false
			}
			busy := res.GPU[w].BusyBetween(0, res.Duration)
			if busy <= 0 || busy > res.Duration+1e-9 {
				t.Logf("worker %d busy %v of %v", w, busy, res.Duration)
				return false
			}
		}
		for i := 1; i < res.Iters.Count(); i++ {
			if res.Iters.Starts[i] != res.Iters.Ends[i-1] || res.Iters.Ends[i] <= res.Iters.Starts[i] {
				return false
			}
		}
		for _, e := range rec.Grads() {
			if e.Worker == 0 && e.HasEnd && (e.Start < e.Generated-1e-9 || e.End < e.Start) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 25}
	if testing.Short() {
		cfg.MaxCount = 8
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestJitterMagnitudeSanity: higher compute jitter widens the spread of
// iteration durations but never breaks completion.
func TestJitterMagnitudeSanity(t *testing.T) {
	m := model.ResNet18()
	run := func(jitter float64) []float64 {
		cfg := smallConfig(t, FIFOFactory(m), 5)
		cfg.Jitter = jitter
		cfg.Iterations = 8
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Iters.Durations()
	}
	calm := sim.Stddev(run(-1)) // negative = exactly zero jitter
	noisy := sim.Stddev(run(0.1))
	if noisy <= calm {
		t.Fatalf("jitter did not widen duration spread: %v vs %v", noisy, calm)
	}
}
