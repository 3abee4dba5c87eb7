package cluster

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"prophet/internal/model"
	"prophet/internal/netsim"
	"prophet/internal/probe"
	"prophet/internal/profiler"
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
//  4. per-gradient pushes never precede generation (Constraint 7);
//  5. the GPU timeline obeys Eq. 3 and bucket release (checkGPUTimeline).
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
		if err := checkGPUTimeline(m18, agg, iters, res, rec); err != nil {
			t.Log(err)
			return false
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

// checkGPUTimeline checks every worker's compute record against the
// training loop's rules, reading releases and pulls from the probe stream:
//
//   - GPU[w] holds one interval per forward and per backward segment of
//     every iteration, 2·n·iters in all: iteration i's forward segment k at
//     i·2n + k, its backward segment s at i·2n + n + (n−1−s);
//   - a gradient is released (Generated) exactly when its aggregation
//     bucket's lowest segment, the last of the bucket to compute, ends;
//   - Eq. 3: from iteration 1 on, forward segment k starts no earlier than
//     gradient k of the iteration before was pulled back (Acked).
func checkGPUTimeline(m *model.Model, agg stepwise.Buckets, iters int, res *Result, rec *probe.SpanRecorder) error {
	n := m.NumGradients()
	low := make([]int, n)
	for _, grp := range agg.Groups {
		for _, g := range grp {
			low[g] = grp[0]
		}
	}
	grads := map[[3]int]probe.GradTimes{}
	for _, e := range rec.Grads() {
		grads[[3]int{e.Worker, e.Iter, e.Grad}] = e
	}
	for w, series := range res.GPU {
		gpu := series.Intervals()
		if len(gpu) != 2*n*iters {
			return fmt.Errorf("worker %d: %d GPU intervals, want 2·%d·%d", w, len(gpu), n, iters)
		}
		for i := 0; i < iters; i++ {
			for g := 0; g < n; g++ {
				e, ok := grads[[3]int{w, i, g}]
				if !ok {
					return fmt.Errorf("worker %d iteration %d: gradient %d never recorded", w, i, g)
				}
				if end := gpu[i*2*n+n+(n-1-low[g])].End; e.Generated != end {
					return fmt.Errorf("worker %d iteration %d: gradient %d released at %v, its bucket's last segment %d ended at %v",
						w, i, g, e.Generated, low[g], end)
				}
				if i == 0 {
					continue
				}
				prev, ok := grads[[3]int{w, i - 1, g}]
				if !ok || !prev.HasAcked {
					return fmt.Errorf("worker %d: gradient %d of iteration %d never pulled back", w, g, i-1)
				}
				if start := gpu[i*2*n+g].Start; start < prev.Acked {
					return fmt.Errorf("worker %d iteration %d: forward segment %d started at %v, before its pull landed at %v (Eq. 3)",
						w, i, g, start, prev.Acked)
				}
			}
		}
	}
	return nil
}

// TestGPUTimelineFollowsEq3 runs checkGPUTimeline over Prophet on both
// wires — PS under BSP, ASP and two shards, and the ring — with jitter and
// without, on a link slow enough that forward segments do wait for pulls.
func TestGPUTimelineFollowsEq3(t *testing.T) {
	m := model.ResNet18()
	agg := stepwise.DefaultAggregate(m)
	prof, err := profiler.Run(profiler.Config{Model: m, Batch: 32, Agg: agg, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name      string
		transport string
		asp       bool
		shards    int
	}{
		{"ps-bsp", "ps", false, 1},
		{"ps-asp", "ps", true, 1},
		{"ps-2shards", "ps", false, 2},
		{"ring", "ring", false, 1},
	}
	for _, c := range cases {
		for _, jitter := range []float64{0, -1} {
			const workers, iters = 3, 5
			factory, err := ByNameTransport("prophet", c.transport, workers, m, Options{Seed: 1, Profile: prof.Profile()})
			if err != nil {
				t.Fatal(err)
			}
			cfg := smallConfig(t, factory, 2)
			cfg.Workers, cfg.Iterations, cfg.Jitter = workers, iters, jitter
			cfg.Transport, cfg.ASP, cfg.PSShards = c.transport, c.asp, c.shards
			rec := probe.NewSpanRecorder()
			cfg.Observer = rec
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s jitter %v: %v", c.name, jitter, err)
			}
			if err := checkGPUTimeline(m, agg, iters, res, rec); err != nil {
				t.Errorf("%s jitter %v: %v", c.name, jitter, err)
			}
			// The check is only as strong as the gate it meets: some
			// forward segment after the first must have waited.
			gpu, n, waited := res.GPU[0].Intervals(), m.NumGradients(), false
			for i := 1; i < iters && !waited; i++ {
				for k := 1; k < n; k++ {
					if gpu[i*2*n+k].Start > gpu[i*2*n+k-1].End {
						waited = true
						break
					}
				}
			}
			if !waited {
				t.Errorf("%s jitter %v: no forward segment waited for its pull", c.name, jitter)
			}
		}
	}
}
