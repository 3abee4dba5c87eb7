package cluster

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"prophet/internal/model"
	"prophet/internal/netsim"
	"prophet/internal/probe"
	"prophet/internal/profiler"
	"prophet/internal/schedule"
	"prophet/internal/sim"
	"prophet/internal/stepwise"
)

// smallConfig builds a quick ResNet18 run for functional tests.
func smallConfig(t *testing.T, factory SchedulerFactory, gbps float64) Config {
	t.Helper()
	m := model.ResNet18()
	return Config{
		Model:     m,
		Batch:     32,
		Workers:   2,
		Scheduler: factory,
		Uplink: func(int) netsim.LinkConfig {
			return netsim.DefaultLinkConfig(netsim.Const(netsim.Gbps(gbps)))
		},
		Iterations: 6,
		Seed:       1,
	}
}

func prophetFactory(t *testing.T, m *model.Model, batch int) SchedulerFactory {
	t.Helper()
	res, err := profiler.Run(profiler.Config{
		Model: m,
		Batch: batch,
		Agg:   stepwise.Aggregate(m, 8e6, 0),
		Seed:  7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ProphetFactory(schedule.NewPlanner(res.Profile(), false))
}

// runRecorded runs cfg with a probe.SpanRecorder attached and link records
// kept: the recorder is where uplink bytes and the per-gradient transfer
// log come from, DownRecords where downlink bytes do.
func runRecorded(t *testing.T, cfg Config) (*Result, *probe.SpanRecorder) {
	t.Helper()
	rec := probe.NewSpanRecorder()
	cfg.Observer = rec
	cfg.RecordLinks = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res, rec
}

func recordBytes(recs []netsim.TransferRecord) float64 {
	var sum float64
	for _, r := range recs {
		sum += r.Bytes
	}
	return sum
}

func TestRunCompletesAllIterations(t *testing.T) {
	res, err := Run(smallConfig(t, FIFOFactory(model.ResNet18()), 5))
	if err != nil {
		t.Fatal(err)
	}
	if res.Iters.Count() != 6 {
		t.Fatalf("completed %d iterations, want 6", res.Iters.Count())
	}
	if res.Duration <= 0 {
		t.Fatal("no simulated time elapsed")
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	bad := []Config{
		{},
		{Model: model.ResNet18()},
		{Model: model.ResNet18(), Batch: 32},
		{Model: model.ResNet18(), Batch: 32, Workers: 2},
	}
	for i, cfg := range bad {
		if _, err := Run(cfg); err == nil {
			t.Fatalf("case %d: expected error", i)
		}
	}
}

func TestAllSchedulersCompleteAndConserveBytes(t *testing.T) {
	m := model.ResNet18()
	factories := map[string]SchedulerFactory{
		"fifo":          FIFOFactory(m),
		"p3":            P3Factory(m, 4e6),
		"bytescheduler": ByteSchedulerFactory(m, 8e6),
		"prophet":       prophetFactory(t, m, 32),
	}
	wantBytes := m.TotalBytes() * 6 // per direction per worker, 6 iters
	for name, f := range factories {
		res, rec := runRecorded(t, smallConfig(t, f, 5))
		for w := 0; w < res.Workers; w++ {
			up := rec.Rate(w).TotalBytes()
			down := recordBytes(res.DownRecords[w])
			if math.Abs(up-wantBytes)/wantBytes > 1e-6 {
				t.Errorf("%s worker %d pushed %v bytes, want %v", name, w, up, wantBytes)
			}
			if math.Abs(down-wantBytes)/wantBytes > 1e-6 {
				t.Errorf("%s worker %d pulled %v bytes, want %v", name, w, down, wantBytes)
			}
		}
		if res.SchedulerName != name {
			t.Errorf("scheduler name %q, want %q", res.SchedulerName, name)
		}
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	cfg := smallConfig(t, FIFOFactory(model.ResNet18()), 3)
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Duration != b.Duration {
		t.Fatalf("nondeterministic: %v vs %v", a.Duration, b.Duration)
	}
	if a.Rate(1) != b.Rate(1) {
		t.Fatalf("rates differ: %v vs %v", a.Rate(1), b.Rate(1))
	}
}

func TestSeedChangesOutcome(t *testing.T) {
	cfg := smallConfig(t, FIFOFactory(model.ResNet18()), 3)
	a, _ := Run(cfg)
	cfg.Seed = 2
	b, _ := Run(cfg)
	if a.Duration == b.Duration {
		t.Fatal("different seeds gave identical durations")
	}
}

func TestGPUUtilizationBounded(t *testing.T) {
	res, err := Run(smallConfig(t, FIFOFactory(model.ResNet18()), 3))
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < res.Workers; w++ {
		u := res.GPUUtil(w, 1)
		if u <= 0 || u > 1 {
			t.Fatalf("worker %d utilization %v out of (0,1]", w, u)
		}
	}
}

func TestSlowNetworkLowersUtilAndRate(t *testing.T) {
	fast, err := Run(smallConfig(t, FIFOFactory(model.ResNet18()), 10))
	if err != nil {
		t.Fatal(err)
	}
	slow, err := Run(smallConfig(t, FIFOFactory(model.ResNet18()), 1))
	if err != nil {
		t.Fatal(err)
	}
	if slow.Rate(1) >= fast.Rate(1) {
		t.Fatalf("slow net rate %v >= fast %v", slow.Rate(1), fast.Rate(1))
	}
	if slow.GPUUtil(0, 1) >= fast.GPUUtil(0, 1) {
		t.Fatalf("slow net GPU util %v >= fast %v", slow.GPUUtil(0, 1), fast.GPUUtil(0, 1))
	}
}

func TestComputeBoundRegimeSchedulerIrrelevant(t *testing.T) {
	// At very high bandwidth the strategies converge (paper: all ≈220
	// samples/s at 10 Gbps for ResNet18).
	m := model.ResNet18()
	fifo, err := Run(smallConfig(t, FIFOFactory(m), 25))
	if err != nil {
		t.Fatal(err)
	}
	pro, err := Run(smallConfig(t, prophetFactory(t, m, 32), 25))
	if err != nil {
		t.Fatal(err)
	}
	diff := math.Abs(fifo.Rate(1)-pro.Rate(1)) / fifo.Rate(1)
	if diff > 0.05 {
		t.Fatalf("compute-bound rates differ by %.1f%%: fifo %v prophet %v",
			diff*100, fifo.Rate(1), pro.Rate(1))
	}
}

func TestProphetBeatsFIFOWhenCommBound(t *testing.T) {
	m := model.ResNet18()
	fifo, err := Run(smallConfig(t, FIFOFactory(m), 2))
	if err != nil {
		t.Fatal(err)
	}
	pro, err := Run(smallConfig(t, prophetFactory(t, m, 32), 2))
	if err != nil {
		t.Fatal(err)
	}
	if pro.Rate(1) <= fifo.Rate(1) {
		t.Fatalf("prophet %v not faster than fifo %v at 2 Gbps", pro.Rate(1), fifo.Rate(1))
	}
}

func TestTransferLogPopulated(t *testing.T) {
	cfg := smallConfig(t, FIFOFactory(model.ResNet18()), 3)
	res, rec := runRecorded(t, cfg)
	if got := rec.Iterations(0).Count(); got != res.Iters.Count() {
		t.Errorf("recorder iterations = %d, simulator = %d", got, res.Iters.Count())
	}
	n := model.ResNet18().NumGradients()
	want := n * cfg.Iterations
	got := 0
	for _, e := range rec.Grads() {
		if e.Worker != 0 || !e.HasEnd {
			continue
		}
		got++
		if e.Start < e.Generated-1e-9 {
			t.Fatalf("gradient %d pushed before generated", e.Grad)
		}
		if e.End < e.Start {
			t.Fatalf("gradient %d negative duration", e.Grad)
		}
	}
	if got != want {
		t.Fatalf("worker 0 completed %d transfers, want %d", got, want)
	}
}

// TestProphetFactoryRunsConcurrently: sweeps hand factories to runner.Map,
// so runs on one ProphetFactory may plan through its one planner at once —
// two at the same inputs, and one whose slow worker plans apart. Each run
// made concurrently on a shared factory equals the same run made alone on a
// fresh one.
func TestProphetFactoryRunsConcurrently(t *testing.T) {
	m := model.ResNet18()
	res, err := profiler.Run(profiler.Config{Model: m, Batch: 32, Agg: stepwise.Aggregate(m, 8e6, 0), Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	configs := func(factory SchedulerFactory) []Config {
		a := smallConfig(t, factory, 3)
		a.RecordMessages, a.RecordLinks = true, true
		b := a
		b.Seed = 2
		hetero := a
		hetero.Uplink = func(w int) netsim.LinkConfig {
			return netsim.DefaultLinkConfig(netsim.Const(netsim.Gbps(3 - 2.5*float64(w))))
		}
		return []Config{a, b, hetero}
	}
	var serial []*Result
	for _, cfg := range configs(nil) {
		cfg.Scheduler = ProphetFactory(schedule.NewPlanner(res.Profile(), false))
		r, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		serial = append(serial, r)
	}
	shared := configs(ProphetFactory(schedule.NewPlanner(res.Profile(), false)))
	concurrent := make([]*Result, len(shared))
	errs := make([]error, len(shared))
	var wg sync.WaitGroup
	for i, cfg := range shared {
		wg.Add(1)
		go func() {
			defer wg.Done()
			concurrent[i], errs[i] = Run(cfg)
		}()
	}
	wg.Wait()
	for i := range shared {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !reflect.DeepEqual(concurrent[i], serial[i]) {
			t.Errorf("run %d on a shared factory differs from the same run alone", i)
		}
	}
}

func TestHeterogeneousWorkerSlowsCluster(t *testing.T) {
	m := model.ResNet18()
	base := smallConfig(t, FIFOFactory(m), 5)
	hetero := base
	hetero.Uplink = func(w int) netsim.LinkConfig {
		g := 5.0
		if w == 1 {
			g = 0.5
		}
		return netsim.DefaultLinkConfig(netsim.Const(netsim.Gbps(g)))
	}
	uniform, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := Run(hetero)
	if err != nil {
		t.Fatal(err)
	}
	if slow.Rate(1) >= uniform.Rate(1) {
		t.Fatalf("hetero rate %v >= uniform %v", slow.Rate(1), uniform.Rate(1))
	}
}

func TestMoreIterationsTakeLonger(t *testing.T) {
	cfg := smallConfig(t, FIFOFactory(model.ResNet18()), 5)
	short, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Iterations = 12
	long, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if long.Duration <= short.Duration {
		t.Fatal("more iterations did not take longer")
	}
}

func TestVaryingBandwidthTraceRuns(t *testing.T) {
	m := model.ResNet18()
	cfg := smallConfig(t, prophetFactory(t, m, 32), 5)
	cfg.Uplink = func(int) netsim.LinkConfig {
		tr := netsim.NewStepTrace(
			netsim.Step{From: 0, Rate: netsim.Gbps(5)},
			netsim.Step{From: 3, Rate: netsim.Gbps(1)},
			netsim.Step{From: 8, Rate: netsim.Gbps(5)},
		)
		return netsim.DefaultLinkConfig(tr)
	}
	cfg.Iterations = 10
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iters.Count() != 10 {
		t.Fatal("run under varying bandwidth did not complete")
	}
}

func TestClusterRateScalesWithWorkers(t *testing.T) {
	m := model.ResNet18()
	cfg := smallConfig(t, FIFOFactory(m), 10)
	cfg.Workers = 2
	two, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 4
	four, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Aggregate throughput should grow close to 2x (paper Fig. 12).
	ratio := four.ClusterRate(1) / two.ClusterRate(1)
	if ratio < 1.6 {
		t.Fatalf("cluster rate scaled only %.2fx from 2 to 4 workers", ratio)
	}
}

func TestIterationSpansContiguous(t *testing.T) {
	res, err := Run(smallConfig(t, FIFOFactory(model.ResNet18()), 5))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < res.Iters.Count(); i++ {
		if res.Iters.Starts[i] != res.Iters.Ends[i-1] {
			t.Fatalf("iteration %d span not contiguous", i)
		}
	}
}

// TestRunMarginalAllocs pins what a simulated iteration allocates once a
// run is under way: the engine's events, the pull messages and the PS
// rounds are pooled, and the GPU and iteration series are reserved up
// front, so a PS run of the benchmark's sim-sweep cell (ResNet50 at wire
// factor 2, batch 64, three workers on 3 Gbps goodput links, Prophet) at
// 5N iterations allocates at most one object per extra iteration more than
// the same run at N.
func TestRunMarginalAllocs(t *testing.T) {
	if poison { // set exactly in the race build
		t.Skip("race-detector instrumentation allocates; counts are only meaningful without -race")
	}
	m := model.WithWireFactor(model.ResNet50(), 2)
	agg := stepwise.Aggregate(m, m.TotalBytes()/13, 0)
	prof, err := profiler.Run(profiler.Config{Model: m, Batch: 64, Agg: agg, Seed: 97})
	if err != nil {
		t.Fatal(err)
	}
	factory, err := ByNameTransport("prophet", "ps", 3, m, Options{Seed: 1, Profile: prof.Profile()})
	if err != nil {
		t.Fatal(err)
	}
	link := netsim.DefaultLinkConfig(netsim.Const(netsim.Goodput(netsim.Gbps(3))))
	allocs := func(iters int) float64 {
		return testing.AllocsPerRun(2, func() {
			_, err := Run(Config{
				Model: m, Batch: 64, Workers: 3, Agg: agg,
				Uplink:    func(int) netsim.LinkConfig { return link },
				Scheduler: factory, Iterations: iters, Seed: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
	const n = 8
	short, long := allocs(n), allocs(5*n)
	if per := (long - short) / (4 * n); per > 1 {
		t.Fatalf("%.2f allocations per extra simulated iteration (%v at %d iterations, %v at %d), want at most 1",
			per, short, n, long, 5*n)
	}
}

// TestEventsPerIteration pins the simulator's event count on the shape
// BenchmarkCluster_Iteration times (ResNet50 at wire factor 2, batch 64,
// three workers on 3 Gbps goodput links, Prophet, eight iterations). A GPU
// boundary that only starts the next segment is computed inline, so compute
// costs one event per boundary that acts — a released bucket, a forward
// segment whose successor waits for its pull, a pass's end — instead of one
// per segment: 2 283 events, where one per segment fired 9 432.
func TestEventsPerIteration(t *testing.T) {
	m := model.WithWireFactor(model.ResNet50(), 2)
	agg := stepwise.DefaultAggregate(m)
	prof, err := profiler.Run(profiler.Config{Model: m, Batch: 64, Agg: agg, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	factory := ProphetFactory(schedule.NewPlanner(prof.Profile(), false))
	var eng *sim.Engine
	_, err = Run(Config{
		Model: m, Batch: 64, Workers: 3,
		Uplink: func(int) netsim.LinkConfig {
			return netsim.DefaultLinkConfig(netsim.Const(netsim.Goodput(netsim.Gbps(3))))
		},
		Scheduler: func(w int, e *sim.Engine, up *netsim.Link) schedule.Scheduler {
			eng = e
			return factory(w, e, up)
		},
		Iterations: 8, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	const perSegment = 9432
	if got := eng.Fired(); got >= perSegment/4 {
		t.Fatalf("%d events over 8 iterations, want under a quarter of the %d one event per GPU segment fires", got, perSegment)
	}
}
