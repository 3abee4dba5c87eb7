package allreduce

import (
	"math"
	"reflect"
	"testing"

	"prophet/internal/cluster"
	"prophet/internal/drive"
	"prophet/internal/model"
	"prophet/internal/netsim"
	"prophet/internal/schedule"
	"prophet/internal/sim"
	"prophet/internal/strategy"
)

// fusion builds the registry's fusion strategy over m's gradients with the
// given buffer threshold (0 = the registry's 64 MB default).
func fusion(m *model.Model, bytes float64) cluster.SchedulerFactory {
	sizes := make([]float64, m.NumGradients())
	for i, g := range m.Grads {
		sizes[i] = g.Bytes()
	}
	return func(int, *sim.Engine, *netsim.Link) schedule.Scheduler {
		s, err := strategy.New("fusion", strategy.Params{Sizes: sizes, FusionBytes: bytes})
		if err != nil {
			panic(err)
		}
		return s
	}
}

func baseCfg() Config {
	m := model.WithWireFactor(model.ResNet18(), 2)
	return Config{
		Model:      m,
		Batch:      32,
		Workers:    4,
		Link:       netsim.DefaultLinkConfig(netsim.Const(netsim.Gbps(5))),
		Scheduler:  fusion(m, 0),
		Iterations: 6,
		Seed:       1,
	}
}

// TestShimAgreesWithCluster pins the shim as a pure renaming: the run it
// starts is the cluster.Run a caller would write by hand.
func TestShimAgreesWithCluster(t *testing.T) {
	cfg := baseCfg()
	cfg.RecordMessages = true
	got, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := cluster.Run(cluster.Config{
		Model: cfg.Model, Batch: cfg.Batch, Workers: cfg.Workers, Transport: "ring",
		Uplink:    func(int) netsim.LinkConfig { return cfg.Link },
		Scheduler: cfg.Scheduler, Iterations: cfg.Iterations, Seed: cfg.Seed,
		RecordMessages: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.Duration != want.Duration || got.Reductions != want.Sends || got.Rate(1) != want.Rate(1) {
		t.Fatalf("shim: duration %v, %d reductions, rate %v; cluster.Run: %v, %d, %v",
			got.Duration, got.Reductions, got.Rate(1), want.Duration, want.Sends, want.Rate(1))
	}
	if got.Reductions == 0 || !reflect.DeepEqual(got.Messages, want.Messages) {
		t.Fatalf("decision logs differ: shim %d records, cluster.Run %d", len(got.Messages), len(want.Messages))
	}
}

func TestRunCompletes(t *testing.T) {
	res, err := Run(baseCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.Iters.Count() != 6 {
		t.Fatalf("iterations = %d", res.Iters.Count())
	}
	if res.Reductions < 6 {
		t.Fatalf("reductions = %d, expected at least one per iteration", res.Reductions)
	}
	if res.Duration <= 0 || res.Rate(1) <= 0 {
		t.Fatal("no progress")
	}
}

func TestRejectsBadConfig(t *testing.T) {
	bad := []Config{
		{},
		{Model: model.ResNet18()},
		{Model: model.ResNet18(), Batch: 32, Workers: 1},
		{Model: model.ResNet18(), Batch: 32, Workers: 2}, // no scheduler
	}
	for i, cfg := range bad {
		if _, err := Run(cfg); err == nil {
			t.Fatalf("case %d: expected error", i)
		}
	}
}

func TestDeterministic(t *testing.T) {
	a, err := Run(baseCfg())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(baseCfg())
	if err != nil {
		t.Fatal(err)
	}
	if a.Duration != b.Duration || a.Reductions != b.Reductions {
		t.Fatal("nondeterministic")
	}
}

func TestMoreBandwidthFaster(t *testing.T) {
	slow := baseCfg()
	slow.Link = netsim.DefaultLinkConfig(netsim.Const(netsim.Gbps(1)))
	fast := baseCfg()
	fast.Link = netsim.DefaultLinkConfig(netsim.Const(netsim.Gbps(10)))
	s, err := Run(slow)
	if err != nil {
		t.Fatal(err)
	}
	f, err := Run(fast)
	if err != nil {
		t.Fatal(err)
	}
	if f.Rate(1) <= s.Rate(1) {
		t.Fatalf("fast %v <= slow %v", f.Rate(1), s.Rate(1))
	}
}

func TestFusionAmortizesOverheads(t *testing.T) {
	// Tiny fusion buffers force one reduction per tensor: 2(W−1)
	// overheads each. A 64 MB buffer must be decisively faster.
	small := baseCfg()
	small.Scheduler = fusion(small.Model, 1) // effectively per-tensor
	big := baseCfg()
	big.Scheduler = fusion(big.Model, 64e6)
	s, err := Run(small)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(big)
	if err != nil {
		t.Fatal(err)
	}
	if s.Reductions <= b.Reductions {
		t.Fatalf("small fusion did %d reductions, big %d", s.Reductions, b.Reductions)
	}
	if b.Rate(1) <= s.Rate(1)*1.05 {
		t.Fatalf("fusion gained too little: %v vs %v", b.Rate(1), s.Rate(1))
	}
}

func TestRingScalesWithWorkers(t *testing.T) {
	// Ring step count grows with W, so per-worker rate degrades with ring
	// size when communication-bound.
	small := baseCfg()
	small.Workers = 2
	small.Link = netsim.DefaultLinkConfig(netsim.Const(netsim.Gbps(1)))
	large := baseCfg()
	large.Workers = 8
	large.Link = netsim.DefaultLinkConfig(netsim.Const(netsim.Gbps(1)))
	s, err := Run(small)
	if err != nil {
		t.Fatal(err)
	}
	l, err := Run(large)
	if err != nil {
		t.Fatal(err)
	}
	// Total moved bytes per link: 2(W−1)/W × model — grows with W, so the
	// 8-ring cannot be faster than the 2-ring per worker.
	if l.Rate(1) > s.Rate(1) {
		t.Fatalf("8-worker ring rate %v > 2-worker %v", l.Rate(1), s.Rate(1))
	}
}

func TestStepTimeFormula(t *testing.T) {
	// The ring backend's chunk schedule must reproduce the closed-form cost
	// model: T(s) = 2(W−1) × (setup + (s/W + ramp)/B).
	cfg := baseCfg()
	be, err := drive.BackendByName("ring")
	if err != nil {
		t.Fatal(err)
	}
	w := float64(cfg.Workers)
	b := cfg.Link.Trace.At(0)
	bytes := 8e6
	want := 2 * (w - 1) * (cfg.Link.SetupTime + (bytes/w+cfg.Link.RampBytes)/b)
	got := 0.0
	for _, c := range be.ChunkBytes(bytes, cfg.Workers, nil) {
		got += cfg.Link.SetupTime + (c+cfg.Link.RampBytes)/b
	}
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("summed chunk steps = %v, want %v", got, want)
	}
}

func TestGPUTimelineRecorded(t *testing.T) {
	res, err := Run(baseCfg())
	if err != nil {
		t.Fatal(err)
	}
	busy := res.GPU[0].BusyBetween(0, res.Duration)
	if busy <= 0 || busy > res.Duration {
		t.Fatalf("busy = %v of %v", busy, res.Duration)
	}
}
