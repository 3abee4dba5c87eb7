package cluster

import (
	"testing"

	"prophet/internal/model"
	"prophet/internal/netsim"
)

func TestTicTacCompletesAndConserves(t *testing.T) {
	m := model.ResNet18()
	res, rec := runRecorded(t, smallConfig(t, mustByName("tictac", m, Options{}), 3))
	want := m.TotalBytes() * 6 // iterations × Σ gradient bytes
	if got := rec.Rate(0).TotalBytes(); got != want {
		t.Fatalf("tictac pushed %v bytes, want %v", got, want)
	}
	if res.SchedulerName != "tictac" {
		t.Fatalf("name = %q", res.SchedulerName)
	}
}

func TestTicTacBetweenFIFOAndProphetWhenCommBound(t *testing.T) {
	m := model.ResNet18()
	fifo, err := Run(smallConfig(t, FIFOFactory(m), 2))
	if err != nil {
		t.Fatal(err)
	}
	tictac, err := Run(smallConfig(t, mustByName("tictac", m, Options{}), 2))
	if err != nil {
		t.Fatal(err)
	}
	// Whole-tensor priority should not lose to FIFO by more than noise.
	if tictac.Rate(1) < fifo.Rate(1)*0.95 {
		t.Fatalf("tictac %v well below fifo %v", tictac.Rate(1), fifo.Rate(1))
	}
}

// ASP removes the all-workers barrier: a cluster with one slow worker keeps
// the fast workers at nearly their homogeneous rate, unlike BSP where the
// straggler binds everyone (the paper's future-work direction 1).
func TestASPDecouplesStraggler(t *testing.T) {
	m := model.ResNet18()
	hetero := func(w int) netsim.LinkConfig {
		g := 5.0
		if w == 1 {
			g = 0.3
		}
		return netsim.DefaultLinkConfig(netsim.Const(netsim.Gbps(g)))
	}
	base := smallConfig(t, FIFOFactory(m), 5)
	base.Uplink = hetero
	base.Iterations = 6

	bsp := base
	bspRes, err := Run(bsp)
	if err != nil {
		t.Fatal(err)
	}
	asp := base
	asp.ASP = true
	aspRes, err := Run(asp)
	if err != nil {
		t.Fatal(err)
	}
	// Result.Iters is worker 0's own log, and worker 0 has the fast link:
	// under BSP the straggler drags it down; under ASP it runs free.
	if aspRes.Rate(1) <= bspRes.Rate(1)*1.2 {
		t.Fatalf("ASP fast-worker rate %v not decisively above BSP %v",
			aspRes.Rate(1), bspRes.Rate(1))
	}
}

func TestASPCompletesWithAllSchedulers(t *testing.T) {
	m := model.ResNet18()
	facs := []SchedulerFactory{
		FIFOFactory(m), P3Factory(m, 4e6), ByteSchedulerFactory(m, 4e6),
		mustByName("tictac", m, Options{}), prophetFactory(t, m, 32),
	}
	for _, f := range facs {
		cfg := smallConfig(t, f, 3)
		cfg.ASP = true
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Iters.Count() != cfg.Iterations {
			t.Fatal("ASP run incomplete")
		}
	}
}

func TestASPFasterOrEqualToBSP(t *testing.T) {
	// With homogeneous workers ASP ≈ BSP (barrier rarely binds); it must
	// never be slower beyond jitter.
	m := model.ResNet18()
	cfg := smallConfig(t, FIFOFactory(m), 2)
	bsp, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.ASP = true
	asp, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if asp.Duration > bsp.Duration*1.05 {
		t.Fatalf("ASP slower than BSP: %v vs %v", asp.Duration, bsp.Duration)
	}
}

func TestV100ShiftsCommBoundary(t *testing.T) {
	// On V100-class compute the same job is communication-bound at a
	// bandwidth where M60-class compute hid it.
	m := model.ResNet18()
	cfg := smallConfig(t, FIFOFactory(m), 5)
	m60, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Hardware = model.V100Like()
	v100, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if v100.Rate(1) <= m60.Rate(1) {
		t.Fatal("faster hardware did not raise the training rate")
	}
	if v100.GPUUtil(0, 1) >= m60.GPUUtil(0, 1) {
		t.Fatalf("V100 GPU util %v should be lower (more comm-bound) than M60 %v",
			v100.GPUUtil(0, 1), m60.GPUUtil(0, 1))
	}
}

func TestCustomModelRunsEndToEnd(t *testing.T) {
	sizes := make([]int64, 30)
	flops := make([]float64, 30)
	for i := range sizes {
		sizes[i] = 400_000 // 1.6 MB tensors
		flops[i] = 2e8
	}
	m, err := model.Custom("toy-net", sizes, flops, 0)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Run(Config{
		Model:     m,
		Batch:     32,
		Workers:   2,
		Scheduler: FIFOFactory(m),
		Uplink: func(int) netsim.LinkConfig {
			return netsim.DefaultLinkConfig(netsim.Const(netsim.Gbps(2)))
		},
		Iterations: 4,
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Iters.Count() != 4 {
		t.Fatal("custom model run incomplete")
	}
}
