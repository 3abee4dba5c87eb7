package experiments

import (
	"fmt"
	"io"

	"prophet/internal/cluster"
	"prophet/internal/core"
	"prophet/internal/experiments/runner"
	"prophet/internal/model"
	"prophet/internal/profiler"
	"prophet/internal/sim"
	"prophet/internal/stepwise"
)

// Fig2Result reproduces the paper's motivation measurement: training
// ResNet152 with default MXNet (FIFO) scheduling, the GPU goes fully idle
// for long stretches of each iteration while pulls block forward
// propagation, and the network idles during compute.
type Fig2Result struct {
	// GPUUtil and NetThroughput are 100 ms-binned timelines over the
	// steady-state window (utilization fraction; bytes/sec).
	GPUUtil, NetThroughput []float64
	// AvgGPUUtil is the steady-state GPU utilization.
	AvgGPUUtil float64
	// IdleFraction is the fraction of bins with GPU utilization < 5%.
	IdleFraction float64
}

// Render implements Result.
func (r *Fig2Result) Render(w io.Writer) {
	fmt.Fprintf(w, "Fig. 2 — ResNet152, default MXNet (FIFO), 3 workers, 3 Gbps\n")
	fmt.Fprintf(w, "  GPU util   %s\n", sparkline(r.GPUUtil, 0, 1))
	fmt.Fprintf(w, "  net (up)   %s\n", sparkline(r.NetThroughput, 0, sim.Max(r.NetThroughput)))
	fmt.Fprintf(w, "  avg GPU utilization: %.1f%%   fully-idle bins: %.0f%%\n",
		100*r.AvgGPUUtil, 100*r.IdleFraction)
	fmt.Fprintf(w, "  paper: GPU totally idle for over 50%% of iteration time under pulls\n")
}

// fig2 runs the experiment.
func fig2(cfg Config) (*Fig2Result, error) {
	s, err := prepare(model.ResNet152(), 32, cfg.Seed)
	if err != nil {
		return nil, err
	}
	res, rec, err := s.runRecorded(cfg, s.fifo(), linkMbps(3000), 3)
	if err != nil {
		return nil, err
	}
	from := res.Iters.Starts[cfg.Warmup]
	gpu := res.GPU[0].Timeline(from, res.Duration, 0.1)
	net := rec.Rate(0).Timeline(from, res.Duration, 0.1)
	idle := 0
	for _, u := range gpu {
		if u < 0.05 {
			idle++
		}
	}
	return &Fig2Result{
		GPUUtil:       gpu,
		NetThroughput: net,
		AvgGPUUtil:    res.GPUUtil(0, cfg.Warmup),
		IdleFraction:  float64(idle) / float64(len(gpu)),
	}, nil
}

// Fig3aResult reproduces P3's sensitivity to partition size: tiny
// partitions multiply per-message overhead and collapse the training rate.
type Fig3aResult struct {
	// PartitionsMB lists the swept partition sizes.
	PartitionsMB []float64
	// Rates are steady-state samples/sec per partition size.
	Rates []float64
}

// Render implements Result.
func (r *Fig3aResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Fig. 3(a) — P3 training rate vs partition size (ResNet50 bs64, 3 Gbps)\n")
	for i, p := range r.PartitionsMB {
		fmt.Fprintf(w, "  %6.2f MB  %6.2f samples/s\n", p, r.Rates[i])
	}
	fmt.Fprintf(w, "  paper: smaller partitions dramatically decrease the training rate\n")
}

// fig3a runs the experiment.
func fig3a(cfg Config) (*Fig3aResult, error) {
	s, err := prepare(model.ResNet50(), 64, cfg.Seed)
	if err != nil {
		return nil, err
	}
	parts := []float64{0.25e6, 0.5e6, 1e6, 2e6, 4e6, 8e6, 16e6}
	rates, err := runner.Map(cfg.Jobs, parts, func(_ int, p float64) (float64, error) {
		return s.rate(cfg, s.p3At(p), linkMbps(3000), 3)
	})
	if err != nil {
		return nil, err
	}
	out := &Fig3aResult{Rates: rates}
	for _, p := range parts {
		out.PartitionsMB = append(out.PartitionsMB, p/1e6)
	}
	return out, nil
}

// Fig3bResult reproduces ByteScheduler's rate fluctuation while its credit
// auto-tuner probes: the paper observes 44–56 samples/sec swings.
type Fig3bResult struct {
	// PerIterRates is the per-iteration samples/sec series with tuning on.
	PerIterRates []float64
	// FixedRates is the same with a fixed credit, for contrast.
	FixedRates []float64
	// Spread is (max-min)/mean of the tuned series after warmup.
	Spread float64
	// FixedSpread is the same for the fixed-credit series.
	FixedSpread float64
}

// Render implements Result.
func (r *Fig3bResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Fig. 3(b) — ByteScheduler rate over iterations (ResNet50 bs64, 3 Gbps)\n")
	fmt.Fprintf(w, "  tuned  %s  (spread %.0f%%)\n",
		sparkline(r.PerIterRates, sim.Min(r.PerIterRates), sim.Max(r.PerIterRates)), 100*r.Spread)
	fmt.Fprintf(w, "  fixed  %s  (spread %.0f%%)\n",
		sparkline(r.FixedRates, sim.Min(r.PerIterRates), sim.Max(r.PerIterRates)), 100*r.FixedSpread)
	fmt.Fprintf(w, "  paper: rate fluctuates 44-56 samples/sec while credit is auto-tuned\n")
}

// fig3b runs the experiment.
func fig3b(cfg Config) (*Fig3bResult, error) {
	if cfg.Iterations < 40 {
		cfg.Iterations = 40 // tuning needs iterations to show its probes
	}
	s, err := prepare(model.ResNet50(), 64, cfg.Seed)
	if err != nil {
		return nil, err
	}
	runs := []cluster.SchedulerFactory{s.tunedByteScheduler(cfg.Seed), s.byteScheduler()}
	results, err := runner.Map(cfg.Jobs, runs, func(_ int, f cluster.SchedulerFactory) (*cluster.Result, error) {
		return s.run(cfg, f, linkMbps(3000), 3)
	})
	if err != nil {
		return nil, err
	}
	tuned, fixed := results[0], results[1]
	spread := func(xs []float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		return (sim.Max(xs) - sim.Min(xs)) / sim.Mean(xs)
	}
	tr := tuned.Iters.PerIterationRates(s.batch)[cfg.Warmup:]
	fr := fixed.Iters.PerIterationRates(s.batch)[cfg.Warmup:]
	return &Fig3bResult{
		PerIterRates: tr,
		FixedRates:   fr,
		Spread:       spread(tr),
		FixedSpread:  spread(fr),
	}, nil
}

// Fig4Result reproduces the stepwise pattern: gradient release times form
// clear steps, detected as blocks, for ResNet50 (paper: e.g. gradients
// 144–156 arrive together) and VGG19 (paper: four blocks).
type Fig4Result struct {
	// ResNet50Blocks and VGG19Blocks are the detected stepwise blocks in
	// generation order.
	ResNet50Blocks []stepwise.Block
	VGG19Blocks    []stepwise.Block
	// ResNet50Gen is the per-gradient release time series (by index).
	ResNet50Gen []float64
}

// Render implements Result.
func (r *Fig4Result) Render(w io.Writer) {
	fmt.Fprintf(w, "Fig. 4 — stepwise pattern of gradient generation times\n")
	fmt.Fprintf(w, "  ResNet50: %d blocks detected:\n", len(r.ResNet50Blocks))
	for _, b := range r.ResNet50Blocks {
		fmt.Fprintf(w, "    {gradient %3d - gradient %3d} released at %6.1f ms\n", b.Lo, b.Hi, 1e3*b.Release)
	}
	fmt.Fprintf(w, "  VGG19: %d blocks detected:\n", len(r.VGG19Blocks))
	for _, b := range r.VGG19Blocks {
		fmt.Fprintf(w, "    {gradient %3d - gradient %3d} released at %6.1f ms\n", b.Lo, b.Hi, 1e3*b.Release)
	}
	fmt.Fprintf(w, "  paper: ResNet50 gradients arrive in bursts (e.g. {144-156}); VGG19 in 4 blocks\n")
}

// fig4 runs the experiment.
func fig4(cfg Config) (*Fig4Result, error) {
	rn, err := prepare(model.ResNet50(), 64, cfg.Seed)
	if err != nil {
		return nil, err
	}
	// VGG19's pattern in the paper comes from TensorFlow's communication
	// buffer, which groups a dozen-or-so tensors per flush.
	vggWire := model.WithWireFactor(model.VGG19(), WireFactor)
	vggAgg := stepwise.Aggregate(vggWire, vggWire.TotalBytes(), 12)
	vggProf, err := profiler.Run(profiler.Config{
		Model: vggWire, Batch: 64, Agg: vggAgg, Seed: cfg.Seed * 97,
	})
	if err != nil {
		return nil, err
	}
	return &Fig4Result{
		ResNet50Blocks: rn.prof.Blocks,
		VGG19Blocks:    vggProf.Blocks,
		ResNet50Gen:    rn.prof.Gen,
	}, nil
}

// Fig5Result reproduces the illustrative Sec. 2.3 example: a toy profile
// with one huge low-priority gradient (gradient 1) generated shortly before
// the critical gradient 0. It reports, per strategy, when gradient 0's
// transfer starts and when all communication finishes — Prophet starts
// gradient 0 immediately while FIFO blocks it behind gradient 1.
type Fig5Result struct {
	// Strategies, Grad0Start (s), Finish (s), aligned by index.
	Strategies []string
	Grad0Start []float64
	Finish     []float64
}

// Render implements Result.
func (r *Fig5Result) Render(w io.Writer) {
	fmt.Fprintf(w, "Fig. 5 — illustrative example (gradient 1 large, gradient 0 critical)\n")
	for i, s := range r.Strategies {
		fmt.Fprintf(w, "  %-14s gradient-0 starts at %6.1f ms, all transfers done at %6.1f ms\n",
			s, 1e3*r.Grad0Start[i], 1e3*r.Finish[i])
	}
	fmt.Fprintf(w, "  paper: Prophet sends only the partitions of gradient 1 that fit before\n")
	fmt.Fprintf(w, "  gradient 0 is generated, so gradient 0 never waits\n")
}

// fig5 runs the analytical example through the Sec. 3 wait model.
func fig5(Config) (*Fig5Result, error) {
	// Toy profile: gradient 2 (small) at t=10ms, gradient 1 (12 MB) at
	// t=20ms, gradient 0 (1 MB) at t=60ms. Bandwidth 100 MB/s, partitions
	// of 2 MB.
	gen := []float64{0.060, 0.020, 0.010}
	bytes := []float64{1e6, 12e6, 2e6}
	bw := 100e6
	prof, err := core.NewProfile(gen, bytes, 1e-3)
	if err != nil {
		return nil, err
	}
	plan, err := core.Assemble(prof, core.Config{Bandwidth: bw, Partition: 2e6})
	if err != nil {
		return nil, err
	}
	est := make([]float64, len(gen))
	fwd := make([]float64, len(gen))
	for i := range est {
		est[i] = bytes[i] / bw
		fwd[i] = 0.01
	}
	m := core.WaitModel{Gen: gen, Est: est, FwdTime: fwd}

	finish := func(t []float64) float64 {
		var end float64
		for i, s := range t {
			if s+est[i] > end {
				end = s + est[i]
			}
		}
		return end
	}
	fifoT := m.FIFOStarts()
	prioT := m.PriorityStarts()
	out := &Fig5Result{}
	add := func(name string, g0 float64, fin float64) {
		out.Strategies = append(out.Strategies, name)
		out.Grad0Start = append(out.Grad0Start, g0)
		out.Finish = append(out.Finish, fin)
	}
	add("default-fifo", fifoT[0], finish(fifoT))
	add("p3-priority", prioT[0], finish(prioT))
	// Prophet: use the plan's start times; finish = last unit end.
	var planFinish float64
	for _, u := range plan.Units {
		end := u.PlannedStart + u.Bytes/bw
		if end > planFinish {
			planFinish = end
		}
	}
	add("prophet", plan.Start[0], planFinish)
	return out, nil
}
