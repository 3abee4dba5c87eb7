package experiments

import (
	"fmt"
	"io"

	"prophet/internal/cluster"
	"prophet/internal/experiments/runner"
	"prophet/internal/model"
	"prophet/internal/profiler"
	"prophet/internal/stepwise"
)

// Fig12Result reproduces the scalability experiment: per-worker training
// rate stays nearly flat from 2 to 8 workers, showing Algorithm 1 adds no
// per-worker coordination cost (paper: 69.94 → 68.83 samples/s/worker).
type Fig12Result struct {
	Rows []Fig12Row
}

// Fig12Row is one cluster size.
type Fig12Row struct {
	Workers                    int
	PerWorkerRate, ClusterRate float64
}

// Render implements Result.
func (r *Fig12Result) Render(w io.Writer) {
	fmt.Fprintf(w, "Fig. 12 — Prophet scalability (ResNet50 bs64, per-worker 4.5 Gbps)\n")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "  %d workers: %6.2f samples/s/worker  (%7.2f aggregate)\n",
			row.Workers, row.PerWorkerRate, row.ClusterRate)
	}
	fmt.Fprintf(w, "  paper: per-worker rate 69.94 → 68.83 from 2 to 8 workers (near-linear)\n")
}

// fig12 runs the experiment.
func fig12(cfg Config) (*Fig12Result, error) {
	s, err := prepare(model.ResNet50(), 64, cfg.Seed)
	if err != nil {
		return nil, err
	}
	counts := []int{2, 4, 6, 8}
	rows, err := runner.Map(cfg.Jobs, counts, func(_ int, n int) (Fig12Row, error) {
		res, err := s.run(cfg, s.prophet(), linkMbps(4500), n)
		if err != nil {
			return Fig12Row{}, err
		}
		return Fig12Row{Workers: n, PerWorkerRate: res.Rate(cfg.Warmup), ClusterRate: res.ClusterRate(cfg.Warmup)}, nil
	})
	if err != nil {
		return nil, err
	}
	return &Fig12Result{Rows: rows}, nil
}

// Fig13Result reproduces the profiling-overhead view: during the profiling
// window Prophet runs unoptimized (FIFO-equivalent), so its early GPU
// utilization trails ByteScheduler's; once the plan is in place it
// overtakes.
type Fig13Result struct {
	// ProphetTimeline includes the profiling prefix; BSTimeline is the
	// same wall-clock span under ByteScheduler.
	ProphetTimeline, BSTimeline []float64
	// ProfilingSeconds is where the profiling window ends.
	ProfilingSeconds float64
	// EarlyProphet/EarlyBS and LateProphet/LateBS are average utilizations
	// inside and after the profiling window.
	EarlyProphet, EarlyBS, LateProphet, LateBS float64
}

// Render implements Result.
func (r *Fig13Result) Render(w io.Writer) {
	fmt.Fprintf(w, "Fig. 13 — GPU utilization around the profiling window (ResNet50 bs64)\n")
	fmt.Fprintf(w, "  prophet  %s\n", sparkline(r.ProphetTimeline, 0, 1))
	fmt.Fprintf(w, "  bytesch  %s\n", sparkline(r.BSTimeline, 0, 1))
	fmt.Fprintf(w, "  profiling ends at %.1f s\n", r.ProfilingSeconds)
	fmt.Fprintf(w, "  early window: prophet %.1f%% vs bytescheduler %.1f%%\n", 100*r.EarlyProphet, 100*r.EarlyBS)
	fmt.Fprintf(w, "  steady state: prophet %.1f%% vs bytescheduler %.1f%%\n", 100*r.LateProphet, 100*r.LateBS)
	fmt.Fprintf(w, "  paper: Prophet slightly lower during the first seconds, then higher\n")
}

// fig13 runs the experiment. The profiling window is modeled by running
// the first profileIters iterations under FIFO (the framework's default
// while Prophet is still collecting c(i)), then switching to Prophet.
func fig13(cfg Config) (*Fig13Result, error) {
	s, err := prepare(model.ResNet50(), 64, cfg.Seed)
	if err != nil {
		return nil, err
	}
	const workers = 3
	link := sharedPSLink(workers)
	profileIters := 4
	if cfg.Iterations <= profileIters+2 {
		cfg.Iterations = profileIters + 6
	}

	// Prophet run: FIFO prefix (profiling) then Prophet steady state. The
	// cluster API runs one strategy per run, so emulate the switch by
	// running the prefix and suffix separately and concatenating
	// timelines. All three runs are independent simulations.
	var pre, post, bs *cluster.Result
	err = runner.Run(cfg.Jobs, 3, func(i int) error {
		var err error
		switch i {
		case 0:
			pre, err = s.run(Config{Iterations: profileIters, Seed: cfg.Seed}, s.fifo(), link, workers)
		case 1:
			post, err = s.run(cfg, s.prophet(), link, workers)
		case 2:
			bs, err = s.run(cfg, s.byteScheduler(), link, workers)
		}
		return err
	})
	if err != nil {
		return nil, err
	}

	const bin = 0.1
	preTL := pre.GPU[0].Timeline(0, pre.Duration, bin)
	postTL := post.GPU[0].Timeline(post.Iters.Starts[1], post.Duration, bin)
	prophetTL := append(preTL, postTL...)
	bsTL := bs.GPU[0].Timeline(0, bs.Duration, bin)

	early := pre.GPU[0].Utilization(0, pre.Duration)
	late := post.GPUUtil(0, cfg.Warmup)
	earlyBS := bs.GPU[0].Utilization(0, pre.Duration)
	lateBS := bs.GPUUtil(0, cfg.Warmup)
	return &Fig13Result{
		ProphetTimeline:  prophetTL,
		BSTimeline:       bsTL,
		ProfilingSeconds: pre.Duration,
		EarlyProphet:     early,
		EarlyBS:          earlyBS,
		LateProphet:      late,
		LateBS:           lateBS,
	}, nil
}

// Sec53BandwidthResult reproduces the ResNet18 bandwidth observation:
// at 3 Gbps the strategies separate (paper: MXNet 110, P3 137, Prophet 153
// samples/s); at 10 Gbps they all converge near 220.
type Sec53BandwidthResult struct {
	Rows []Sec53BandwidthRow
}

// Sec53BandwidthRow is one bandwidth limit.
type Sec53BandwidthRow struct {
	LimitMbps             float64
	FIFO, P3Rate, Prophet float64
}

// Render implements Result.
func (r *Sec53BandwidthResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Sec. 5.3 — ResNet18 bs64 rate under bandwidth limits\n")
	fmt.Fprintf(w, "  %-8s %8s %8s %8s\n", "Mbps", "mxnet", "p3", "prophet")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "  %-8.0f %8.2f %8.2f %8.2f\n", row.LimitMbps, row.FIFO, row.P3Rate, row.Prophet)
	}
	fmt.Fprintf(w, "  paper: 110 / 137 / 153 at 3 Gbps; all ≈220 at 10 Gbps\n")
}

// sec53Bandwidth runs the experiment.
func sec53Bandwidth(cfg Config) (*Sec53BandwidthResult, error) {
	s, err := prepare(model.ResNet18(), 64, cfg.Seed)
	if err != nil {
		return nil, err
	}
	limits := []float64{3000, 10000}
	rows, err := runner.Map(cfg.Jobs, limits, func(_ int, mbps float64) (Sec53BandwidthRow, error) {
		link := linkMbps(mbps)
		fifo, err := s.rate(cfg, s.fifo(), link, 3)
		if err != nil {
			return Sec53BandwidthRow{}, err
		}
		p3, err := s.rate(cfg, s.p3(), link, 3)
		if err != nil {
			return Sec53BandwidthRow{}, err
		}
		pro, err := s.rate(cfg, s.prophet(), link, 3)
		if err != nil {
			return Sec53BandwidthRow{}, err
		}
		return Sec53BandwidthRow{LimitMbps: mbps, FIFO: fifo, P3Rate: p3, Prophet: pro}, nil
	})
	if err != nil {
		return nil, err
	}
	return &Sec53BandwidthResult{Rows: rows}, nil
}

// Sec53HeteroResult reproduces the heterogeneous-cluster experiment: one
// worker limited to 500 Mbps binds everyone under BSP (paper: Prophet 26.4,
// ByteScheduler 25.8, MXNet 15.09 samples/s).
type Sec53HeteroResult struct {
	FIFO, BS, Prophet float64
}

// Render implements Result.
func (r *Sec53HeteroResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Sec. 5.3 — heterogeneous cluster (one worker at 500 Mbps), ResNet50 bs64\n")
	fmt.Fprintf(w, "  mxnet %6.2f   bytescheduler %6.2f   prophet %6.2f samples/s\n", r.FIFO, r.BS, r.Prophet)
	fmt.Fprintf(w, "  paper: 15.09 / 25.8 / 26.4 — both schedulers beat MXNet; Prophet edges BS\n")
}

// sec53Hetero runs the experiment.
func sec53Hetero(cfg Config) (*Sec53HeteroResult, error) {
	s, err := prepare(model.ResNet50(), 64, cfg.Seed)
	if err != nil {
		return nil, err
	}
	factories := []cluster.SchedulerFactory{s.fifo(), s.byteScheduler(), s.prophet()}
	rates, err := runner.Map(cfg.Jobs, factories, func(_ int, f cluster.SchedulerFactory) (float64, error) {
		return s.rate(cfg, f, heteroLink, 3)
	})
	if err != nil {
		return nil, err
	}
	return &Sec53HeteroResult{FIFO: rates[0], BS: rates[1], Prophet: rates[2]}, nil
}

// Sec54ProfilingResult reproduces the profiling-overhead accounting: wall
// time of the 50-iteration profiling run per model (paper: Inception-v3
// bs32 7 s, ResNet50 bs64 9.5 s, ResNet152 bs32 24.7 s).
type Sec54ProfilingResult struct {
	Rows []Sec54ProfilingRow
}

// Sec54ProfilingRow is one model's profiling cost next to the paper's.
type Sec54ProfilingRow struct {
	Model             string
	Batch             int
	WallTimeS, PaperS float64
}

// Render implements Result.
func (r *Sec54ProfilingResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Sec. 5.4 — profiling overhead (50 iterations of compute)\n")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "  %-14s bs%-3d  measured %6.1f s   paper %5.1f s\n",
			row.Model, row.Batch, row.WallTimeS, row.PaperS)
	}
	fmt.Fprintf(w, "  shape: ResNet152 most expensive, well under a minute in all cases\n")
}

// sec54Profiling runs the experiment.
func sec54Profiling(cfg Config) (*Sec54ProfilingResult, error) {
	type job struct {
		base   *model.Model
		batch  int
		paperS float64
	}
	jobs := []job{
		{model.InceptionV3(), 32, 7},
		{model.ResNet50(), 64, 9.5},
		{model.ResNet152(), 32, 24.7},
	}
	rows, err := runner.Map(cfg.Jobs, jobs, func(_ int, j job) (Sec54ProfilingRow, error) {
		wire := model.WithWireFactor(j.base, WireFactor)
		agg := stepwise.DefaultAggregate(wire)
		res, err := profiler.Run(profiler.Config{
			Model: wire, Batch: j.batch, Agg: agg, Seed: cfg.Seed,
		})
		if err != nil {
			return Sec54ProfilingRow{}, err
		}
		return Sec54ProfilingRow{Model: j.base.Name, Batch: j.batch, WallTimeS: res.WallTime, PaperS: j.paperS}, nil
	})
	if err != nil {
		return nil, err
	}
	return &Sec54ProfilingResult{Rows: rows}, nil
}
