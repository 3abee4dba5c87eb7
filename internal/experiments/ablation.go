package experiments

import (
	"fmt"
	"io"

	"prophet/internal/cluster"
	"prophet/internal/experiments/runner"
	"prophet/internal/model"
	"prophet/internal/netsim"
	"prophet/internal/profiler"
	"prophet/internal/schedule"
	"prophet/internal/sim"
	"prophet/internal/stepwise"
)

// AblationBlocksResult isolates what the stepwise windows buy: Prophet with
// profiled windows vs a variant whose windows are all infinite (blocks grow
// unbounded, so preemption is lost) vs fixed-credit scheduling.
type AblationBlocksResult struct {
	Prophet, NoWindows, FixedCredit float64
}

// Render implements Result.
func (r *AblationBlocksResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Ablation — window-fitted blocks (ResNet50 bs64, 2 Gbps)\n")
	fmt.Fprintf(w, "  prophet (profiled windows)   %6.2f samples/s\n", r.Prophet)
	fmt.Fprintf(w, "  prophet (windows removed)    %6.2f samples/s\n", r.NoWindows)
	fmt.Fprintf(w, "  fixed 4 MB credit            %6.2f samples/s\n", r.FixedCredit)
}

// ablationBlocks runs the ablation.
func ablationBlocks(cfg Config) (*AblationBlocksResult, error) {
	s, err := prepare(model.ResNet50(), 64, cfg.Seed)
	if err != nil {
		return nil, err
	}
	link := linkMbps(2000)
	// Windows removed: same Prophet, but block assembly ignores the
	// stepwise transfer windows.
	noWinFactory := cluster.ProphetFactory(schedule.NewPlanner(s.prof.Profile(), true))
	factories := []cluster.SchedulerFactory{s.prophet(), noWinFactory, s.byteScheduler()}
	rates, err := runner.Map(cfg.Jobs, factories, func(_ int, f cluster.SchedulerFactory) (float64, error) {
		return s.rate(cfg, f, link, 3)
	})
	if err != nil {
		return nil, err
	}
	return &AblationBlocksResult{Prophet: rates[0], NoWindows: rates[1], FixedCredit: rates[2]}, nil
}

// AblationMonitorResult shows the bandwidth monitor's value: under a
// varying-bandwidth trace, Prophet re-planning from monitored bandwidth vs
// a variant stuck with its initial estimate.
type AblationMonitorResult struct {
	Monitored, Stale float64
}

// Render implements Result.
func (r *AblationMonitorResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Ablation — bandwidth monitor under varying bandwidth (ResNet50 bs64)\n")
	fmt.Fprintf(w, "  monitored (re-planning)  %6.2f samples/s\n", r.Monitored)
	fmt.Fprintf(w, "  stale initial estimate   %6.2f samples/s\n", r.Stale)
}

// ablationMonitor runs the ablation.
func ablationMonitor(cfg Config) (*AblationMonitorResult, error) {
	if cfg.Iterations < 16 {
		cfg.Iterations = 16
	}
	s, err := prepare(model.ResNet50(), 64, cfg.Seed)
	if err != nil {
		return nil, err
	}
	// Bandwidth drops from 4 Gbps to 1.5 Gbps mid-run and recovers.
	varying := func(int) netsim.LinkConfig {
		tr := netsim.NewStepTrace(
			netsim.Step{From: 0, Rate: netsim.Goodput(netsim.Gbps(4))},
			netsim.Step{From: 8, Rate: netsim.Goodput(netsim.Gbps(1.5))},
			netsim.Step{From: 25, Rate: netsim.Goodput(netsim.Gbps(4))},
		)
		return netsim.DefaultLinkConfig(tr)
	}
	// Stale variant: bandwidth source pinned to the t=0 estimate.
	planner := schedule.NewPlanner(s.prof.Profile(), false)
	staleFactory := func(w int, eng *sim.Engine, uplink *netsim.Link) schedule.Scheduler {
		lcfg := uplink.Config()
		initial := lcfg.Trace.At(0)
		overhead := func(bw float64) float64 { return lcfg.SetupTime + lcfg.RampBytes/bw }
		p, err := schedule.NewProphet(planner, func() float64 { return initial }, overhead)
		if err != nil {
			panic(err)
		}
		return p
	}
	factories := []cluster.SchedulerFactory{s.prophet(), staleFactory}
	rates, err := runner.Map(cfg.Jobs, factories, func(_ int, f cluster.SchedulerFactory) (float64, error) {
		return s.rate(cfg, f, varying, 3)
	})
	if err != nil {
		return nil, err
	}
	return &AblationMonitorResult{Monitored: rates[0], Stale: rates[1]}, nil
}

// AblationProfileResult compares plan quality from a 5-iteration profile
// against the paper's 50 iterations, under compute jitter.
type AblationProfileResult struct {
	Short, Long   float64
	ShortWallTime float64
	LongWallTime  float64
}

// Render implements Result.
func (r *AblationProfileResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Ablation — profiling length (ResNet50 bs64, 2 Gbps)\n")
	fmt.Fprintf(w, "  5-iteration profile   %6.2f samples/s (profiling cost %5.1f s)\n", r.Short, r.ShortWallTime)
	fmt.Fprintf(w, "  50-iteration profile  %6.2f samples/s (profiling cost %5.1f s)\n", r.Long, r.LongWallTime)
}

// ablationProfile runs the ablation.
func ablationProfile(cfg Config) (*AblationProfileResult, error) {
	base := model.ResNet50()
	wire := model.WithWireFactor(base, WireFactor)
	agg := stepwise.DefaultAggregate(wire)
	link := linkMbps(2000)
	type row struct{ rate, wall float64 }
	rows, err := runner.Map(cfg.Jobs, []int{5, 50}, func(_ int, n int) (row, error) {
		prof, err := profiler.Run(profiler.Config{
			Model: wire, Batch: 64, Agg: agg, Seed: cfg.Seed, Iterations: n,
		})
		if err != nil {
			return row{}, err
		}
		s := &setup{wire: wire, batch: 64, agg: agg, prof: prof}
		rate, err := s.rate(cfg, s.prophet(), link, 3)
		return row{rate: rate, wall: prof.WallTime}, err
	})
	if err != nil {
		return nil, err
	}
	return &AblationProfileResult{
		Short: rows[0].rate, ShortWallTime: rows[0].wall,
		Long: rows[1].rate, LongWallTime: rows[1].wall,
	}, nil
}

// AblationOverheadResult removes the per-message overhead entirely: with a
// free wire, P3's fine partitions stop losing — demonstrating that Eq. 10's
// message-size penalty is what separates the strategies.
type AblationOverheadResult struct {
	// WithOverhead / NoOverhead: [fifo, p3, bytescheduler, prophet].
	WithOverhead, NoOverhead [4]float64
}

// Render implements Result.
func (r *AblationOverheadResult) Render(w io.Writer) {
	names := [4]string{"fifo", "p3", "bytescheduler", "prophet"}
	fmt.Fprintf(w, "Ablation — per-message overhead on/off (ResNet50 bs64, 2 Gbps)\n")
	fmt.Fprintf(w, "  %-14s %12s %12s\n", "strategy", "with", "without")
	for i, n := range names {
		fmt.Fprintf(w, "  %-14s %9.2f/s %9.2f/s\n", n, r.WithOverhead[i], r.NoOverhead[i])
	}
	fmt.Fprintf(w, "  without per-message costs the strategies converge: the overhead model\n")
	fmt.Fprintf(w, "  (Eq. 10) is what penalizes fine-grained partitioning\n")
}

// ablationOverhead runs the ablation.
func ablationOverhead(cfg Config) (*AblationOverheadResult, error) {
	s, err := prepare(model.ResNet50(), 64, cfg.Seed)
	if err != nil {
		return nil, err
	}
	freeWire := func(int) netsim.LinkConfig {
		return netsim.LinkConfig{
			Trace:     netsim.Const(netsim.Goodput(netsim.Mbps(2000))),
			SetupTime: 0,
			RampBytes: 0,
		}
	}
	// Flatten the 2 variants × 4 strategies sweep into 8 independent jobs.
	type job struct {
		factory cluster.SchedulerFactory
		link    func(int) netsim.LinkConfig
	}
	var jobs []job
	for variant := 0; variant < 2; variant++ {
		link := linkMbps(2000)
		if variant == 1 {
			link = freeWire
		}
		for _, f := range []cluster.SchedulerFactory{s.fifo(), s.p3(), s.byteScheduler(), s.prophet()} {
			jobs = append(jobs, job{factory: f, link: link})
		}
	}
	rates, err := runner.Map(cfg.Jobs, jobs, func(_ int, j job) (float64, error) {
		return s.rate(cfg, j.factory, j.link, 3)
	})
	if err != nil {
		return nil, err
	}
	out := &AblationOverheadResult{}
	for i := 0; i < 4; i++ {
		out.WithOverhead[i] = rates[i]
		out.NoOverhead[i] = rates[4+i]
	}
	return out, nil
}
