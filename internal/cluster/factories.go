package cluster

import (
	"fmt"

	"prophet/internal/core"
	"prophet/internal/drive"
	"prophet/internal/model"
	"prophet/internal/netsim"
	"prophet/internal/schedule"
	"prophet/internal/sim"
	"prophet/internal/strategy"
)

// SchedulerFactory builds a per-worker strategy instance.
type SchedulerFactory = func(worker int, eng *sim.Engine, uplink *netsim.Link) schedule.Scheduler

// Options parameterizes ByName. Zero values select the registry defaults
// (paper testbed configuration); Profile is required only for prophet.
type Options struct {
	// Partition is P3's slice size in bytes.
	Partition float64
	// Credit is ByteScheduler's credit in bytes.
	Credit float64
	// Seed drives the tuner's per-worker exploration streams.
	Seed uint64
	// Profile is the profiled generation pattern Prophet plans against.
	Profile *core.Profile
}

// ByName is ByNameTransport on the PS transport. prophet-run's -policy flag
// and most experiments go through ByNameTransport or the typed factories.
func ByName(name string, m *model.Model, opt Options) (SchedulerFactory, error) {
	return ByNameTransport(name, "ps", 0, m, opt)
}

// ByNameTransport builds a factory from a registry name and a transport.
// Prophet gets one planner for the whole factory, so workers whose inputs
// agree share a plan, and the wiring each worker needs — a bandwidth monitor
// on its own uplink and a per-message overhead, both shaped by the named
// drive.Backend (wireMonitor), where workers is the ring size a collective
// runs across (ignored for "ps"). The other strategies need no transport
// wiring — their decisions are wire-model-free, which is precisely why they
// run unmodified on every backend.
func ByNameTransport(name, transport string, workers int, m *model.Model, opt Options) (SchedulerFactory, error) {
	be, err := drive.BackendByName(transport)
	if err != nil {
		return nil, err
	}
	if be.Name() != "ps" && workers <= 1 {
		return nil, fmt.Errorf("cluster: transport %q needs workers > 1", be.Name())
	}
	if err := strategy.Check(name); err != nil {
		return nil, err
	}
	if name == "prophet" {
		if opt.Profile == nil {
			return nil, fmt.Errorf("cluster: strategy prophet needs Options.Profile")
		}
		volume, steps := drive.WireVolume(be, workers), float64(be.Steps(workers))
		return prophetOn(schedule.NewPlanner(opt.Profile, false), volume, steps), nil
	}
	sizes := gradSizes(m)
	return func(w int, _ *sim.Engine, _ *netsim.Link) schedule.Scheduler {
		s, err := strategy.New(name, strategy.Params{
			Sizes:     sizes,
			Partition: opt.Partition,
			Credit:    opt.Credit,
			Seed:      opt.Seed,
			Worker:    w,
		})
		if err != nil {
			panic(err) // name was validated above
		}
		return s
	}, nil
}

// prophetOn builds each worker's Prophet from planner, planning from the
// wire as a backend with this volume and step count shapes it (wireMonitor),
// the same for every worker.
func prophetOn(planner *schedule.Planner, volume, steps float64) SchedulerFactory {
	return func(_ int, _ *sim.Engine, uplink *netsim.Link) schedule.Scheduler {
		bandwidth, overhead := wireMonitor(uplink, volume, steps)
		p, err := schedule.NewProphet(planner, bandwidth, overhead)
		if err != nil {
			panic(err)
		}
		return p
	}
}

// wireMonitor attaches Prophet's bandwidth source to a worker's uplink: a
// netsim monitor initialized from the link's rate at time zero (standing in
// for the one-off probe a fresh deployment runs), and the fixed per-message
// overhead Algorithm 1 sizes blocks against, both seen through the backend.
// Prophet plans in payload terms (a block of s bytes), but a backend moves
// volume = Σ ChunkBytes(1, W) wire bytes per payload byte (1 on the PS wire,
// 2(W−1)/W for both ring and tree) and pays the link's setup/ramp once per
// chunk step (1, 2(W−1), 2⌈log₂W⌉). The planner therefore sees the
// *effective payload bandwidth* raw/volume and a per-block overhead of
// steps·setup + steps·ramp/raw — the PS link's own cost at one step, and on
// a collective what makes Algorithm 1 grow blocks where the per-step
// overheads would murder small tensors.
func wireMonitor(uplink *netsim.Link, volume, steps float64) (func() float64, func(bw float64) float64) {
	cfg := uplink.Config()
	setup, ramp := cfg.SetupTime, cfg.RampBytes
	mon := netsim.NewMonitor(uplink, 0.3, cfg.Trace.At(0))
	bandwidth := func() float64 { return mon.Estimate() / volume }
	overhead := func(bwEff float64) float64 {
		if bwEff <= 0 {
			return steps * setup
		}
		return steps*setup + steps*ramp/(bwEff*volume)
	}
	return bandwidth, overhead
}

// mustByName is ByName for names and options already validated by the
// caller (the typed helpers below).
func mustByName(name string, m *model.Model, opt Options) SchedulerFactory {
	f, err := ByName(name, m, opt)
	if err != nil {
		panic(err)
	}
	return f
}

// FIFOFactory returns the default-framework (MXNet) strategy.
func FIFOFactory(m *model.Model) SchedulerFactory {
	return mustByName("fifo", m, Options{})
}

// P3Factory returns the P3 strategy with the given partition size in bytes
// (the paper configures 4 MB).
func P3Factory(m *model.Model, partition float64) SchedulerFactory {
	return mustByName("p3", m, Options{Partition: partition})
}

// ByteSchedulerFactory returns the credit-based strategy with a fixed
// credit in bytes.
func ByteSchedulerFactory(m *model.Model, credit float64) SchedulerFactory {
	return mustByName("bytescheduler", m, Options{Credit: credit})
}

// TunedByteSchedulerFactory returns ByteScheduler with its online credit
// auto-tuner enabled, starting at the default credit and exploring
// strategy.DefaultMinCredit..DefaultMaxCredit, as in Fig. 3(b).
func TunedByteSchedulerFactory(m *model.Model, seed uint64) SchedulerFactory {
	return mustByName("bytescheduler-tuned", m, Options{Seed: seed})
}

// ProphetFactory returns the Prophet strategy on the PS transport: each
// worker attaches a bandwidth monitor to its own uplink and re-plans through
// planner when the estimate drifts. Prophet takes its gradient sizes from
// the planner's profile, so there is no model to pass.
func ProphetFactory(planner *schedule.Planner) SchedulerFactory {
	return prophetOn(planner, 1, 1) // the PS wire moves each payload byte once, in one step
}
