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
	// Credit is ByteScheduler's credit in bytes; MinCredit/MaxCredit bound
	// the tuner's exploration.
	Credit, MinCredit, MaxCredit float64
	// Seed drives the tuner's per-worker exploration streams.
	Seed uint64
	// Profile is the profiled generation pattern Prophet plans against.
	Profile *core.Profile
}

// ByName builds a factory from a registry name for the PS transport: the
// single entry point the -policy flags and experiments use.
func ByName(name string, m *model.Model, opt Options) (SchedulerFactory, error) {
	return ByNameTransport(name, "ps", 0, m, opt)
}

// linkMonitor attaches Prophet's bandwidth source to a worker's uplink: a
// netsim monitor initialized from the link's rate at time zero (standing in
// for the one-off probe a fresh deployment runs), plus the link's
// setup/ramp cost as the fixed per-message overhead Algorithm 1 sizes
// blocks against.
func linkMonitor(uplink *netsim.Link) (func() float64, func(bw float64) float64) {
	cfg := uplink.Config()
	initial := cfg.Trace.At(0)
	mon := netsim.NewMonitor(uplink, 0.3, initial)
	overhead := func(bw float64) float64 {
		if bw <= 0 {
			return cfg.SetupTime
		}
		return cfg.SetupTime + cfg.RampBytes/bw
	}
	return mon.Estimate, overhead
}

// ByNameTransport builds a factory from a registry name and a transport.
// Prophet gets the wiring each worker needs — a bandwidth monitor on its
// own uplink and a per-message overhead — shaped by the named
// drive.Backend: the PS link's own setup/ramp cost for "ps", the
// collective's wire volume and step count for "ring" and "tree", where
// workers is the ring size the collective runs across (ignored for "ps").
// The other strategies need no transport wiring — their decisions are
// wire-model-free, which is precisely why they run unmodified on every
// backend.
func ByNameTransport(name, transport string, workers int, m *model.Model, opt Options) (SchedulerFactory, error) {
	be, err := drive.BackendByName(transport)
	if err != nil {
		return nil, err
	}
	collective := be.Name() != "ps"
	if collective && workers <= 1 {
		return nil, fmt.Errorf("cluster: transport %q needs workers > 1", be.Name())
	}
	if err := strategy.Check(name); err != nil {
		return nil, err
	}
	if name == "prophet" && opt.Profile == nil {
		return nil, fmt.Errorf("cluster: strategy prophet needs Options.Profile")
	}
	sizes := gradSizes(m)
	return func(w int, eng *sim.Engine, uplink *netsim.Link) schedule.Scheduler {
		p := strategy.Params{
			Sizes:     sizes,
			Partition: opt.Partition,
			Credit:    opt.Credit,
			MinCredit: opt.MinCredit,
			MaxCredit: opt.MaxCredit,
			Seed:      opt.Seed,
			Worker:    w,
			Profile:   opt.Profile,
		}
		if name == "prophet" {
			if collective {
				p.Bandwidth, p.Overhead = collectiveMonitor(uplink, be, workers)
			} else {
				p.Bandwidth, p.Overhead = linkMonitor(uplink)
			}
		}
		s, err := strategy.New(name, p)
		if err != nil {
			panic(err) // name and profile were validated above
		}
		return s
	}, nil
}

// collectiveMonitor is linkMonitor reshaped for a collective backend:
// Prophet plans in payload terms (a block of s bytes), but a collective
// moves total = Σ ChunkBytes(1, W) wire bytes per payload byte (2(W−1)/W
// for both ring and tree) and pays the link's setup/ramp once per chunk
// step. The planner therefore sees the *effective payload bandwidth*
// raw/total, and a per-block overhead of steps·setup + steps·ramp/raw —
// so Algorithm 1's block sizing automatically grows blocks where the
// 2(W−1) per-step overheads would murder small tensors.
func collectiveMonitor(uplink *netsim.Link, be drive.Backend, workers int) (func() float64, func(bw float64) float64) {
	cfg := uplink.Config()
	total := drive.WireVolume(be, workers)
	steps := float64(be.Steps(workers))
	if total <= 0 {
		return linkMonitor(uplink)
	}
	mon := netsim.NewMonitor(uplink, 0.3, cfg.Trace.At(0))
	bandwidth := func() float64 { return mon.Estimate() / total }
	overhead := func(bwEff float64) float64 {
		if bwEff <= 0 {
			return steps * cfg.SetupTime
		}
		return steps*cfg.SetupTime + steps*cfg.RampBytes/(bwEff*total)
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

// TicTacFactory returns the TicTac-style op-level priority strategy.
func TicTacFactory(m *model.Model) SchedulerFactory {
	return mustByName("tictac", m, Options{})
}

// ByteSchedulerFactory returns the credit-based strategy with a fixed
// credit in bytes.
func ByteSchedulerFactory(m *model.Model, credit float64) SchedulerFactory {
	return mustByName("bytescheduler", m, Options{Credit: credit})
}

// TunedByteSchedulerFactory returns ByteScheduler with its online credit
// auto-tuner enabled (exploring minCredit..maxCredit), as in Fig. 3(b).
func TunedByteSchedulerFactory(m *model.Model, credit, minCredit, maxCredit float64, seed uint64) SchedulerFactory {
	return mustByName("bytescheduler-tuned", m, Options{
		Credit: credit, MinCredit: minCredit, MaxCredit: maxCredit, Seed: seed,
	})
}

// ProphetFactory returns the Prophet strategy: each worker attaches a
// bandwidth monitor to its own uplink (initialized from the link's rate at
// time zero, standing in for the one-off probe a fresh deployment runs) and
// re-plans with Algorithm 1 when the estimate drifts.
func ProphetFactory(prof *core.Profile) SchedulerFactory {
	return func(w int, eng *sim.Engine, uplink *netsim.Link) schedule.Scheduler {
		bw, overhead := linkMonitor(uplink)
		s, err := strategy.New("prophet", strategy.Params{
			Profile: prof, Bandwidth: bw, Overhead: overhead,
		})
		if err != nil {
			panic(err) // profile was validated by the profiler
		}
		return s
	}
}
