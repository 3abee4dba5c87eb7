package main

import (
	"fmt"
	"sort"

	"prophet/internal/cluster"
	"prophet/internal/core"
	"prophet/internal/drive"
	"prophet/internal/netsim"
	"prophet/internal/profiler"
	"prophet/internal/schedule"
	"prophet/internal/sim"
	"prophet/internal/strategy"
)

// Layer replays of the simulator stack: sim → netsim → core →
// schedule/strategy → drive → cluster/allreduce. Each calls the layer's
// public API with the message shapes sim-sweep produces, from outside the
// program, and records spans around the calls.

// replaySimEngine times Engine.Schedule + the event firing in a ping-pong.
func (p *pass) replaySimEngine(parent int) error {
	const events = 200_000
	per, err := p.tr.loop("sim.Engine.Schedule+Run", parent, p.slice, func(int) (int, error) {
		eng := sim.New()
		n := 0
		var tick func()
		tick = func() {
			if n++; n < events {
				eng.Schedule(1, tick)
			}
		}
		eng.Schedule(1, tick)
		eng.Run()
		return events, nil
	})
	p.set("sim.event_ns", 1e9*per)
	return err
}

// replayNetsim times Link.Send/SendExtra of the workload's size mix on an
// otherwise idle engine: the PS half's uplink message sizes, and for each
// the ring half's chunk of it with a dispatch stall, as collectiveTx sends.
func (p *pass) replayNetsim(parent int) error {
	res, err := p.sim.runPS("prophet", func(c *cluster.Config) { c.RecordLinks = true }, nil)
	if err != nil {
		return err
	}
	msgs := 0
	for w := range res.UpRecords {
		msgs += len(res.UpRecords[w]) + len(res.DownRecords[w])
	}
	p.set("netsim.msgs_per_iter", float64(msgs)/simIters)
	var sizes []float64
	for _, r := range res.UpRecords[0] {
		sizes = append(sizes, r.Bytes)
	}
	if len(sizes) == 0 {
		return fmt.Errorf("netsim replay: no uplink messages recorded")
	}
	per, err := p.tr.loop("netsim.Link.Send", parent, p.slice, func(int) (int, error) {
		eng := sim.New()
		link := netsim.NewLink(eng, p.sim.link)
		for rep := 0; rep < 20; rep++ {
			for _, s := range sizes {
				link.Send(s, "push", nil)
				eng.Run()
				link.SendExtra(s/simRingWorkers, schedule.DefaultProphetEngineCost, "chunk", nil)
				eng.Run()
			}
		}
		return 40 * len(sizes), nil
	})
	p.set("netsim.send_ns", 1e9*per)
	return err
}

// replayCore times Algorithm 1 on the workload's profile.
func (p *pass) replayCore(parent int) error {
	cfg := core.Config{Bandwidth: p.sim.link.Trace.At(0)}
	blocks := 0
	per, err := p.tr.loop("core.Assemble", parent, p.slice, func(int) (int, error) {
		for i := 0; i < 20; i++ {
			plan, err := core.Assemble(p.sim.prof, cfg)
			if err != nil {
				return i, err
			}
			blocks = plan.NumBlocks()
		}
		return 20, nil
	})
	p.set("core.assemble_us", 1e6*per)
	p.set("core.blocks_per_plan", float64(blocks))
	return err
}

// replayProfiler times the 50-iteration profiling pass on its cache-miss
// path: every call gets a jitter seed no earlier call used.
func (p *pass) replayProfiler(parent int) error {
	per, err := p.tr.loop("profiler.Run", parent, p.slice, func(int) (int, error) {
		p.profSeed++
		_, err := profiler.Run(profiler.Config{Model: p.sim.model, Batch: simBatch, Agg: p.sim.agg, Seed: p.profSeed})
		return 1, err
	})
	p.set("profiler.run_ms", 1e3*per)
	return err
}

// releaseOrder lists gradient indices in the order the profile releases
// them during backward propagation (ties: higher index first).
func releaseOrder(prof *core.Profile) []int {
	order := make([]int, prof.N())
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ga, gb := prof.Gen[order[a]], prof.Gen[order[b]]
		if ga != gb {
			return ga < gb
		}
		return order[a] > order[b]
	})
	return order
}

// strategyParams are what cluster.ByName hands a strategy on this cell,
// with the link's constant rate in place of the bandwidth monitor.
func (p *pass) strategyParams() strategy.Params {
	cfg := p.sim.link
	bw := cfg.Trace.At(0)
	return strategy.Params{
		Sizes: p.sim.sizes(), Seed: p.sim.seed, Profile: p.sim.prof,
		Bandwidth: func() float64 { return bw },
		Overhead:  func(b float64) float64 { return cfg.SetupTime + cfg.RampBytes/b },
	}
}

// replaySchedule times the scheduler fetch loop (strategy.New, then
// OnGenerated for one iteration's gradients and Next until empty).
func (p *pass) replaySchedule(parent int) error {
	order := releaseOrder(p.sim.prof)
	for _, name := range []string{"fifo", "p3", "prophet"} {
		s, err := strategy.New(name, p.strategyParams())
		if err != nil {
			return err
		}
		iter := 0
		per, err := p.tr.loop("schedule.Next."+name, parent, p.slice/3, func(int) (int, error) {
			calls := 0
			for rep := 0; rep < 20; rep++ {
				s.BeginIteration(iter)
				for _, g := range order {
					s.OnGenerated(g, p.sim.prof.Gen[g])
				}
				now := p.sim.prof.BackwardEnd()
				for {
					msg, ok := s.Next(now)
					calls++
					if !ok {
						break
					}
					s.OnSent(msg, now, now)
				}
				s.OnIterationEnd(0.1)
				iter++
			}
			return calls, nil
		})
		if err != nil {
			return err
		}
		p.set("schedule.next_ns."+name, 1e9*per)
	}
	return nil
}

// nullTx is an always-free Transmitter that completes a send the moment it
// starts, so Pump unspools the scheduler's whole decision sequence.
type nullTx struct{ drv *drive.Driver }

func (nullTx) Busy(int) bool          { return false }
func (t *nullTx) Start(s *drive.Send) { t.drv.Completed(s.Lane, 0) }

// replayDrive times the drive layer alone: the workload's strategy behind
// a Driver whose wire costs nothing.
func (p *pass) replayDrive(parent int) error {
	s, err := strategy.New("prophet", p.strategyParams())
	if err != nil {
		return err
	}
	tx := &nullTx{}
	d := drive.New(s, tx, 1, p.sim.prof.N(), nil)
	tx.drv = d
	d.SetRecording(true)
	order := releaseOrder(p.sim.prof)
	iter := 0
	per, err := p.tr.loop("drive.Driver.Pump", parent, p.slice, func(int) (int, error) {
		before := len(d.Records())
		for rep := 0; rep < 20; rep++ {
			d.BeginIteration(iter)
			for _, g := range order {
				d.Generate(g, p.sim.prof.Gen[g])
			}
			d.Pump(p.sim.prof.BackwardEnd())
			d.EndIteration(0.1)
			iter++
		}
		return len(d.Records()) - before, nil
	})
	p.set("drive.dispatch_ns", 1e9*per)
	p.set("drive.msgs_per_iter", float64(len(d.Records()))/float64(iter))
	return err
}

// replayCluster times the PS half of the op. Its self time is what is left
// of a run after the layers below it, at their replayed unit costs.
func (p *pass) replayCluster(parent int) error {
	var eng *sim.Engine
	fifo, err := p.sim.runPS("fifo", nil, nil)
	if err != nil {
		return err
	}
	var rate float64
	runs := 0
	win := startWindow()
	per, err := p.tr.loop("cluster.Run", parent, p.slice, func(int) (int, error) {
		res, err := p.sim.runPS("prophet", nil, &eng)
		if err != nil {
			return 0, err
		}
		rate = res.Rate(simWarmup)
		runs++
		return simIters, nil
	})
	win.stop()
	if err != nil {
		return err
	}
	p.set("cluster.run_ms_per_iter", 1e3*per)
	p.set("cluster.allocs_per_iter", float64(win.allocs)/float64(runs*simIters))
	p.set("sim.events_per_iter", float64(eng.Fired())/simIters)
	p.set("cluster.sim_prophet_gain_pct", 100*(rate/fifo.Rate(simWarmup)-1))
	return nil
}

// replayAllreduce times the ring half of the op.
func (p *pass) replayAllreduce(parent int) error {
	be, err := drive.BackendByName("ring")
	if err != nil {
		return err
	}
	reductions, runs := 0, 0
	win := startWindow()
	per, err := p.tr.loop("allreduce.Run", parent, p.slice, func(int) (int, error) {
		res, err := p.sim.runRing(nil)
		if err != nil {
			return 0, err
		}
		reductions = res.Reductions
		runs++
		return simIters, nil
	})
	win.stop()
	if err != nil {
		return err
	}
	p.set("allreduce.run_ms_per_iter", 1e3*per)
	p.set("allreduce.allocs_per_iter", float64(win.allocs)/float64(runs*simIters))
	p.set("allreduce.steps_per_iter", float64(reductions*be.Steps(simRingWorkers))/simIters)
	return nil
}

// clusterSelf derives cluster.self_ms_per_iter once the layers below have
// been replayed: run − (events·event + msgs·send + msgs·dispatch + plan).
func (p *pass) clusterSelf() {
	m := p.out
	below := m["sim.events_per_iter"]*m["sim.event_ns"]*1e-6 +
		m["netsim.msgs_per_iter"]*m["netsim.send_ns"]*1e-6 +
		m["drive.msgs_per_iter"]*simPSWorkers*m["drive.dispatch_ns"]*1e-6 +
		m["core.assemble_us"]*1e-3*simPSWorkers/simIters
	p.set("cluster.self_ms_per_iter", m["cluster.run_ms_per_iter"]-below)
}
