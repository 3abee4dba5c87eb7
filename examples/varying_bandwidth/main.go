// Varying bandwidth: demonstrate Prophet's Network Bandwidth Monitor. The
// link drops from 4 Gbps to 1.5 Gbps mid-run and recovers; Prophet's
// per-iteration re-planning tracks the change, while a variant pinned to
// its initial estimate mis-sizes its blocks.
//
//	go run ./examples/varying_bandwidth
package main

import (
	"fmt"
	"log"

	"prophet/internal/cluster"
	"prophet/internal/model"
	"prophet/internal/netsim"
	"prophet/internal/profiler"
	"prophet/internal/schedule"
	"prophet/internal/sim"
	"prophet/internal/stepwise"
)

func main() {
	m := model.WithWireFactor(model.ResNet50(), 2)
	batch := 64
	agg := stepwise.DefaultAggregate(m)
	prof, err := profiler.Run(profiler.Config{Model: m, Batch: batch, Agg: agg, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}

	varying := func(int) netsim.LinkConfig {
		tr := netsim.NewStepTrace(
			netsim.Step{From: 0, Rate: netsim.Goodput(netsim.Gbps(4))},
			netsim.Step{From: 8, Rate: netsim.Goodput(netsim.Gbps(1.5))},
			netsim.Step{From: 30, Rate: netsim.Goodput(netsim.Gbps(4))},
		)
		return netsim.DefaultLinkConfig(tr)
	}

	run := func(name string, factory cluster.SchedulerFactory) {
		res, err := cluster.Run(cluster.Config{
			Model: m, Batch: batch, Workers: 3, Agg: agg,
			Uplink: varying, Scheduler: factory, Iterations: 20, Seed: 1,
		})
		if err != nil {
			log.Fatal(err)
		}
		rates := res.Iters.PerIterationRates(batch)
		fmt.Printf("  %-22s overall %6.2f samples/s   per-iteration:", name, res.Rate(2))
		for _, r := range rates {
			fmt.Printf(" %5.1f", r)
		}
		fmt.Println()
	}

	fmt.Println("link: 4 Gbps → 1.5 Gbps (t=8s) → 4 Gbps (t=30s)")
	run("prophet (monitored)", cluster.ProphetFactory(prof.Profile()))

	stale := func(w int, eng *sim.Engine, uplink *netsim.Link) schedule.Scheduler {
		lcfg := uplink.Config()
		initial := lcfg.Trace.At(0)
		overhead := func(bw float64) float64 { return lcfg.SetupTime + lcfg.RampBytes/bw }
		p, err := schedule.NewProphet(prof.Profile(), func() float64 { return initial }, overhead)
		if err != nil {
			panic(err)
		}
		return p
	}
	run("prophet (stale B)", stale)
	run("bytescheduler", cluster.ByteSchedulerFactory(m, 4e6))
}
