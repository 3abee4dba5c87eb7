// Custom model: study communication scheduling for an architecture outside
// the built-in zoo. Builds synthetic models with four tensor-size
// distributions via the workload package, profiles each, and compares FIFO
// with Prophet — the workflow a user would follow for their own network.
//
//	go run ./examples/custom_model
package main

import (
	"fmt"
	"log"

	"prophet/internal/cluster"
	"prophet/internal/model"
	"prophet/internal/netsim"
	"prophet/internal/profiler"
	"prophet/internal/stepwise"
	"prophet/internal/workload"
)

func main() {
	link := func(int) netsim.LinkConfig {
		return netsim.DefaultLinkConfig(netsim.Const(netsim.Goodput(netsim.Gbps(2))))
	}
	fmt.Println("synthetic 40-tensor, 25M-parameter models at 2 Gbps, 3 workers:")
	for _, shape := range []workload.Shape{
		workload.Uniform, workload.TailHeavy, workload.FrontHeavy, workload.Alternating,
	} {
		base, err := workload.Synthetic(shape, 40, 25_000_000, 7)
		if err != nil {
			log.Fatal(err)
		}
		wire := model.WithWireFactor(base, 2)
		agg := stepwise.DefaultAggregate(wire)
		prof, err := profiler.Run(profiler.Config{Model: wire, Batch: 64, Agg: agg, Seed: 7})
		if err != nil {
			log.Fatal(err)
		}
		rate := func(f cluster.SchedulerFactory) float64 {
			res, err := cluster.Run(cluster.Config{
				Model: wire, Batch: 64, Workers: 3, Agg: agg,
				Uplink: link, Scheduler: f, Iterations: 8, Seed: 1,
			})
			if err != nil {
				log.Fatal(err)
			}
			return res.Rate(2)
		}
		fifo := rate(cluster.FIFOFactory(wire))
		pro := rate(cluster.ProphetFactory(prof.Profile()))
		fmt.Printf("  %-12s %2d stepwise blocks   fifo %6.2f → prophet %6.2f samples/s (%+.1f%%)\n",
			shape, len(prof.Blocks), fifo, pro, 100*(pro/fifo-1))
	}
}
