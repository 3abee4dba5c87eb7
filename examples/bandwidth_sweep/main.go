// Bandwidth sweep: regenerate the shape of the paper's Table 2 — ResNet50
// training rate for Prophet, ByteScheduler, and P3 as the worker bandwidth
// limit varies from 1 to 10 Gbps. Prophet leads in the communication-bound
// band; everything converges when the network stops being the bottleneck.
//
//	go run ./examples/bandwidth_sweep
package main

import (
	"fmt"
	"log"

	"prophet/internal/cluster"
	"prophet/internal/model"
	"prophet/internal/netsim"
	"prophet/internal/profiler"
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

	fmt.Printf("%8s  %9s %9s %9s\n", "Mbps", "prophet", "bytesch", "p3")
	for _, mbps := range []float64{1000, 2000, 3000, 4500, 6000, 10000} {
		link := func(int) netsim.LinkConfig {
			return netsim.DefaultLinkConfig(netsim.Const(netsim.Goodput(netsim.Mbps(mbps))))
		}
		rate := func(f cluster.SchedulerFactory) float64 {
			res, err := cluster.Run(cluster.Config{
				Model: m, Batch: batch, Workers: 3, Agg: agg,
				Uplink: link, Scheduler: f, Iterations: 10, Seed: 1,
			})
			if err != nil {
				log.Fatal(err)
			}
			return res.Rate(2)
		}
		fmt.Printf("%8.0f  %9.2f %9.2f %9.2f\n",
			mbps,
			rate(cluster.ProphetFactory(prof.Profile())),
			rate(cluster.ByteSchedulerFactory(m, 4e6)),
			rate(cluster.P3Factory(m, 4e6)),
		)
	}
}
