// Quickstart: profile a model, run Algorithm 1, and compare Prophet with
// ByteScheduler on the simulated cluster — the core workflow of this
// library in ~60 lines.
//
//	go run ./examples/quickstart
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
	// 1. Pick a model and batch size. WithWireFactor(…, 2) models the
	// paper's two-GPU worker nodes sharing one NIC.
	m := model.WithWireFactor(model.ResNet50(), 2)
	batch := 64

	// 2. Profile the job: the stepwise pattern of gradient generation.
	agg := stepwise.DefaultAggregate(m)
	prof, err := profiler.Run(profiler.Config{Model: m, Batch: batch, Agg: agg, Seed: 42})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("profiled %s: %d gradients arrive in %d stepwise blocks over %.0f ms\n",
		m.Name, m.NumGradients(), len(prof.Blocks), 1e3*prof.Gen[0])

	// 3. Run the simulated PS cluster at 3 Gbps per worker under both
	// strategies.
	link := func(int) netsim.LinkConfig {
		return netsim.DefaultLinkConfig(netsim.Const(netsim.Goodput(netsim.Gbps(3))))
	}
	run := func(name string, factory cluster.SchedulerFactory) float64 {
		res, err := cluster.Run(cluster.Config{
			Model: m, Batch: batch, Workers: 3, Agg: agg,
			Uplink: link, Scheduler: factory, Iterations: 10, Seed: 1,
		})
		if err != nil {
			log.Fatal(err)
		}
		rate := res.Rate(2)
		fmt.Printf("  %-14s %6.2f samples/s/worker   GPU %4.1f%%\n",
			name, rate, 100*res.GPUUtil(0, 2))
		return rate
	}
	fmt.Println("training ResNet50 (bs 64) on 3 workers at 3 Gbps:")
	bs := run("bytescheduler", cluster.ByteSchedulerFactory(m, 4e6))
	pro := run("prophet", cluster.ProphetFactory(prof.Profile()))
	fmt.Printf("Prophet vs ByteScheduler: %+.1f%%\n", 100*(pro/bs-1))
}
