package prophet_test

import (
	"fmt"
	"log"

	"prophet/internal/cluster"
	"prophet/internal/model"
	"prophet/internal/netsim"
	"prophet/internal/profiler"
	"prophet/internal/schedule"
	"prophet/internal/stepwise"
)

// Example profiles ResNet50's stepwise gradient generation (wire factor 2:
// two GPUs share a NIC, as on the paper's testbed), then compares Prophet's
// Algorithm 1 plan with ByteScheduler on 3 simulated workers at 3 Gbps.
func Example() {
	m := model.WithWireFactor(model.ResNet50(), 2)
	agg := stepwise.DefaultAggregate(m)
	prof, err := profiler.Run(profiler.Config{Model: m, Batch: 64, Agg: agg, Seed: 42})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("profiled %s: %d gradients arrive in %d stepwise blocks over %.0f ms\n",
		m.Name, m.NumGradients(), len(prof.Blocks), 1e3*prof.Gen[0])
	link := func(int) netsim.LinkConfig {
		return netsim.DefaultLinkConfig(netsim.Const(netsim.Goodput(netsim.Gbps(3))))
	}
	run := func(name string, factory cluster.SchedulerFactory) float64 {
		res, err := cluster.Run(cluster.Config{Model: m, Batch: 64, Workers: 3, Agg: agg,
			Uplink: link, Scheduler: factory, Iterations: 10, Seed: 1})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-14s %6.2f samples/s/worker   GPU %4.1f%%\n", name, res.Rate(2), 100*res.GPUUtil(0, 2))
		return res.Rate(2)
	}
	bs := run("bytescheduler", cluster.ByteSchedulerFactory(m, 4e6))
	pro := run("prophet", cluster.ProphetFactory(schedule.NewPlanner(prof.Profile(), false)))
	fmt.Printf("Prophet vs ByteScheduler: %+.1f%%\n", 100*(pro/bs-1))
	// Output:
	// profiled resnet50: 161 gradients arrive in 17 stepwise blocks over 613 ms
	//   bytescheduler   54.36 samples/s/worker   GPU 73.6%
	//   prophet         60.39 samples/s/worker   GPU 82.6%
	// Prophet vs ByteScheduler: +11.1%
}
