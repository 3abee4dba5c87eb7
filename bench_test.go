// Package prophet_test holds the microbenchmarks of the core machinery:
// Algorithm 1 itself, the profiling pass that feeds it, and the simulator's
// cost per iteration. The evaluation is not benchmarked here: prophet-bench
// regenerates it, and bench_results.txt records the run.
//
//	go test -run '^$' -bench . -benchmem .
package prophet_test

import (
	"testing"

	"prophet/internal/cluster"
	"prophet/internal/core"
	"prophet/internal/model"
	"prophet/internal/netsim"
	"prophet/internal/profiler"
	"prophet/internal/schedule"
	"prophet/internal/sim"
	"prophet/internal/stepwise"
)

func rn50Setup(b *testing.B) (*core.Profile, *model.Model) {
	b.Helper()
	m := model.WithWireFactor(model.ResNet50(), 2)
	agg := stepwise.DefaultAggregate(m)
	prof, err := profiler.Run(profiler.Config{Model: m, Batch: 64, Agg: agg, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	return prof.Profile(), m
}

// BenchmarkCore_Assemble measures one execution of Algorithm 1 — the
// per-iteration planning cost the paper claims is negligible (Sec. 5.4).
func BenchmarkCore_Assemble(b *testing.B) {
	prof, _ := rn50Setup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Assemble(prof, core.Config{Bandwidth: 375e6}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCore_Profiler measures the 50-iteration profiling pass.
func BenchmarkCore_Profiler(b *testing.B) {
	m := model.WithWireFactor(model.ResNet50(), 2)
	agg := stepwise.DefaultAggregate(m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := profiler.Run(profiler.Config{Model: m, Batch: 64, Agg: agg, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCluster_Iteration measures simulator throughput: wall cost per
// simulated ResNet50 training iteration under Prophet, on the PS wire.
func BenchmarkCluster_Iteration(b *testing.B) {
	prof, m := rn50Setup(b)
	benchCluster(b, m, "ps", 3, cluster.ProphetFactory(schedule.NewPlanner(prof, false)))
}

// BenchmarkCluster_IterationRing is the same on a ring of 8, the collective
// half of the sim-sweep benchmark cell.
func BenchmarkCluster_IterationRing(b *testing.B) {
	prof, m := rn50Setup(b)
	factory, err := cluster.ByNameTransport("prophet", "ring", 8, m, cluster.Options{Seed: 1, Profile: prof})
	if err != nil {
		b.Fatal(err)
	}
	benchCluster(b, m, "ring", 8, factory)
}

// benchCluster times 8-iteration runs on 3 Gbps goodput links and reports
// simulated iterations per second and the engine's events per simulated
// iteration.
func benchCluster(b *testing.B, m *model.Model, transport string, workers int, factory cluster.SchedulerFactory) {
	link := func(int) netsim.LinkConfig {
		return netsim.DefaultLinkConfig(netsim.Const(netsim.Goodput(netsim.Gbps(3))))
	}
	var eng *sim.Engine
	sched := func(w int, e *sim.Engine, up *netsim.Link) schedule.Scheduler {
		eng = e
		return factory(w, e, up)
	}
	iters := 8
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := cluster.Run(cluster.Config{
			Model: m, Batch: 64, Workers: workers, Transport: transport,
			Uplink: link, Scheduler: sched,
			Iterations: iters, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N*iters)/b.Elapsed().Seconds(), "sim-iters/s")
	b.ReportMetric(float64(eng.Fired())/float64(iters), "events/sim-iter")
}
