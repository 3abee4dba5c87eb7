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
// simulated ResNet50 training iteration under Prophet.
func BenchmarkCluster_Iteration(b *testing.B) {
	prof, m := rn50Setup(b)
	link := func(int) netsim.LinkConfig {
		return netsim.DefaultLinkConfig(netsim.Const(netsim.Goodput(netsim.Gbps(3))))
	}
	iters := 8
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := cluster.Run(cluster.Config{
			Model: m, Batch: 64, Workers: 3,
			Uplink: link, Scheduler: cluster.ProphetFactory(prof),
			Iterations: iters, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N*iters)/b.Elapsed().Seconds(), "sim-iters/s")
}
