// Package prophet_test holds the benchmark harness: one testing.B benchmark
// per table and figure of the paper's evaluation (plus the DESIGN.md §5
// ablations and microbenchmarks of Algorithm 1 itself). Each experiment
// benchmark executes the corresponding regeneration and reports its
// headline quantity as a custom metric, so
//
//	go test -bench=. -benchmem
//
// both regenerates the evaluation and measures the harness's own cost.
// Passing -short switches the sweeps to quick mode.
package prophet_test

import (
	"math"
	"testing"

	"prophet/internal/cluster"
	"prophet/internal/core"
	"prophet/internal/experiments"
	"prophet/internal/model"
	"prophet/internal/netsim"
	"prophet/internal/profiler"
	"prophet/internal/stepwise"
)

func benchCfg(b *testing.B) experiments.Config {
	return experiments.Config{Quick: testing.Short(), Iterations: 8, Warmup: 2, Seed: 1}
}

// runSpec executes one registered experiment b.N times.
func runSpec(b *testing.B, id string, metric func(experiments.Result) (string, float64)) {
	b.Helper()
	spec, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	cfg := benchCfg(b)
	var res experiments.Result
	for i := 0; i < b.N; i++ {
		res, err = spec.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	if metric != nil {
		name, v := metric(res)
		b.ReportMetric(v, name)
	}
}

func BenchmarkFig2_MotivationFIFO(b *testing.B) {
	runSpec(b, "fig2", func(r experiments.Result) (string, float64) {
		return "gpu-util-%", 100 * r.(*experiments.Fig2Result).AvgGPUUtil
	})
}

func BenchmarkFig3a_P3PartitionSweep(b *testing.B) {
	runSpec(b, "fig3a", func(r experiments.Result) (string, float64) {
		rates := r.(*experiments.Fig3aResult).Rates
		return "min-rate-samples/s", rates[0]
	})
}

func BenchmarkFig3b_ByteSchedulerTuning(b *testing.B) {
	runSpec(b, "fig3b", func(r experiments.Result) (string, float64) {
		return "rate-spread-%", 100 * r.(*experiments.Fig3bResult).Spread
	})
}

func BenchmarkFig4_StepwisePattern(b *testing.B) {
	runSpec(b, "fig4", func(r experiments.Result) (string, float64) {
		return "rn50-blocks", float64(len(r.(*experiments.Fig4Result).ResNet50Blocks))
	})
}

func BenchmarkFig5_IllustrativeExample(b *testing.B) {
	runSpec(b, "fig5", func(r experiments.Result) (string, float64) {
		f := r.(*experiments.Fig5Result)
		return "prophet-g0-start-ms", 1e3 * f.Grad0Start[len(f.Grad0Start)-1]
	})
}

func BenchmarkFig8_ModelsAndBatches(b *testing.B) {
	runSpec(b, "fig8", func(r experiments.Result) (string, float64) {
		rows := r.(*experiments.Fig8Result).Rows
		var s float64
		for _, row := range rows {
			s += row.Improvement
		}
		return "mean-gain-%", s / float64(len(rows))
	})
}

func BenchmarkFig9_GPUUtilization(b *testing.B) {
	runSpec(b, "fig9", func(r experiments.Result) (string, float64) {
		return "prophet-gpu-util-%", 100 * r.(*experiments.Fig9Result).ProphetAvg
	})
}

func BenchmarkFig10_NetworkThroughput(b *testing.B) {
	runSpec(b, "fig10", func(r experiments.Result) (string, float64) {
		return "prophet-MBps", r.(*experiments.Fig10Result).ProphetAvg / 1e6
	})
}

func BenchmarkFig11_TransferTimes(b *testing.B) {
	runSpec(b, "fig11", func(r experiments.Result) (string, float64) {
		rows := r.(*experiments.Fig11Result).Rows
		return "prophet-wait-ms", rows[len(rows)-1].WaitMS
	})
}

func BenchmarkTable2_BandwidthSweep(b *testing.B) {
	runSpec(b, "table2", func(r experiments.Result) (string, float64) {
		rows := r.(*experiments.Table2Result).Rows
		return "prophet-3g-rate", rows[len(rows)/2].Prophet
	})
}

func BenchmarkTable3_BatchSweep(b *testing.B) {
	runSpec(b, "table3", func(r experiments.Result) (string, float64) {
		best := math.Inf(-1)
		for _, row := range r.(*experiments.Table3Result).Rows {
			best = math.Max(best, row.Improvement)
		}
		return "max-gain-%", best
	})
}

func BenchmarkFig12_Scalability(b *testing.B) {
	runSpec(b, "fig12", func(r experiments.Result) (string, float64) {
		rows := r.(*experiments.Fig12Result).Rows
		return "per-worker-rate", rows[len(rows)-1].PerWorkerRate
	})
}

func BenchmarkFig13_ProfilingOverhead(b *testing.B) {
	runSpec(b, "fig13", func(r experiments.Result) (string, float64) {
		return "steady-gpu-util-%", 100 * r.(*experiments.Fig13Result).LateProphet
	})
}

func BenchmarkSec53_BandwidthConditions(b *testing.B) {
	runSpec(b, "sec53-bandwidth", func(r experiments.Result) (string, float64) {
		return "prophet-3g-rate", r.(*experiments.Sec53BandwidthResult).Rows[0].Prophet
	})
}

func BenchmarkSec53_Heterogeneous(b *testing.B) {
	runSpec(b, "sec53-hetero", func(r experiments.Result) (string, float64) {
		return "prophet-rate", r.(*experiments.Sec53HeteroResult).Prophet
	})
}

func BenchmarkSec54_ProfilingCost(b *testing.B) {
	runSpec(b, "sec54-profiling", func(r experiments.Result) (string, float64) {
		return "rn50-profiling-s", r.(*experiments.Sec54ProfilingResult).Rows[1].WallTimeS
	})
}

func BenchmarkAblation_Blocks(b *testing.B) {
	runSpec(b, "ablation-blocks", func(r experiments.Result) (string, float64) {
		return "prophet-rate", r.(*experiments.AblationBlocksResult).Prophet
	})
}

func BenchmarkAblation_Monitor(b *testing.B) {
	runSpec(b, "ablation-monitor", func(r experiments.Result) (string, float64) {
		f := r.(*experiments.AblationMonitorResult)
		return "monitor-gain-%", 100 * (f.Monitored/f.Stale - 1)
	})
}

func BenchmarkAblation_ProfileLength(b *testing.B) {
	runSpec(b, "ablation-profile", func(r experiments.Result) (string, float64) {
		return "rate-50iter", r.(*experiments.AblationProfileResult).Long
	})
}

func BenchmarkAblation_Overhead(b *testing.B) {
	runSpec(b, "ablation-overhead", func(r experiments.Result) (string, float64) {
		f := r.(*experiments.AblationOverheadResult)
		return "p3-gap-closed", f.NoOverhead[1] - f.WithOverhead[1]
	})
}

func BenchmarkExt_ASP(b *testing.B) {
	runSpec(b, "ext-asp", func(r experiments.Result) (string, float64) {
		return "asp-fast-worker-rate", r.(*experiments.ExtASPResult).ASPHetero
	})
}

func BenchmarkExt_Hardware(b *testing.B) {
	runSpec(b, "ext-hardware", func(r experiments.Result) (string, float64) {
		f := r.(*experiments.ExtHardwareResult)
		return "v100-gain-%", 100 * (f.V100Prophet/f.V100FIFO - 1)
	})
}

func BenchmarkExt_Shapes(b *testing.B) {
	runSpec(b, "ext-shapes", func(r experiments.Result) (string, float64) {
		rows := r.(*experiments.ExtShapesResult).Rows
		var s float64
		for _, row := range rows {
			s += 100 * (row.Prophet/row.FIFO - 1)
		}
		return "mean-gain-%", s / float64(len(rows))
	})
}

func BenchmarkExt_Transformer(b *testing.B) {
	runSpec(b, "ext-transformer", func(r experiments.Result) (string, float64) {
		f := r.(*experiments.ExtTransformerResult)
		return "p3-vs-prophet-%", 100 * (f.P3Rate/f.Prophet - 1)
	})
}

func BenchmarkExt_AllReduce(b *testing.B) {
	runSpec(b, "ext-allreduce", func(r experiments.Result) (string, float64) {
		f := r.(*experiments.ExtAllReduceResult)
		return "ps-vs-ring-%", 100 * (f.PSProphet[0]/f.Ring[0] - 1)
	})
}

// --- microbenchmarks of the core machinery ---

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
