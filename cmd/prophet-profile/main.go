// Command prophet-profile runs Prophet's Training Job Profiler for a model
// and prints the discovered stepwise pattern: the gradient blocks, their
// release times, and the transfer windows A(i) Algorithm 1 will use.
//
// Usage:
//
//	prophet-profile -model resnet50 -batch 64 -profile-iters 50
package main

import (
	"flag"
	"fmt"
	"os"

	"prophet/internal/core"
	"prophet/internal/model"
	"prophet/internal/netsim"
	"prophet/internal/profiler"
	"prophet/internal/stepwise"
)

func main() {
	var (
		modelName = flag.String("model", "resnet50", "model to profile")
		batch     = flag.Int("batch", 64, "per-worker mini-batch size")
		iters     = flag.Int("profile-iters", 50, "profiling iterations")
		bandwidth = flag.Float64("bandwidth", 3000, "bandwidth in Mbps for the example plan")
		seed      = flag.Uint64("seed", 1, "seed")
		showPlan  = flag.Bool("plan", false, "also print the Algorithm 1 block plan at -bandwidth")
	)
	flag.Parse()

	base, err := model.ByName(*modelName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	wire := model.WithWireFactor(base, 2)
	agg := stepwise.DefaultAggregate(wire)
	prof, err := profiler.Run(profiler.Config{
		Model: wire, Batch: *batch, Agg: agg, Iterations: *iters, Seed: *seed,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Printf("%s (batch %d): %d gradient tensors, %.1f MB on the wire per direction\n",
		base.Name, *batch, wire.NumGradients(), wire.TotalBytes()/1e6)
	fmt.Printf("profiled %d iterations in %.1f s of simulated training\n", prof.Iterations, prof.WallTime)
	fmt.Printf("backward propagation: %.1f ms; stepwise pattern: %d blocks\n\n", 1e3*prof.Gen[0], len(prof.Blocks))
	fmt.Printf("%-28s %10s %10s %10s\n", "block", "release", "bytes", "window")
	for i, b := range prof.Blocks {
		var bytes float64
		for g := b.Lo; g <= b.Hi; g++ {
			bytes += prof.Bytes[g]
		}
		window := "open"
		if i+1 < len(prof.Blocks) {
			window = fmt.Sprintf("%7.1f ms", 1e3*(prof.Blocks[i+1].Release-b.Release))
		}
		fmt.Printf("{gradient %3d - gradient %3d} %7.1f ms %7.1f MB %10s\n",
			b.Lo, b.Hi, 1e3*b.Release, bytes/1e6, window)
	}

	if *showPlan {
		bw := netsim.Goodput(netsim.Mbps(*bandwidth))
		plan, err := core.Assemble(prof.Profile(), core.Config{Bandwidth: bw})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("\nAlgorithm 1 plan at %.0f Mbps (%d units, %d backward blocks):\n",
			*bandwidth, len(plan.Units), plan.NumBlocks())
		for i, u := range plan.Units {
			grads := u.Grads()
			fmt.Printf("  %3d %-8s t=%7.1f ms %7.2f MB  g%d..g%d (%d gradients)\n",
				i, u.Phase, 1e3*u.PlannedStart, u.Bytes/1e6, grads[0], grads[len(grads)-1], len(grads))
		}
	}
}
