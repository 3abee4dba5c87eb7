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
	"io"
	"os"

	"prophet/internal/model"
	"prophet/internal/netsim"
	"prophet/internal/profiler"
	"prophet/internal/schedule"
	"prophet/internal/stepwise"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run is the whole command: profile, print the pattern, and with -plan the
// Algorithm 1 plan.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("prophet-profile", flag.ExitOnError) // as the global flag set behaves
	var (
		modelName = fs.String("model", "resnet50", "model to profile")
		batch     = fs.Int("batch", 64, "per-worker mini-batch size")
		iters     = fs.Int("profile-iters", 50, "profiling iterations")
		bandwidth = fs.Float64("bandwidth", 3000, "bandwidth in Mbps for the example plan")
		seed      = fs.Uint64("seed", 1, "seed")
		showPlan  = fs.Bool("plan", false, "also print the block plan Prophet runs on a PS link at -bandwidth")
	)
	_ = fs.Parse(args) // ExitOnError: Parse does not return on a bad flag

	// The profiler reads 0 as its default of 50 and the planner panics on a
	// non-positive rate: both are typos here, not requests.
	if *iters < 1 {
		return fmt.Errorf("-profile-iters %d: profiling needs at least one iteration", *iters)
	}
	if !(*bandwidth > 0) {
		return fmt.Errorf("-bandwidth %g: a link rate in Mbps must be positive", *bandwidth)
	}
	base, err := model.ByName(*modelName)
	if err != nil {
		return err
	}
	wire := model.WithWireFactor(base, 2)
	agg := stepwise.DefaultAggregate(wire)
	prof, err := profiler.Run(profiler.Config{
		Model: wire, Batch: *batch, Agg: agg, Iterations: *iters, Seed: *seed,
	})
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "%s (batch %d): %d gradient tensors, %.1f MB on the wire per direction\n",
		base.Name, *batch, wire.NumGradients(), wire.TotalBytes()/1e6)
	fmt.Fprintf(out, "profiled %d iterations in %.1f s of simulated training\n", prof.Iterations, prof.WallTime)
	fmt.Fprintf(out, "backward propagation: %.1f ms; stepwise pattern: %d blocks\n\n", 1e3*prof.Gen[0], len(prof.Blocks))
	fmt.Fprintf(out, "%-28s %10s %10s %10s\n", "block", "release", "bytes", "window")
	for i, b := range prof.Blocks {
		var bytes float64
		for g := b.Lo; g <= b.Hi; g++ {
			bytes += prof.Bytes[g]
		}
		window := "open"
		if i+1 < len(prof.Blocks) {
			window = fmt.Sprintf("%7.1f ms", 1e3*(prof.Blocks[i+1].Release-b.Release))
		}
		fmt.Fprintf(out, "{gradient %3d - gradient %3d} %7.1f ms %7.1f MB %10s\n",
			b.Lo, b.Hi, 1e3*b.Release, bytes/1e6, window)
	}

	if !*showPlan {
		return nil
	}
	// The plan a simulated Prophet runs on a PS link at this rate: the
	// per-message time is its engine cost plus the link's setup and ramp,
	// the sum cluster's wireMonitor hands the planner at one step.
	bw := netsim.Goodput(netsim.Mbps(*bandwidth))
	link := netsim.DefaultLinkConfig(netsim.Const(bw))
	perMessage := schedule.DefaultProphetEngineCost + (link.SetupTime + link.RampBytes/bw)
	plan, err := schedule.NewPlanner(prof.Profile(), false).Plan(bw, perMessage)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "\nAlgorithm 1 plan at %.0f Mbps (%d units, %d backward blocks):\n",
		*bandwidth, len(plan.Units), plan.NumBlocks())
	for i, u := range plan.Units {
		grads := u.Grads()
		fmt.Fprintf(out, "  %3d %-8s t=%7.1f ms %7.2f MB  g%d..g%d (%d gradients)\n",
			i, u.Phase, 1e3*u.PlannedStart, u.Bytes/1e6, grads[0], grads[len(grads)-1], len(grads))
	}
	return nil
}
