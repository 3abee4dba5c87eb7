// Command prophet-bench regenerates the paper's evaluation: every table and
// figure, printed in the same rows/series the paper reports, alongside the
// paper's own numbers where stated.
//
// Usage:
//
//	prophet-bench                 # run everything
//	prophet-bench -only fig8      # one experiment
//	prophet-bench -list           # list experiments
//	prophet-bench -iters 20       # longer runs (steadier numbers)
//	prophet-bench -j 8            # run experiments on 8 workers
//
// Output is deterministic: results are printed in registry order with
// byte-identical content at any -j value, because every simulation owns its
// engine and seed and results are collected by index.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"prophet/internal/experiments"
	"prophet/internal/experiments/runner"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run is the whole command: rendered experiments go to stdout, a failed
// experiment's error to stderr, and the returned error is what main exits
// non-zero on.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("prophet-bench", flag.ExitOnError) // as the global flag set behaves
	var (
		only  = fs.String("only", "", "run a single experiment by id (e.g. fig8, table2)")
		list  = fs.Bool("list", false, "list experiments and exit")
		iters = fs.Int("iters", 12, "simulated iterations per run")
		seed  = fs.Uint64("seed", 1, "simulation seed")
		jobs  = fs.Int("j", runner.DefaultWorkers(), "worker goroutines for experiments and their sweeps (1 = serial)")
	)
	fs.Parse(args)
	if *iters < 1 {
		return fmt.Errorf("-iters %d: every run needs at least one iteration", *iters)
	}
	if *jobs < 1 {
		return fmt.Errorf("-j %d: at least one worker must run the experiments", *jobs)
	}

	if *list {
		for _, s := range experiments.All() {
			fmt.Fprintf(stdout, "%-18s %-10s %s\n", s.ID, s.Paper, s.Desc)
		}
		return nil
	}

	cfg := experiments.Config{Iterations: *iters, Seed: *seed, Jobs: *jobs}
	specs := experiments.All()
	if *only != "" {
		spec, err := experiments.ByID(*only)
		if err != nil {
			return err
		}
		specs = []experiments.Spec{spec}
	}

	// Each experiment renders into its own buffer so experiments can run
	// concurrently while output stays in registry order. The job function
	// never returns an error: a failure is part of the outcome, so one bad
	// experiment does not cancel its siblings.
	type outcome struct {
		out bytes.Buffer
		dur time.Duration
		err error
	}
	totalStart := time.Now()
	outcomes, _ := runner.Map(*jobs, specs, func(_ int, spec experiments.Spec) (*outcome, error) {
		o := &outcome{}
		start := time.Now()
		res, err := spec.Run(cfg)
		o.dur = time.Since(start)
		if err != nil {
			o.err = err
			return o, nil
		}
		res.Render(&o.out)
		return o, nil
	})
	total := time.Since(totalStart)

	failed := 0
	for i, spec := range specs {
		if i > 0 {
			fmt.Fprintln(stdout)
		}
		o := outcomes[i]
		if o.err != nil {
			failed++
			fmt.Fprintf(stderr, "%s: %v\n", spec.ID, o.err)
			fmt.Fprintf(stdout, "  [%s FAILED after %.1fs]\n", spec.ID, o.dur.Seconds())
			continue
		}
		stdout.Write(o.out.Bytes())
		fmt.Fprintf(stdout, "  [%s, %.1fs wall]\n", spec.ID, o.dur.Seconds())
	}

	fmt.Fprintf(stdout, "\n%d experiments in %.1fs wall (-j %d)\n", len(specs), total.Seconds(), *jobs)
	if failed > 0 {
		return fmt.Errorf("%d experiment(s) failed", failed)
	}
	return nil
}
