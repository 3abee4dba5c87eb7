// Command benchmark is the repository's one benchmark for both stacks: the
// discrete-event simulator and the live emulation. See README.md in this
// directory for the workloads, the metrics and how they interact.
//
// The driver's contract (BENCHMARK.json):
//
//	bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// runs one workload in this process and prints, as the last line of
// standard output, one JSON object {correct, attempted, failed, metrics}:
// the end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1. Without --workload the command runs all four workloads, each
// in a fresh child process of the same binary, untraced and then traced.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	rtrace "runtime/trace"
	"sort"
	"time"

	"prophet/internal/sim"
)

type options struct {
	workload     string
	seed         uint64
	seconds      float64
	trace        bool
	quick        bool
	updateGolden bool
}

// setupRepeats is how many times a run sets up before timing; setup_s is
// the median. Cheap set-ups repeat more, up to setupBudget in total.
const (
	setupRepeats    = 5
	setupRepeatsMax = 40
	setupBudget     = time.Second
)

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload in this process: sim-sweep|live-ps-shaped|live-mux-scale|live-ring (default: all, one child process each)")
	flag.Uint64Var(&o.seed, "seed", 1, "seed for the dataset, model initialisation and simulator jitter")
	flag.Float64Var(&o.seconds, "seconds", 0, "timed seconds per run (default: run_seconds of BENCHMARK.json)")
	trace := flag.Int("trace", -1, "0 = end-to-end metrics, 1 = traced pass with the per-layer metrics (default: 0 with -workload, both without)")
	flag.BoolVar(&o.quick, "quick", false, "a few iterations per workload and one replay per layer: checks the plumbing, not the numbers")
	selfcheck := flag.Bool("selfcheck", false, "run the full set twice and fail if an end-to-end metric moves by more than its bound")
	flag.BoolVar(&o.updateGolden, "update-golden", false, "rewrite golden.json from a run at seed 1")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of this process (use with -workload)")
	memprofile := flag.String("memprofile", "", "write a heap profile of this process at exit (use with -workload)")
	exectrace := flag.String("exectrace", "", "write a runtime execution trace of this process (use with -workload)")
	flag.Parse()

	spec, dir, err := loadSpec()
	if err != nil {
		fatal(err)
	}
	if o.seconds <= 0 {
		o.seconds = float64(spec.RunSeconds)
	}

	switch {
	case o.updateGolden:
		if err := updateGolden(dir); err != nil {
			fatal(err)
		}
	case *selfcheck:
		if !runSelfcheck(spec, o) {
			os.Exit(1)
		}
	case o.workload == "":
		traces := []bool{false, true}
		if *trace >= 0 {
			traces = []bool{*trace == 1}
		}
		if _, ok := runAll(o, traces); !ok {
			os.Exit(1)
		}
	default:
		o.trace = *trace == 1
		stop, err := startProfiles(*cpuprofile, *exectrace)
		if err != nil {
			fatal(err)
		}
		res, err := runOne(spec, dir, o)
		stop()
		if err != nil {
			fatal(err)
		}
		if *memprofile != "" {
			if err := writeHeapProfile(*memprofile); err != nil {
				fatal(err)
			}
		}
		line, err := json.Marshal(res)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
		if !res.Correct {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// runOne runs one workload in this process and prints its metrics by name.
func runOne(spec *benchSpec, dir string, o options) (*result, error) {
	w, err := workloadByName(o.workload)
	if err != nil {
		return nil, err
	}
	fmt.Printf("workload %s seed %d: closed loop (BSP), GOMAXPROCS %d, workers are goroutines of this process;\n", w.name, o.seed, runtime.GOMAXPROCS(0))
	fmt.Println("  all traffic is in-process (transport.Pipe = net.Pipe + token bucket, no kernel sockets)")
	var res *result
	var units map[string]string
	if o.trace {
		res, err = runTraced(w, dir, o)
		units = spec.units(spec.PerLayer)
	} else {
		res, err = runUntraced(w, o)
		units = spec.units(spec.EndToEnd)
	}
	if err != nil {
		return nil, err
	}
	for name, v := range res.Metrics {
		unit, ok := units[name]
		if !ok {
			return nil, fmt.Errorf("metric %s is not declared in BENCHMARK.json", name)
		}
		res.Metrics[name] = metric{Value: v.Value, Unit: unit}
	}
	for name := range units {
		if _, ok := res.Metrics[name]; !ok {
			return nil, fmt.Errorf("metric %s is declared in BENCHMARK.json but was not measured", name)
		}
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("  %-36s %14.6g %s\n", name, res.Metrics[name].Value, res.Metrics[name].Unit)
	}
	fmt.Printf("  %-36s %14.6g ratio (%d failed of %d ops attempted)\n", "failed_ops_share",
		float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	return res, nil
}

// runUntraced is the end-to-end pass: set up several times, then run ops
// back to back for o.seconds with nothing attached.
func runUntraced(w workload, o options) (*result, error) {
	e, setupS, err := setUpRepeated(w, o)
	if err != nil {
		return nil, err
	}
	runtime.GC()

	res := &result{Metrics: map[string]metric{}}
	var iterMS, t0MS []float64
	iters := 0
	win := startWindow()
	for res.Attempted == 0 || (!o.quick && time.Since(win.t0).Seconds() < o.seconds) {
		res.Attempted++
		s, err := e.op(nil, nil)
		if err != nil {
			res.Failed++
			fmt.Fprintln(os.Stderr, "benchmark: op failed:", err)
			continue
		}
		iters += e.itersPerOp
		iterMS = append(iterMS, s.iterMS...)
		t0MS = append(t0MS, s.t0MS...)
	}
	win.stop()
	if iters == 0 {
		return nil, fmt.Errorf("%s: every op failed", w.name)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	t0 := e.t0SimMS
	if w.live != nil {
		t0 = sim.Median(t0MS)
	}
	n := float64(iters)
	set := func(name string, v float64) { res.Metrics[name] = metric{Value: v} }
	set("setup_s", setupS)
	set("iter_ms_p50", sim.Median(iterMS))
	set("iter_ms_p90", sim.Percentile(iterMS, 90))
	set("iters_per_s", n/win.wall.Seconds())
	set("cpu_ms_per_iter", ms(win.cpu)/n)
	set("allocs_per_iter", float64(win.allocs)/n)
	set("peak_rss_mb", rss)
	set("t0_rtt_ms_p50", t0)
	res.Correct = res.Failed == 0
	fmt.Printf("  %d timed iterations in %d ops over %.2f s; %d per-iteration samples\n", iters, res.Attempted-res.Failed, win.wall.Seconds(), len(iterMS))
	if w.live == nil {
		fmt.Printf("  sim_prophet_gain_pct %.6g %% (simulated, set-up run; pinned by golden.json at seed %d)\n", e.gainPct, goldenSeed)
	}
	return res, nil
}

// setUpRepeated sets the workload up setupRepeats times or more and
// returns the last env with the median set-up time in seconds.
func setUpRepeated(w workload, o options) (*env, float64, error) {
	var durs []float64
	var total time.Duration
	for {
		n := len(durs) + 1
		last := o.quick || n >= setupRepeatsMax || (n >= setupRepeats && total >= setupBudget)
		start := time.Now()
		e, err := w.setUp(o, n)
		if err != nil {
			return nil, 0, err
		}
		d := time.Since(start)
		total += d
		durs = append(durs, d.Seconds())
		if last {
			return e, sim.Median(durs), nil
		}
	}
}

func startProfiles(cpu, exec string) (stop func(), err error) {
	var stops []func()
	stop = func() {
		for _, f := range stops {
			f()
		}
	}
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		stops = append(stops, func() { pprof.StopCPUProfile(); f.Close() })
	}
	if exec != "" {
		f, err := os.Create(exec)
		if err != nil {
			stop()
			return nil, err
		}
		if err := rtrace.Start(f); err != nil {
			f.Close()
			stop()
			return nil, err
		}
		stops = append(stops, func() { rtrace.Stop(); f.Close() })
	}
	return stop, nil
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
