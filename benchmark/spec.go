package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// benchSpec is what the benchmark reads of BENCHMARK.json at the root of
// the repository.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func (s *benchSpec) units(ms []metricSpec) map[string]string {
	out := make(map[string]string, len(ms))
	for _, m := range ms {
		out[m.Name] = m.Unit
	}
	return out
}

// loadSpec reads BENCHMARK.json from the working directory (the checkout
// root, as the driver runs it) or its parent (go test runs in benchmark/).
// dir is the benchmark's own directory relative to the working directory.
func loadSpec() (spec *benchSpec, dir string, err error) {
	path, dir := "BENCHMARK.json", "benchmark"
	if _, err := os.Stat(path); err != nil {
		path, dir = filepath.Join("..", path), "."
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, "", fmt.Errorf("run from the repository root or benchmark/: %w", err)
	}
	spec = &benchSpec{}
	if err := json.Unmarshal(data, spec); err != nil {
		return nil, "", fmt.Errorf("%s: %w", path, err)
	}
	return spec, dir, nil
}

// set holds one full set of runs: workload → metric → value.
type set map[string]map[string]float64

// runAll runs every workload in a fresh child process of this binary, so
// set-up time and peak RSS are per workload: all untraced runs first, then
// the traced pass. It reports whether every run was correct.
func runAll(o options, traces []bool) (set, bool) {
	out, ok := set{}, true
	for _, traced := range traces {
		for _, w := range workloads {
			res, err := runChild(w.name, o, traced)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
				ok = false
				continue
			}
			ok = ok && res.Correct
			if out[w.name] == nil {
				out[w.name] = map[string]float64{}
			}
			for name, m := range res.Metrics {
				out[w.name][name] = m.Value
			}
		}
	}
	return out, ok
}

// runChild runs one workload in a child process, passes its output through
// and parses the result from its last line. The child is waited for before
// returning.
func runChild(workload string, o options, traced bool) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{
		"-workload", workload,
		"-seed", strconv.FormatUint(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-trace", map[bool]string{false: "0", true: "1"}[traced],
	}
	if o.quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	var buf bytes.Buffer
	cmd.Stdout = &buf
	runErr := cmd.Run()
	os.Stdout.Write(buf.Bytes())
	var last []byte
	sc := bufio.NewScanner(&buf)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		if runErr != nil {
			return nil, runErr
		}
		return nil, fmt.Errorf("no result line: %w", err)
	}
	return &res, nil
}

// runSelfcheck runs the full untraced set twice and reports whether every
// end-to-end metric differs between the sets by no more than its bound.
func runSelfcheck(spec *benchSpec, o options) bool {
	a, okA := runAll(o, []bool{false})
	b, okB := runAll(o, []bool{false})
	ok := okA && okB
	fmt.Printf("\nselfcheck: two sets, seed %d, %g s per run\n", o.seed, o.seconds)
	fmt.Printf("%-16s %-18s %14s %14s %9s %7s\n", "workload", "metric", "set 1", "set 2", "spread", "bound")
	for _, w := range workloads {
		for _, m := range spec.EndToEnd {
			va, vb := a[w.name][m.Name], b[w.name][m.Name]
			spread := math.Inf(1)
			if va != 0 && vb != 0 {
				spread = (vb - va) / va
			}
			verdict := ""
			if math.Abs(spread) > m.Bound {
				verdict, ok = "  FAIL", false
			}
			fmt.Printf("%-16s %-18s %14.6g %14.6g %+8.2f%% %6.1f%%%s\n", w.name, m.Name, va, vb, 100*spread, 100*m.Bound, verdict)
		}
	}
	if ok {
		fmt.Println("selfcheck: PASS")
	} else {
		fmt.Println("selfcheck: FAIL")
	}
	return ok
}
