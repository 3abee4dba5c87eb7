package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestSchema runs every workload in quick mode, untraced and traced, and
// checks that what is emitted is exactly what BENCHMARK.json declares.
func TestSchema(t *testing.T) {
	spec, dir, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1..60", spec.RunSeconds)
	}
	seen := map[string]bool{}
	unique := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %v", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	hasSetup := false
	for _, m := range spec.EndToEnd {
		unique(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q does not match %v", m.Name, m.Unit, unitRE)
		}
		if m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside 0..0.25", m.Name, m.Bound)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	for _, m := range spec.PerLayer {
		unique(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q does not match %v", m.Name, m.Unit, unitRE)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}

	for i, sw := range spec.Workloads {
		unique(sw.Name)
		if sw.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the benchmark", i, sw.Name, workloads[i].name)
		}
		if sw.Why == "" || len(sw.Why) > 200 {
			t.Errorf("%s: why has %d characters, want 1..200", sw.Name, len(sw.Why))
		}
		for _, traced := range []bool{false, true} {
			declared := spec.EndToEnd
			if traced {
				declared = spec.PerLayer
			}
			// runOne fails on a metric that is declared and not measured,
			// or measured and not declared; the map holds each name once.
			res, err := runOne(spec, dir, options{workload: sw.Name, seed: goldenSeed, quick: true, trace: traced})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", sw.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d", sw.Name, traced, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(declared) {
				t.Errorf("%s traced=%v: %d metrics emitted, %d declared", sw.Name, traced, len(res.Metrics), len(declared))
			}
			for _, m := range declared {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s traced=%v: %s missing", sw.Name, traced, m.Name)
					continue
				}
				if got.Unit != m.Unit {
					t.Errorf("%s: %s has unit %q, declared %q", sw.Name, m.Name, got.Unit, m.Unit)
				}
				if math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("%s: %s is %v", sw.Name, m.Name, got.Value)
				}
				if !traced && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v, want > 0", sw.Name, m.Name, got.Value)
				}
			}
		}

		data, err := os.ReadFile(filepath.Join(dir, "out", "trace-"+sw.Name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var tr struct {
			Spans []map[string]any `json:"spans"`
		}
		if err := json.Unmarshal(data, &tr); err != nil {
			t.Fatal(err)
		}
		if len(tr.Spans) == 0 {
			t.Errorf("%s: trace has no spans", sw.Name)
		}
		for _, s := range tr.Spans {
			for _, key := range []string{"name", "start", "end", "parent", "workload"} {
				if _, ok := s[key]; !ok {
					t.Fatalf("%s: span %v lacks %q", sw.Name, s, key)
				}
			}
		}
	}
}
