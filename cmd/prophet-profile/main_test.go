package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestPlanRuns drives the whole command at a short profile: the pattern and
// the Algorithm 1 plan both print, and the iteration count printed is the
// one asked for.
func TestPlanRuns(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-plan", "-profile-iters", "5"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"resnet50 (batch 64):",
		"profiled 5 iterations",
		"{gradient",
		"Algorithm 1 plan at 3000 Mbps",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}

// TestBadInvocationsAreErrors: a value the profiler would silently default
// or the planner would panic on is rejected with an error naming the flag.
func TestBadInvocationsAreErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		// core.Assemble panics on these: a non-positive rate is a
		// programmer error there.
		{[]string{"-plan", "-bandwidth", "0"}, "-bandwidth 0"},
		{[]string{"-plan", "-bandwidth", "-5"}, "-bandwidth -5"},
		// The profiler reads 0 as its default of 50.
		{[]string{"-profile-iters", "0"}, "-profile-iters 0"},
		{[]string{"-model", "nope"}, `unknown model "nope"`},
	} {
		var out bytes.Buffer
		err := run(tc.args, &out)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run %v: error %v, want one containing %q", tc.args, err, tc.want)
		}
	}
}
