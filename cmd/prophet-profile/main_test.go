package main

import (
	"bytes"
	"fmt"
	"regexp"
	"slices"
	"strings"
	"testing"

	"prophet/internal/cluster"
	"prophet/internal/model"
	"prophet/internal/netsim"
	"prophet/internal/profiler"
	"prophet/internal/schedule"
	"prophet/internal/stepwise"
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

// TestPlanIsWhatProphetSends: the printed plan is the one Prophet runs. A
// simulated Prophet on a constant-rate PS link at -bandwidth, profiled as the
// command profiles, sends exactly the printed units in iteration 0, as the
// labels its decision log records.
func TestPlanIsWhatProphetSends(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-plan", "-profile-iters", "5"}, &out); err != nil {
		t.Fatal(err)
	}
	unit := regexp.MustCompile(`^\s+\d+ (backward|forward) .* g(\d+)\.\.g(\d+) \(`)
	var printed []string
	for _, line := range strings.Split(out.String(), "\n") {
		m := unit.FindStringSubmatch(line)
		switch {
		case m == nil:
		case m[1] == "backward":
			printed = append(printed, fmt.Sprintf("block[g%s..g%s]", m[2], m[3]))
		default:
			printed = append(printed, fmt.Sprintf("fwd[g%s]", m[2]))
		}
	}

	wire := model.WithWireFactor(model.ResNet50(), 2)
	agg := stepwise.DefaultAggregate(wire)
	prof, err := profiler.Run(profiler.Config{Model: wire, Batch: 64, Agg: agg, Iterations: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	link := netsim.DefaultLinkConfig(netsim.Const(netsim.Goodput(netsim.Mbps(3000))))
	res, err := cluster.Run(cluster.Config{
		Model: wire, Batch: 64, Workers: 2, Agg: agg,
		Uplink:         func(int) netsim.LinkConfig { return link },
		Scheduler:      cluster.ProphetFactory(schedule.NewPlanner(prof.Profile(), false)),
		Iterations:     1,
		Seed:           1,
		RecordMessages: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var sent []string
	for _, r := range res.Messages {
		if r.Iter == 0 {
			sent = append(sent, r.Label)
		}
	}
	slices.Sort(printed)
	slices.Sort(sent)
	if len(printed) == 0 || !slices.Equal(printed, sent) {
		t.Fatalf("printed plan %v\nProphet sent %v", printed, sent)
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
