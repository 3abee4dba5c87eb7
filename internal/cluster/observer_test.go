package cluster

import (
	"math"
	"testing"

	"prophet/internal/model"
	"prophet/internal/probe"
	"prophet/internal/probe/attrib"
)

// TestObserverPassiveInSim asserts attaching a recorder changes nothing
// about the simulated run.
func TestObserverPassiveInSim(t *testing.T) {
	run := func(obs probe.Observer) *Result {
		cfg := smallConfig(t, FIFOFactory(model.ResNet18()), 5)
		cfg.RecordMessages = true
		cfg.Observer = obs
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	bare := run(nil)
	observed := run(probe.NewSpanRecorder())
	if bare.Duration != observed.Duration {
		t.Errorf("duration changed under observation: %v vs %v", bare.Duration, observed.Duration)
	}
	if len(bare.Messages) != len(observed.Messages) {
		t.Fatalf("decision count changed under observation: %d vs %d", len(bare.Messages), len(observed.Messages))
	}
	for i := range bare.Messages {
		if bare.Messages[i].Label != observed.Messages[i].Label {
			t.Fatalf("decision %d changed under observation: %q vs %q",
				i, bare.Messages[i].Label, observed.Messages[i].Label)
		}
	}
}

// TestAttributionSumsOnSim checks the analyzer's additivity invariant on a
// real simulated run: the five components of every gradient must sum to
// its measured completion time.
func TestAttributionSumsOnSim(t *testing.T) {
	rec := probe.NewSpanRecorder()
	m := model.ResNet18()
	cfg := smallConfig(t, prophetFactory(t, m, 32), 5)
	cfg.Observer = rec
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	rep := attrib.Analyze(rec, 3)
	if len(rep.PerGrad) == 0 {
		t.Fatal("attribution produced no gradients")
	}
	// Every worker/iteration/gradient must appear: 2 workers, 6 iterations.
	wantGrads := 2 * 6 * m.NumGradients()
	if len(rep.PerGrad)+rep.Skipped != wantGrads {
		t.Errorf("attributed %d + skipped %d, want %d total", len(rep.PerGrad), rep.Skipped, wantGrads)
	}
	for _, c := range rep.PerGrad {
		if diff := math.Abs(c.Sum() - c.Completion); diff > 1e-9 {
			t.Errorf("worker %d iter %d grad %d: components sum off by %g", c.Worker, c.Iter, c.Grad, diff)
		}
		for name, v := range map[string]float64{
			"generation": c.Generation, "prio-wait": c.PriorityWait,
			"bw-wait": c.BandwidthWait, "transmit": c.Transmit, "ack": c.Ack,
		} {
			if v < 0 {
				t.Errorf("worker %d iter %d grad %d: negative %s %g", c.Worker, c.Iter, c.Grad, name, v)
			}
		}
	}
	if len(rep.Top) == 0 {
		t.Error("no top-blocking entries")
	}
}
