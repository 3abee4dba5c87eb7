package prophet_test

import (
	"math"
	"testing"

	"prophet/internal/cluster"
	"prophet/internal/core"
	"prophet/internal/model"
	"prophet/internal/netsim"
	"prophet/internal/probe"
	"prophet/internal/profiler"
	"prophet/internal/schedule"
	"prophet/internal/stepwise"
)

// fullStack builds the complete profile → plan → simulate pipeline once.
// The returned rows are worker 0's completed gradient transfers, read from
// the run's probe recording.
func fullStack(t testing.TB, base *model.Model, batch int, mbps float64) (*profiler.Result, *cluster.Result, []probe.GradTimes) {
	t.Helper()
	wire := model.WithWireFactor(base, 2)
	agg := stepwise.DefaultAggregate(wire)
	prof, err := profiler.Run(profiler.Config{Model: wire, Batch: batch, Agg: agg, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	rec := probe.NewSpanRecorder()
	res, err := cluster.Run(cluster.Config{
		Model: wire, Batch: batch, Workers: 3, Agg: agg,
		Uplink: func(int) netsim.LinkConfig {
			return netsim.DefaultLinkConfig(netsim.Const(netsim.Goodput(netsim.Mbps(mbps))))
		},
		Scheduler:  cluster.ProphetFactory(schedule.NewPlanner(prof.Profile(), false)),
		Iterations: 6,
		Seed:       2,
		Observer:   rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	var log []probe.GradTimes
	for _, g := range rec.Grads() {
		if g.Worker == 0 && g.HasEnd {
			log = append(log, g)
		}
	}
	return prof, res, log
}

// TestProfiledTimesMatchExecution checks the core premise of Prophet's
// design: the profiled generation times c(i) predict the executed release
// times within jitter, iteration after iteration.
func TestProfiledTimesMatchExecution(t *testing.T) {
	prof, _, log := fullStack(t, model.ResNet50(), 64, 3000)
	// Executed generation times, relative to each iteration's backward
	// start, from the gradient rows.
	byIter := map[int]map[int]float64{}
	for _, e := range log {
		if byIter[e.Iter] == nil {
			byIter[e.Iter] = map[int]float64{}
		}
		byIter[e.Iter][e.Grad] = e.Generated
	}
	n := len(prof.Gen)
	for iter := 1; iter < 5; iter++ {
		gen := byIter[iter]
		if len(gen) != n {
			t.Fatalf("iteration %d logged %d gradients, want %d", iter, len(gen), n)
		}
		// Backward start of this iteration = generation time of the first
		// released bucket minus its profiled offset; compare *relative*
		// spans instead: executed c(0) − c(n−1) vs profiled.
		execSpan := gen[0] - gen[n-1]
		profSpan := prof.Gen[0] - prof.Gen[n-1]
		if math.Abs(execSpan-profSpan)/profSpan > 0.10 {
			t.Fatalf("iteration %d backward span %v deviates from profile %v", iter, execSpan, profSpan)
		}
	}
}

// TestPlanWaitModelAgreesWithOrdering checks that the analytical Sec. 3
// model and Algorithm 1 agree: Prophet's planned start times never yield a
// larger analytical T_wait than FIFO's on the same profile.
func TestPlanWaitModelAgreesWithOrdering(t *testing.T) {
	wire := model.WithWireFactor(model.ResNet50(), 2)
	agg := stepwise.DefaultAggregate(wire)
	prof, err := profiler.Run(profiler.Config{Model: wire, Batch: 64, Agg: agg, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	p := prof.Profile()
	for _, mbps := range []float64{1000, 3000} {
		bw := netsim.Goodput(netsim.Mbps(mbps))
		plan, err := core.Assemble(p, core.Config{Bandwidth: bw})
		if err != nil {
			t.Fatal(err)
		}
		hw := model.M60Like()
		est := make([]float64, p.N())
		fwd := make([]float64, p.N())
		for i := range est {
			est[i] = p.Bytes[i] / bw
			fwd[i] = wire.FwdTime(hw, wire.Grads[i], 64)
		}
		m := core.WaitModel{Gen: p.Gen, Est: est, FwdTime: fwd}
		prophetWait, _, _, err := m.Eval(plan.Start)
		if err != nil {
			t.Fatal(err)
		}
		fifoWait, _, _, err := m.Eval(m.FIFOStarts())
		if err != nil {
			t.Fatal(err)
		}
		if prophetWait > fifoWait*1.001 {
			t.Fatalf("at %v Mbps Prophet's analytical wait %v exceeds FIFO's %v", mbps, prophetWait, fifoWait)
		}
	}
}

// TestFullStackDeterminism: the complete pipeline is bit-reproducible.
func TestFullStackDeterminism(t *testing.T) {
	_, a, alog := fullStack(t, model.ResNet18(), 32, 2000)
	_, b, blog := fullStack(t, model.ResNet18(), 32, 2000)
	if a.Duration != b.Duration {
		t.Fatalf("durations differ: %v vs %v", a.Duration, b.Duration)
	}
	if len(alog) != len(blog) {
		t.Fatal("transfer rows differ in length")
	}
	for i := range alog {
		if alog[i] != blog[i] {
			t.Fatalf("transfer %d differs", i)
		}
	}
}

// TestConstraint7HoldsEndToEnd: in the executed simulation, no gradient's
// push ever starts before its generation — the paper's Constraint 7,
// verified on the real event stream rather than the plan.
func TestConstraint7HoldsEndToEnd(t *testing.T) {
	_, _, log := fullStack(t, model.ResNet50(), 64, 2000)
	for _, e := range log {
		if e.Start < e.Generated-1e-9 {
			t.Fatalf("gradient %d iteration %d pushed at %v before generation %v",
				e.Grad, e.Iter, e.Start, e.Generated)
		}
	}
}

// TestGradientZeroWaitsLeastUnderProphet: the objective of the whole paper
// in one assertion — under Prophet, gradient 0's average push wait is below
// the per-gradient average (it is the most prioritized tensor).
func TestGradientZeroWaitsLeastUnderProphet(t *testing.T) {
	_, _, log := fullStack(t, model.ResNet50(), 64, 2000)
	var g0, all float64
	var g0n, alln int
	for _, e := range log {
		if e.Iter == 0 {
			continue // warmup
		}
		w := e.Start - e.Generated
		all += w
		alln++
		if e.Grad == 0 {
			g0 += w
			g0n++
		}
	}
	if g0n == 0 || alln == 0 {
		t.Fatal("no samples")
	}
	if g0/float64(g0n) > all/float64(alln) {
		t.Fatalf("gradient 0 mean wait %v exceeds overall mean %v",
			g0/float64(g0n), all/float64(alln))
	}
}
