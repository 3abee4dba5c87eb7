package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// randomProfile generates a stepwise workload the way backward propagation
// produces one: gradients release back-to-front in bursts (aggregation
// buckets), with c(0) — the end of backward — the largest release time.
func randomProfile(rng *rand.Rand) *Profile {
	n := 1 + rng.Intn(40)
	gen := make([]float64, n)
	bytes := make([]float64, n)
	t := 0.0
	for i := n - 1; i >= 0; {
		burst := 1 + rng.Intn(5)
		t += 0.002 + rng.Float64()*0.05
		for j := 0; j < burst && i >= 0; j++ {
			gen[i] = t
			i--
		}
	}
	for i := range bytes {
		bytes[i] = 1e4 + rng.Float64()*2e7
	}
	p, err := NewProfile(gen, bytes, 1e-6)
	if err != nil {
		panic(err)
	}
	return p
}

func randomConfig(rng *rand.Rand) Config {
	cfg := Config{
		Bandwidth: 1e8 * (0.2 + rng.Float64()*5),
		Partition: 1e5 + rng.Float64()*8e6,
	}
	if rng.Intn(2) == 0 {
		cfg.PerMessageTime = rng.Float64() * 2e-3
	}
	return cfg
}

const propTrials = 300

// TestAssemblePropertyCoverage: every gradient's bytes appear in the plan
// exactly once — the span sums match s(i), exactly one span per gradient is
// marked Last, and that span is the gradient's final appearance in unit
// order.
func TestAssemblePropertyCoverage(t *testing.T) {
	for trial := 0; trial < propTrials; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		prof := randomProfile(rng)
		cfg := randomConfig(rng)
		plan, err := assemble(t, prof, cfg)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		n := prof.N()
		sum := make([]float64, n)
		lastCount := make([]int, n)
		lastIsFinal := make([]bool, n)
		for _, u := range plan.Units {
			for _, s := range u.Spans {
				sum[s.Grad] += s.Bytes
				lastIsFinal[s.Grad] = s.Last
				if s.Last {
					lastCount[s.Grad]++
				}
			}
		}
		for g := 0; g < n; g++ {
			if rel := math.Abs(sum[g]-prof.Bytes[g]) / prof.Bytes[g]; rel > 1e-9 {
				t.Fatalf("trial %d: gradient %d planned %.1f bytes, profiled %.1f", trial, g, sum[g], prof.Bytes[g])
			}
			if lastCount[g] != 1 {
				t.Fatalf("trial %d: gradient %d has %d Last spans", trial, g, lastCount[g])
			}
			if !lastIsFinal[g] {
				t.Fatalf("trial %d: gradient %d's final span is not its Last", trial, g)
			}
		}
	}
}

// TestAssemblePropertyOrder: units keep Algorithm 1's structural order —
// all backward blocks precede all forward units, planned starts are
// non-decreasing, spans within a backward block run highest-priority first
// (ascending index, the heap's pop order), forward units are strictly
// ascending overall, gradient 0 opens the forward phase alone at c(0) or
// later, and no gradient's planned start precedes its release.
func TestAssemblePropertyOrder(t *testing.T) {
	for trial := 0; trial < propTrials; trial++ {
		rng := rand.New(rand.NewSource(int64(1_000_000 + trial)))
		prof := randomProfile(rng)
		cfg := randomConfig(rng)
		plan, err := assemble(t, prof, cfg)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		c0 := prof.BackwardEnd()
		sawForward := false
		prevStart := math.Inf(-1)
		prevForwardGrad := -1
		for ui, u := range plan.Units {
			if u.PlannedStart < prevStart-1e-9 {
				t.Fatalf("trial %d: unit %d starts at %v before previous %v", trial, ui, u.PlannedStart, prevStart)
			}
			prevStart = u.PlannedStart
			switch u.Phase {
			case Backward:
				if sawForward {
					t.Fatalf("trial %d: backward unit %d after forward began", trial, ui)
				}
				for k := 1; k < len(u.Spans); k++ {
					if u.Spans[k].Grad <= u.Spans[k-1].Grad {
						t.Fatalf("trial %d: unit %d spans out of priority order: %d then %d",
							trial, ui, u.Spans[k-1].Grad, u.Spans[k].Grad)
					}
				}
				for _, s := range u.Spans {
					if s.Grad == 0 {
						t.Fatalf("trial %d: gradient 0 in a backward block", trial)
					}
				}
			case Forward:
				if !sawForward {
					sawForward = true
					if g0 := u.Spans[0].Grad; g0 != 0 || len(u.Spans) != 1 {
						t.Fatalf("trial %d: first forward unit is %v, want gradient 0 alone", trial, u.Spans)
					}
					if u.PlannedStart < c0-1e-9 {
						t.Fatalf("trial %d: forward phase starts at %v before c(0)=%v", trial, u.PlannedStart, c0)
					}
				}
				for _, s := range u.Spans {
					if s.Grad <= prevForwardGrad {
						t.Fatalf("trial %d: forward gradient %d after %d", trial, s.Grad, prevForwardGrad)
					}
					prevForwardGrad = s.Grad
				}
			}
		}
		for g := 0; g < prof.N(); g++ {
			if plan.Start[g] < 0 {
				t.Fatalf("trial %d: gradient %d never scheduled", trial, g)
			}
			if plan.Start[g] < prof.Gen[g]-1e-9 {
				t.Fatalf("trial %d: gradient %d starts at %v before its release %v",
					trial, g, plan.Start[g], prof.Gen[g])
			}
		}
	}
}

// TestAssemblePropertyWindows: every backward block finishes within its
// transfer window. A block formed at time b has the fixed deadline
// min(c(0), earliest release after b); its wire time is the per-message
// cost plus bytes/B (the test uses the default linear estimator, which is
// additive over partitions). The single permitted overrun is the
// one-partition floor: a block holding exactly one span of at most one
// partition, admitted to bound priority inversion rather than idle the
// link (Alg. 1 always admits at least one partition).
func TestAssemblePropertyWindows(t *testing.T) {
	for trial := 0; trial < propTrials; trial++ {
		rng := rand.New(rand.NewSource(int64(2_000_000 + trial)))
		prof := randomProfile(rng)
		cfg := randomConfig(rng)
		plan, err := assemble(t, prof, cfg)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		c0 := prof.BackwardEnd()
		for ui, u := range plan.Units {
			if u.Phase != Backward {
				continue
			}
			deadline := c0
			for g := 0; g < prof.N(); g++ {
				if prof.Gen[g] > u.PlannedStart+1e-12 && prof.Gen[g] < deadline {
					deadline = prof.Gen[g]
				}
			}
			end := u.PlannedStart + cfg.PerMessageTime + u.Bytes/cfg.Bandwidth
			if end <= deadline+1e-9 {
				continue
			}
			if len(u.Spans) == 1 && u.Spans[0].Bytes <= cfg.Partition+1 {
				continue // one-partition floor: bounded inversion by design
			}
			t.Fatalf("trial %d: unit %d (%d spans, %.0f bytes) ends at %v past its window %v",
				trial, ui, len(u.Spans), u.Bytes, end, deadline)
		}
	}
}

// TestAssemblePropertyDeterministic: identical inputs yield identical
// plans — the plan is pure in its profile and config.
func TestAssemblePropertyDeterministic(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		rng := rand.New(rand.NewSource(int64(3_000_000 + trial)))
		prof := randomProfile(rng)
		cfg := randomConfig(rng)
		a, err := assemble(t, prof, cfg)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		b, err := assemble(t, prof, cfg)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("trial %d: Assemble is not deterministic", trial)
		}
	}
}
