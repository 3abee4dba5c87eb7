package core

import (
	"math"
	"testing"
	"testing/quick"
)

// toyModel: 3 gradients, generated at 3,2,1 (backward order), each taking
// 1 s to transfer one way and 0.5 s of forward compute.
func toyModel() WaitModel {
	return WaitModel{
		Gen:     []float64{3, 2, 1},
		Est:     []float64{1, 1, 1},
		FwdTime: []float64{0.5, 0.5, 0.5},
	}
}

func TestEvalIdealSchedule(t *testing.T) {
	m := toyModel()
	// Send each gradient the moment it is generated: t = c.
	tWait, u, p, err := m.Eval([]float64{3, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	// u = t + 2E = {5, 4, 3}.
	for i, want := range []float64{5, 4, 3} {
		if u[i] != want {
			t.Fatalf("u[%d] = %v, want %v", i, u[i], want)
		}
	}
	// p0 = 5.5; p1 = max(5.5, 4)+0.5 = 6; p2 = max(6,3)+0.5 = 6.5.
	for i, want := range []float64{5.5, 6, 6.5} {
		if p[i] != want {
			t.Fatalf("p[%d] = %v, want %v", i, p[i], want)
		}
	}
	// T_wait = (u0-c0) + (u1-p0)^+ + (u2-p1)^+ = 2 + 0 + 0 = 2.
	if tWait != 2 {
		t.Fatalf("T_wait = %v, want 2", tWait)
	}
}

func TestEvalDelayedHighPriority(t *testing.T) {
	m := toyModel()
	// Delay gradient 0's transfer by 2 s: wait grows by exactly 2.
	tWait, _, _, err := m.Eval([]float64{5, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	if tWait != 4 {
		t.Fatalf("T_wait = %v, want 4", tWait)
	}
}

func TestEvalConstraint7Violation(t *testing.T) {
	m := toyModel()
	_, _, _, err := m.Eval([]float64{2.9, 2, 1}) // t(0) < c(0)
	if err == nil {
		t.Fatal("expected Constraint 7 error")
	}
}

func TestEvalLengthMismatch(t *testing.T) {
	m := toyModel()
	_, _, _, err := m.Eval([]float64{3, 2})
	if err == nil {
		t.Fatal("expected length error")
	}
}

func TestFIFOStartsSerializeGenerationOrder(t *testing.T) {
	m := WaitModel{
		Gen:     []float64{3, 2, 1},
		Est:     []float64{1, 3, 3}, // big low-priority transfers
		FwdTime: []float64{0.5, 0.5, 0.5},
	}
	ts := m.FIFOStarts()
	// Gradient 2 at t=1, runs to 4; gradient 1 at 4, runs to 7;
	// gradient 0 at 7.
	want := []float64{7, 4, 1}
	for i := range want {
		if ts[i] != want[i] {
			t.Fatalf("FIFO t = %v, want %v", ts, want)
		}
	}
}

func TestPriorityStartsPreferLowIndex(t *testing.T) {
	m := WaitModel{
		Gen:     []float64{2, 2, 1},
		Est:     []float64{1, 1, 5},
		FwdTime: []float64{0.1, 0.1, 0.1},
	}
	ts := m.PriorityStarts()
	// Gradient 2 starts at 1 (only one ready), occupies link to 6. At 6,
	// gradients 0 and 1 are both ready; 0 goes first.
	if ts[2] != 1 || ts[0] != 6 || ts[1] != 7 {
		t.Fatalf("priority t = %v", ts)
	}
}

func TestPriorityBeatsFIFOOnWait(t *testing.T) {
	// Classic paper scenario: while a long transfer occupies the link,
	// both gradient 1 (huge) and gradient 0 (small) become ready. FIFO
	// sends 1 first and delays forward start; priority sends 0 first.
	// Forward compute must be long enough for gradient 1's late update to
	// hide behind layer 0's forward pass — that overlap is exactly what
	// prioritizing gradient 0 buys.
	m := WaitModel{
		Gen:     []float64{3, 2.9, 1},
		Est:     []float64{0.5, 10, 4},
		FwdTime: []float64{12, 12, 12},
	}
	fifoWait, _, _, err := m.Eval(m.FIFOStarts())
	if err != nil {
		t.Fatal(err)
	}
	prioWait, _, _, err := m.Eval(m.PriorityStarts())
	if err != nil {
		t.Fatal(err)
	}
	if prioWait >= fifoWait {
		t.Fatalf("priority wait %v should beat FIFO wait %v", prioWait, fifoWait)
	}
}

// Property: T_wait is at least u(0) - c(0) and finite for any valid schedule.
func TestPropertyWaitLowerBound(t *testing.T) {
	f := func(delays []uint8) bool {
		if len(delays) == 0 || len(delays) > 50 {
			return true
		}
		n := len(delays)
		m := WaitModel{
			Gen:     make([]float64, n),
			Est:     make([]float64, n),
			FwdTime: make([]float64, n),
		}
		for i := 0; i < n; i++ {
			m.Gen[i] = float64(n - i)
			m.Est[i] = 0.5
			m.FwdTime[i] = 0.1
		}
		ts := make([]float64, n)
		for i := range ts {
			ts[i] = m.Gen[i] + float64(delays[i]%10)/10
		}
		tWait, u, _, err := m.Eval(ts)
		if err != nil {
			return false
		}
		return tWait >= u[0]-m.Gen[0]-1e-9 && !math.IsInf(tWait, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: delaying any single transfer never decreases T_wait (the
// objective is monotone in t, which justifies the paper's greedy choice
// t(0) = c(0)).
func TestPropertyWaitMonotoneInStart(t *testing.T) {
	f := func(which uint8, extraRaw uint8) bool {
		m := WaitModel{
			Gen:     []float64{4, 3, 2, 1},
			Est:     []float64{1, 1, 1, 1},
			FwdTime: []float64{0.3, 0.3, 0.3, 0.3},
		}
		base := []float64{4, 3, 2, 1}
		w0, _, _, err := m.Eval(base)
		if err != nil {
			return false
		}
		i := int(which) % 4
		extra := float64(extraRaw%50) / 10
		bumped := append([]float64(nil), base...)
		bumped[i] += extra
		w1, _, _, err := m.Eval(bumped)
		if err != nil {
			return false
		}
		return w1 >= w0-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestProphetPlanMinimizesWaitVersusBaselines(t *testing.T) {
	// Build a stepwise profile where block assembly matters: medium
	// bandwidth, 4 blocks. Prophet's schedule should produce T_wait no
	// worse than FIFO's.
	prof := stepProfile(t, 4, 5, 0.2, 2e6)
	bw := 100e6
	est := make([]float64, prof.N())
	fwd := make([]float64, prof.N())
	for i := range est {
		est[i] = prof.Bytes[i] / bw
		fwd[i] = 0.005
	}
	m := WaitModel{Gen: prof.Gen, Est: est, FwdTime: fwd}
	plan, err := assemble(t, prof, Config{Bandwidth: bw})
	if err != nil {
		t.Fatal(err)
	}
	prophetWait, _, _, err := m.Eval(plan.Start)
	if err != nil {
		t.Fatal(err)
	}
	fifoWait, _, _, err := m.Eval(m.FIFOStarts())
	if err != nil {
		t.Fatal(err)
	}
	if prophetWait > fifoWait+1e-9 {
		t.Fatalf("Prophet wait %v worse than FIFO %v", prophetWait, fifoWait)
	}
}
