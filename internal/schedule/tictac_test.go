package schedule

import "testing"

func TestTicTacPriorityOrder(t *testing.T) {
	tt := NewTicTac(sizes(5, 100))
	tt.BeginIteration(0)
	for _, g := range []int{4, 2, 3} {
		tt.OnGenerated(g, 0)
	}
	var got []int
	for {
		m, ok := tt.Next(0)
		if !ok {
			break
		}
		got = append(got, m.Pieces[0].Grad)
	}
	want := []int{2, 3, 4}
	if len(got) != 3 {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
}

func TestTicTacWholeTensors(t *testing.T) {
	tt := NewTicTac([]float64{100, 5000})
	tt.BeginIteration(0)
	tt.OnGenerated(1, 0)
	m, ok := tt.Next(0)
	if !ok || m.Bytes != 5000 || !m.Pieces[0].Last {
		t.Fatalf("msg = %+v", m)
	}
	if m.Stall != DefaultTicTacEngineCost {
		t.Fatalf("stall = %v", m.Stall)
	}
}

func TestTicTacPreemption(t *testing.T) {
	tt := NewTicTac(sizes(4, 10))
	tt.BeginIteration(0)
	tt.OnGenerated(3, 0)
	m1, _ := tt.Next(0)
	if m1.Priority() != 3 {
		t.Fatal("wrong first")
	}
	tt.OnGenerated(0, 1)
	tt.OnGenerated(2, 1)
	m2, _ := tt.Next(1)
	if m2.Priority() != 0 {
		t.Fatalf("priority ignored: got %d", m2.Priority())
	}
}

func TestTicTacEmptyAndReset(t *testing.T) {
	tt := NewTicTac(sizes(2, 10))
	tt.BeginIteration(0)
	if _, ok := tt.Next(0); ok {
		t.Fatal("empty tictac returned message")
	}
	tt.OnGenerated(1, 0)
	tt.BeginIteration(1)
	if _, ok := tt.Next(0); ok {
		t.Fatal("queue survived reset")
	}
	tt.OnSent(Message{}, 0, 1)
	tt.OnIterationEnd(1)
	if tt.Name() != "tictac" {
		t.Fatal("name")
	}
}

func TestTicTacOutOfRangePanics(t *testing.T) {
	tt := NewTicTac(sizes(2, 10))
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	tt.OnGenerated(5, 0)
}

func TestTicTacDuplicateGenerationIdempotent(t *testing.T) {
	tt := NewTicTac(sizes(3, 10))
	tt.BeginIteration(0)
	tt.OnGenerated(1, 0)
	tt.OnGenerated(1, 0)
	count := 0
	for {
		if _, ok := tt.Next(0); !ok {
			break
		}
		count++
	}
	if count != 1 {
		t.Fatalf("duplicate generation produced %d messages", count)
	}
}

func TestCreditTunerProbesBothDirections(t *testing.T) {
	tu := NewCreditTuner(4e6, 1e6, 16e6, 3)
	saw := map[bool]bool{} // above/below incumbent
	for i := 0; i < 100; i++ {
		c := tu.Propose()
		if c > tu.Best() {
			saw[true] = true
		}
		if c < tu.Best() {
			saw[false] = true
		}
		tu.Report(1.0)
	}
	if !saw[true] || !saw[false] {
		t.Fatalf("tuner probed only one direction: %v", saw)
	}
}

func TestCreditTunerRespectsBounds(t *testing.T) {
	tu := NewCreditTuner(4e6, 2e6, 8e6, 5)
	for i := 0; i < 200; i++ {
		c := tu.Propose()
		if c < 2e6 || c > 8e6 {
			t.Fatalf("credit %v out of bounds", c)
		}
		tu.Report(1.0)
	}
}
