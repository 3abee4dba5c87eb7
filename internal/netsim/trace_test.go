package netsim

import (
	"math"
	"testing"
	"testing/quick"

	"prophet/internal/sim"
)

func TestUnitConversions(t *testing.T) {
	if Gbps(8) != 1e9 {
		t.Fatalf("Gbps(8) = %v, want 1e9", Gbps(8))
	}
	if Mbps(8) != 1e6 {
		t.Fatalf("Mbps(8) = %v", Mbps(8))
	}
}

func TestConstTrace(t *testing.T) {
	tr := Const(100)
	if tr.At(0) != 100 || tr.At(1e9) != 100 {
		t.Fatal("Const trace not constant")
	}
	if tr.NextChange(0) < 1e299 {
		t.Fatal("Const trace should never change")
	}
}

func TestStepTraceLookup(t *testing.T) {
	tr := NewStepTrace(Step{0, 10}, Step{5, 20}, Step{10, 5})
	cases := []struct {
		t    sim.Time
		want float64
	}{{-1, 10}, {0, 10}, {4.9, 10}, {5, 20}, {9.9, 20}, {10, 5}, {100, 5}}
	for _, c := range cases {
		if got := tr.At(c.t); got != c.want {
			t.Fatalf("At(%v) = %v, want %v", c.t, got, c.want)
		}
	}
}

func TestStepTraceNextChange(t *testing.T) {
	tr := NewStepTrace(Step{0, 10}, Step{5, 20})
	if got := tr.NextChange(0); got != 5 {
		t.Fatalf("NextChange(0) = %v, want 5", got)
	}
	if got := tr.NextChange(5); got < 1e299 {
		t.Fatalf("NextChange(5) = %v, want +Inf-ish", got)
	}
}

func TestStepTraceSortsInput(t *testing.T) {
	tr := NewStepTrace(Step{5, 20}, Step{0, 10})
	if tr.At(1) != 10 {
		t.Fatal("unsorted steps not handled")
	}
}

func TestStepTraceDuplicateFromKeepsLast(t *testing.T) {
	tr := NewStepTrace(Step{0, 10}, Step{0, 30})
	if tr.At(0) != 30 {
		t.Fatalf("At(0) = %v, want 30 (last duplicate)", tr.At(0))
	}
}

func TestStepTraceEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewStepTrace()
}

func TestStepTraceNegativeRatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewStepTrace(Step{0, -5})
}

func TestTransferTimeConst(t *testing.T) {
	// 1000 bytes at 100 B/s takes 10 s.
	if got := TransferTime(Const(100), 0, 1000); got != 10 {
		t.Fatalf("TransferTime = %v, want 10", got)
	}
}

func TestTransferTimeZeroBytes(t *testing.T) {
	if got := TransferTime(Const(100), 3, 0); got != 0 {
		t.Fatalf("TransferTime(0 bytes) = %v", got)
	}
}

func TestTransferTimeCrossesStep(t *testing.T) {
	// 10 B/s for 5 s (50 bytes), then 50 B/s. 100 bytes total:
	// 50 bytes in first 5 s, remaining 50 bytes at 50 B/s = 1 s. Total 6 s.
	tr := NewStepTrace(Step{0, 10}, Step{5, 50})
	if got := TransferTime(tr, 0, 100); math.Abs(got-6) > 1e-9 {
		t.Fatalf("TransferTime = %v, want 6", got)
	}
}

func TestTransferTimeStartsMidSegment(t *testing.T) {
	tr := NewStepTrace(Step{0, 10}, Step{5, 50})
	// Start at t=4: 10 bytes in 1 s, then 40 bytes at 50 B/s = 0.8 s.
	if got := TransferTime(tr, 4, 50); math.Abs(got-1.8) > 1e-9 {
		t.Fatalf("TransferTime = %v, want 1.8", got)
	}
}

func TestTransferTimeThroughZeroRateWindow(t *testing.T) {
	// Link dead from t=1 to t=3.
	tr := NewStepTrace(Step{0, 100}, Step{1, 0}, Step{3, 100})
	// 200 bytes from t=0: 100 in first second, stall 2 s, 100 more in 1 s.
	if got := TransferTime(tr, 0, 200); math.Abs(got-4) > 1e-9 {
		t.Fatalf("TransferTime = %v, want 4", got)
	}
}

func TestTransferTimeDeadForever(t *testing.T) {
	tr := NewStepTrace(Step{0, 100}, Step{1, 0})
	if got := TransferTime(tr, 0, 1000); got < 1e299 {
		t.Fatalf("TransferTime = %v, want +Inf-ish", got)
	}
}

// Property: transfer time under a constant trace equals bytes/rate.
func TestPropertyTransferTimeConst(t *testing.T) {
	f := func(bRaw, rRaw uint32) bool {
		bytes := float64(bRaw%1000000) + 1
		rate := float64(rRaw%100000) + 1
		got := TransferTime(Const(rate), 0, bytes)
		return math.Abs(got-bytes/rate) < 1e-6*(1+bytes/rate)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: transfer time is monotone non-decreasing in bytes.
func TestPropertyTransferTimeMonotone(t *testing.T) {
	tr := NewStepTrace(Step{0, 50}, Step{2, 10}, Step{7, 200})
	f := func(aRaw, bRaw uint32) bool {
		a := float64(aRaw % 100000)
		b := float64(bRaw % 100000)
		if a > b {
			a, b = b, a
		}
		return TransferTime(tr, 0, a) <= TransferTime(tr, 0, b)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
