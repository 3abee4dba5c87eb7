package netsim

import (
	"math"
	"testing"
	"testing/quick"

	"prophet/internal/sim"
)

func newTestLink(rate float64) (*sim.Engine, *Link) {
	eng := sim.New()
	link := NewLink(eng, LinkConfig{Trace: Const(rate), SetupTime: 0.001, RampBytes: 1000})
	return eng, link
}

func TestLinkSendDuration(t *testing.T) {
	eng, link := newTestLink(1000) // 1000 B/s, setup 1ms, ramp 1000 B
	var done sim.Time = -1
	link.Send(500, "m", func() { done = eng.Now() })
	eng.Run()
	// 0.001 + (500+1000)/1000 = 1.501
	if math.Abs(done-1.501) > 1e-9 {
		t.Fatalf("done at %v, want 1.501", done)
	}
}

func TestLinkBusyDuringTransfer(t *testing.T) {
	eng, link := newTestLink(1000)
	link.Send(500, "m", nil)
	if !link.Busy() {
		t.Fatal("link should be busy immediately after Send")
	}
	eng.Run()
	if link.Busy() {
		t.Fatal("link should be idle after completion")
	}
}

func TestLinkSendWhileBusyPanics(t *testing.T) {
	_, link := newTestLink(1000)
	link.Send(500, "a", nil)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on Send while busy")
		}
	}()
	link.Send(500, "b", nil)
}

func TestLinkNegativeBytesPanics(t *testing.T) {
	_, link := newTestLink(1000)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	link.Send(-1, "m", nil)
}

func TestLinkZeroBytesPaysSetup(t *testing.T) {
	eng, link := newTestLink(1000)
	var done sim.Time = -1
	link.Send(0, "m", func() { done = eng.Now() })
	eng.Run()
	// setup + ramp/rate = 0.001 + 1 = 1.001
	if math.Abs(done-1.001) > 1e-9 {
		t.Fatalf("done at %v, want 1.001", done)
	}
}

func TestLinkBytesSentAccumulates(t *testing.T) {
	eng, link := newTestLink(1000)
	link.Send(100, "a", func() {
		link.Send(200, "b", nil)
	})
	eng.Run()
	if link.BytesSent() != 300 {
		t.Fatalf("BytesSent = %v, want 300", link.BytesSent())
	}
}

func TestLinkRecording(t *testing.T) {
	eng, link := newTestLink(1000)
	link.SetRecording(true)
	link.Send(100, "first", func() { link.Send(50, "second", nil) })
	eng.Run()
	recs := link.Records()
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	if recs[0].Tag != "first" || recs[1].Tag != "second" {
		t.Fatalf("tags = %q, %q", recs[0].Tag, recs[1].Tag)
	}
	if recs[0].End != recs[1].Start {
		t.Fatalf("second transfer should start when first ends: %v vs %v", recs[0].End, recs[1].Start)
	}
}

func TestLinkObserver(t *testing.T) {
	eng, link := newTestLink(1000)
	var seen []float64
	link.ObserveTransfers(func(rec TransferRecord) { seen = append(seen, rec.Bytes) })
	link.Send(123, "m", nil)
	eng.Run()
	if len(seen) != 1 || seen[0] != 123 {
		t.Fatalf("observer saw %v", seen)
	}
}

func TestLinkNilTracePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewLink(sim.New(), LinkConfig{})
}

func TestEffectiveBandwidthShape(t *testing.T) {
	cfg := LinkConfig{Trace: Const(Gbps(1)), SetupTime: 1e-3, RampBytes: 256e3}
	b := Gbps(1)
	small := cfg.EffectiveBandwidth(1e3, b)
	mid := cfg.EffectiveBandwidth(1e6, b)
	large := cfg.EffectiveBandwidth(64e6, b)
	if !(small < mid && mid < large) {
		t.Fatalf("f(s,B) not increasing: %v %v %v", small, mid, large)
	}
	if large > b {
		t.Fatalf("f(s,B)=%v exceeds raw bandwidth %v", large, b)
	}
	if small > 0.1*b {
		t.Fatalf("small message should be heavily penalized: got %v of B", small/b)
	}
	if large < 0.9*b {
		t.Fatalf("large message should approach B: got %v of B", large/b)
	}
}

func TestEffectiveBandwidthZeroEdge(t *testing.T) {
	cfg := DefaultLinkConfig(Const(Gbps(1)))
	if cfg.EffectiveBandwidth(0, Gbps(1)) != 0 {
		t.Fatal("f(0,B) should be 0")
	}
	if cfg.EffectiveBandwidth(1e6, 0) != 0 {
		t.Fatal("f(s,0) should be 0")
	}
}

// Property: effective bandwidth is monotone increasing in s and bounded by B
// (paper Eq. 10 requirements).
func TestPropertyEffectiveBandwidthEq10(t *testing.T) {
	cfg := LinkConfig{Trace: Const(1), SetupTime: 1e-3, RampBytes: 256e3}
	f := func(s1Raw, s2Raw uint32, bRaw uint16) bool {
		b := float64(bRaw)*1e6 + 1e6
		s1 := float64(s1Raw%64000000) + 1
		s2 := float64(s2Raw%64000000) + 1
		if s1 > s2 {
			s1, s2 = s2, s1
		}
		f1 := cfg.EffectiveBandwidth(s1, b)
		f2 := cfg.EffectiveBandwidth(s2, b)
		return f1 <= f2+1e-9 && f2 <= b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMonitorConvergesToRawBandwidth(t *testing.T) {
	eng := sim.New()
	rate := Gbps(2)
	link := NewLink(eng, LinkConfig{Trace: Const(rate), SetupTime: 1e-3, RampBytes: 256e3})
	mon := NewMonitor(link, 0.3, Gbps(1))
	var sendMany func(n int)
	sendMany = func(n int) {
		if n == 0 {
			return
		}
		link.Send(4e6, "probe", func() { sendMany(n - 1) })
	}
	sendMany(20)
	eng.Run()
	if mon.Samples() != 20 {
		t.Fatalf("Samples = %d, want 20", mon.Samples())
	}
	if math.Abs(mon.Estimate()-rate)/rate > 0.01 {
		t.Fatalf("Estimate = %v, want ~%v", mon.Estimate(), rate)
	}
}

func TestMonitorIgnoresTinyTransfers(t *testing.T) {
	eng := sim.New()
	link := NewLink(eng, DefaultLinkConfig(Const(Gbps(1))))
	mon := NewMonitor(link, 0.3, Gbps(1))
	link.Send(100, "tiny", nil)
	eng.Run()
	if mon.Samples() != 0 {
		t.Fatalf("tiny transfer contributed a sample")
	}
	if mon.Estimate() != Gbps(1) {
		t.Fatalf("estimate moved: %v", mon.Estimate())
	}
}

func TestMonitorTracksBandwidthChange(t *testing.T) {
	eng := sim.New()
	tr := NewStepTrace(Step{0, Gbps(4)}, Step{30, Gbps(1)})
	link := NewLink(eng, LinkConfig{Trace: tr, SetupTime: 1e-3, RampBytes: 256e3})
	mon := NewMonitor(link, 0.5, Gbps(4))
	var sendUntil func()
	sendUntil = func() {
		if eng.Now() > 120 {
			return
		}
		link.Send(8e6, "probe", sendUntil)
	}
	sendUntil()
	eng.Run()
	if math.Abs(mon.Estimate()-Gbps(1))/Gbps(1) > 0.05 {
		t.Fatalf("Estimate = %v after drop, want ~%v", mon.Estimate(), Gbps(1))
	}
}

func TestMonitorBadAlphaPanics(t *testing.T) {
	eng := sim.New()
	link := NewLink(eng, DefaultLinkConfig(Const(1)))
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewMonitor(link, 0, 1)
}
