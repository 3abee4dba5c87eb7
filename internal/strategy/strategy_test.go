package strategy

import (
	"math"
	"reflect"
	"testing"

	"prophet/internal/core"
	"prophet/internal/schedule"
)

func TestNamesCoverTheRegistry(t *testing.T) {
	want := []string{"bytescheduler", "bytescheduler-tuned", "fifo", "fusion", "p3", "prophet", "tictac"}
	if got := Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
}

func TestCheckKnownUnknown(t *testing.T) {
	if err := Check("p3"); err != nil {
		t.Fatalf("Check(p3) = %v", err)
	}
	for _, name := range []string{"magic", "priority"} { // priority: the alias removed in PR 12
		if err := Check(name); err == nil {
			t.Fatalf("Check(%s) succeeded; want error", name)
		}
	}
}

func TestNewValidatesParams(t *testing.T) {
	// Every sizing strategy rejects empty sizes; prophet instead demands a
	// profile.
	for _, name := range []string{"fifo", "p3", "tictac", "bytescheduler", "bytescheduler-tuned", "fusion"} {
		if _, err := New(name, Params{}); err == nil {
			t.Errorf("New(%s) without sizes succeeded; want error", name)
		}
		if s, err := New(name, Params{Sizes: []float64{100, 200}}); err != nil || s == nil {
			t.Errorf("New(%s) with sizes: %v", name, err)
		}
	}
	if _, err := New("prophet", Params{Sizes: []float64{100}}); err == nil {
		t.Error("New(prophet) without profile succeeded; want error")
	}
	if _, err := New("nope", Params{}); err == nil {
		t.Error("New(nope) succeeded; want error")
	}
}

// FusionBytes is fusion's buffer threshold: the 64 MB default fuses every
// ready tensor into one message, a 1-byte threshold ships them one by one.
func TestFusionBytesSetsTheThreshold(t *testing.T) {
	sizes := []float64{100, 200, 300}
	for _, tc := range []struct {
		threshold float64
		messages  int
	}{{0, 1}, {1, 3}, {300, 2}} {
		s, err := New("fusion", Params{Sizes: sizes, FusionBytes: tc.threshold})
		if err != nil {
			t.Fatal(err)
		}
		s.BeginIteration(0)
		for g := range sizes {
			s.OnGenerated(g, 0)
		}
		got, total := 0, 0.0
		for {
			msg, ok := s.Next(0)
			if !ok {
				break
			}
			got++
			total += msg.Bytes
		}
		if got != tc.messages || total != 600 {
			t.Errorf("threshold %v: %d messages carrying %v bytes, want %d carrying 600", tc.threshold, got, total, tc.messages)
		}
	}
}

// Partition and Credit set the p3 and bytescheduler message sizes (0: 4 MB).
func TestPartitionAndCreditSetMessageSizes(t *testing.T) {
	sizes := func(name string, p Params) []float64 {
		p.Sizes = []float64{10e6}
		s, _ := New(name, p)
		s.OnGenerated(0, 0)
		var got []float64
		for msg, ok := s.Next(0); ok; msg, ok = s.Next(0) {
			got = append(got, msg.Bytes)
		}
		return got
	}
	for i, tc := range []struct{ got, want []float64 }{
		{sizes("p3", Params{}), []float64{4e6, 4e6, 2e6}},
		{sizes("p3", Params{Partition: 3e6}), []float64{3e6, 3e6, 3e6, 1e6}},
		{sizes("bytescheduler", Params{}), []float64{4e6, 4e6, 2e6}},
		{sizes("bytescheduler", Params{Credit: 6e6}), []float64{6e6, 4e6}},
	} {
		if !reflect.DeepEqual(tc.got, tc.want) {
			t.Errorf("row %d: messages %v, want %v", i, tc.got, tc.want)
		}
	}
}

// The tuned row explores [DefaultMinCredit, DefaultMaxCredit]: rewarded for
// nearing one bound, it reaches that bound and never leaves the range.
func TestTunedCreditStaysWithinDefaultBounds(t *testing.T) {
	for _, bound := range []float64{DefaultMinCredit, DefaultMaxCredit} {
		s, _ := New("bytescheduler-tuned", Params{Sizes: []float64{1e6}, Seed: 1})
		lo, hi := math.Inf(1), 0.0
		for iter := 0; iter < 100; iter++ {
			s.BeginIteration(iter)
			c := s.(*schedule.Queue).Credit()
			lo, hi = math.Min(lo, c), math.Max(hi, c)
			s.OnIterationEnd(math.Abs(math.Log(c / bound)))
		}
		if lo < DefaultMinCredit || hi > DefaultMaxCredit || (lo != bound && hi != bound) {
			t.Errorf("credits spanned [%v, %v] in 100 iterations; want within the default bounds, reaching %v", lo, hi, bound)
		}
	}
}

// Prophet with a profile and no bandwidth source plans at 1e9 B/s: it sends
// what a Prophet polling 1e9 B/s sends, which is not what one at 1e6 B/s
// sends.
func TestProphetWithoutBandwidthPlansAt1e9(t *testing.T) {
	prof, _ := core.NewProfile([]float64{0.02, 0.02, 0.01, 0.01, 0}, []float64{1e6, 1e6, 1e6, 1e6, 1e6}, 1e-6)
	labels := func(s schedule.Scheduler) []string {
		s.BeginIteration(0)
		for g := prof.N() - 1; g >= 0; g-- {
			s.OnGenerated(g, prof.Gen[g])
		}
		var got []string
		for msg, ok := s.Next(0); ok; msg, ok = s.Next(0) {
			got = append(got, msg.Label)
		}
		return got
	}
	at := func(bw float64) []string {
		p, _ := schedule.NewProphet(schedule.NewPlanner(prof, false), func() float64 { return bw }, nil)
		return labels(p)
	}
	s, err := New("prophet", Params{Profile: prof})
	if err != nil || !reflect.DeepEqual(labels(s), at(1e9)) || reflect.DeepEqual(at(1e9), at(1e6)) {
		t.Fatalf("New(prophet) without Bandwidth (err %v) did not plan as at 1e9 B/s, or 1e6 B/s plans the same", err)
	}
}
