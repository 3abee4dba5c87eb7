package strategy

import (
	"reflect"
	"testing"
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
