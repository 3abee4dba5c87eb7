package strategy

import (
	"reflect"
	"testing"
)

func TestNamesCoverTheRegistry(t *testing.T) {
	want := []string{"bytescheduler", "bytescheduler-tuned", "fifo", "p3", "prophet", "tictac"}
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
	for _, name := range []string{"fifo", "p3", "tictac", "bytescheduler", "bytescheduler-tuned"} {
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
