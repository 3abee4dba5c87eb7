package workload

import (
	"testing"
	"testing/quick"

	"prophet/internal/model"
)

func TestSyntheticShapes(t *testing.T) {
	for _, shape := range []Shape{Uniform, TailHeavy, FrontHeavy, Alternating} {
		m, err := Synthetic(shape, 40, 10_000_000, 1)
		if err != nil {
			t.Fatalf("%v: %v", shape, err)
		}
		if m.NumGradients() != 40 {
			t.Fatalf("%v: %d tensors", shape, m.NumGradients())
		}
		if m.TotalParams() < 10_000_000 {
			t.Fatalf("%v: params %d < requested", shape, m.TotalParams())
		}
	}
}

func TestSyntheticTailHeavySkew(t *testing.T) {
	m, err := Synthetic(TailHeavy, 40, 10_000_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	front := m.Grads[0].Elems
	back := m.Grads[39].Elems
	if back < 5*front {
		t.Fatalf("tail-heavy not skewed: front %d back %d", front, back)
	}
	mf, err := Synthetic(FrontHeavy, 40, 10_000_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if mf.Grads[0].Elems < 5*mf.Grads[39].Elems {
		t.Fatal("front-heavy not skewed")
	}
}

func TestSyntheticAlternating(t *testing.T) {
	m, err := Synthetic(Alternating, 10, 1_000_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.Grads[0].Elems < 10*m.Grads[1].Elems {
		t.Fatalf("alternating pattern missing: %d vs %d", m.Grads[0].Elems, m.Grads[1].Elems)
	}
}

func TestSyntheticRejectsBadArgs(t *testing.T) {
	if _, err := Synthetic(Uniform, 0, 100, 1); err == nil {
		t.Fatal("expected error for n=0")
	}
	if _, err := Synthetic(Uniform, 10, 5, 1); err == nil {
		t.Fatal("expected error for totalParams < n")
	}
	if _, err := Synthetic(Shape(99), 10, 100, 1); err == nil {
		t.Fatal("expected error for unknown shape")
	}
}

func TestSyntheticDeterministic(t *testing.T) {
	a, _ := Synthetic(Uniform, 20, 1_000_000, 7)
	b, _ := Synthetic(Uniform, 20, 1_000_000, 7)
	for i := range a.Grads {
		if a.Grads[i].Elems != b.Grads[i].Elems {
			t.Fatal("nondeterministic")
		}
	}
}

// Property: synthetic models always validate against the model package's
// invariants and conserve the requested parameter total within rounding.
func TestPropertySyntheticWellFormed(t *testing.T) {
	f := func(shapeRaw, nRaw uint8, seed uint64) bool {
		shape := Shape(shapeRaw % 4)
		n := int(nRaw%60) + 1
		total := int64(n) * 10_000
		m, err := Synthetic(shape, n, total, seed)
		if err != nil {
			return false
		}
		if m.TotalParams() < total {
			return false
		}
		var _ = model.BytesPerParam
		return m.NumGradients() == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
