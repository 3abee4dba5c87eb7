package experiments

import (
	"math"
	"testing"

	"prophet/internal/strategy"
)

func TestExtAttribDecomposes(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	r, err := run[*ExtAttribResult]("ext-attrib", testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != len(strategy.Names()) {
		t.Fatalf("%d rows, want one per registry strategy (%d)", len(r.Rows), len(strategy.Names()))
	}
	for _, row := range r.Rows {
		if row.Gradients == 0 {
			t.Errorf("%s: no gradients attributed", row.Strategy)
		}
		m := row.Mean
		if m.Completion <= 0 {
			t.Errorf("%s: non-positive mean completion %v", row.Strategy, m.Completion)
		}
		// Additivity survives averaging: the mean of sums is the sum of means.
		if diff := math.Abs(m.Sum() - m.Completion); diff > 1e-9 {
			t.Errorf("%s: mean components sum off by %g", row.Strategy, diff)
		}
	}
}
