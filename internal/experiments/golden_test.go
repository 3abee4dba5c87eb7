package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden fixtures under testdata/")

// g formats a float with the shortest representation that round-trips the
// exact bits, so any numeric drift — however small — changes the fixture.
func g(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing fixture (run with -update to create): %v", err)
	}
	if string(want) == got {
		return
	}
	wantLines := strings.Split(string(want), "\n")
	gotLines := strings.Split(got, "\n")
	for i := 0; i < len(wantLines) || i < len(gotLines); i++ {
		var w, gl string
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if i < len(gotLines) {
			gl = gotLines[i]
		}
		if w != gl {
			t.Fatalf("%s line %d diverged:\n  fixture: %s\n  got:     %s\n(rerun with -update if the change is intended)", name, i+1, w, gl)
		}
	}
}

// TestFig5Golden pins the Sec. 2.3 analytical example: the toy profile is
// fixed, so the per-strategy gradient-0 start and finish times must
// reproduce bit-for-bit on every run.
func TestFig5Golden(t *testing.T) {
	res, err := run[*Fig5Result]("fig5", Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString("fig5: strategy grad0_start_s finish_s\n")
	for i, s := range res.Strategies {
		fmt.Fprintf(&b, "%s %s %s\n", s, g(res.Grad0Start[i]), g(res.Finish[i]))
	}
	checkGolden(t, "fig5.golden", b.String())
}

// TestTable3Golden pins the batch-size sweep end to end: profiler,
// block assembly, and the event-driven cluster sim all feed these rates, so
// a bit-exact match here certifies the whole sim path is deterministic for
// a fixed seed.
func TestTable3Golden(t *testing.T) {
	res, err := run[*Table3Result]("table3", Config{Iterations: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString("table3: model batch prophet_rate bs_rate\n")
	for _, row := range res.Rows {
		fmt.Fprintf(&b, "%s %d %s %s\n", row.Model, row.Batch, g(row.Prophet), g(row.BS))
	}
	checkGolden(t, "table3.golden", b.String())
}
