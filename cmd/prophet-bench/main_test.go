package main

import (
	"bytes"
	"os"
	"regexp"
	"strings"
	"testing"

	"prophet/internal/experiments"
)

// The command's own clock readings: the "[id, 0.3s wall]" stamp under each
// experiment, and the closing summary line's total wall time and -j count
// (the rest of that line must still match).
var (
	wallStamp   = regexp.MustCompile(`(?m)^  \[(\S+), [0-9.]+s wall\]$`)
	summaryLine = regexp.MustCompile(`(?m)^(\d+ experiments in )[0-9.]+(s wall \(-j )\d+\)$`)
)

// maskClocks blanks everything in a prophet-bench transcript that is read
// from a real clock: the command's own stamps, then the live-emulation
// columns the experiments package names. What remains is simulated and must
// reproduce to the byte.
func maskClocks(b []byte) []byte {
	b = summaryLine.ReplaceAll(b, []byte("${1}X${2}X)"))
	b = wallStamp.ReplaceAll(b, []byte("  [$1, X wall]"))
	for _, re := range experiments.LiveClock {
		b = re.ReplaceAll(b, []byte("X"))
	}
	return b
}

// TestBenchResultsCurrent is the full-evaluation golden: a default-flag run
// of every experiment equals the committed bench_results.txt outside the
// clock masks. It pins every render at full size, so a change that moves a
// number has to refresh the record (`make bench-results`) in the same
// commit and show the diff. internal/experiments' TestSerialParallelIdentical
// checks that the -j value never shows in a render.
func TestBenchResultsCurrent(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full evaluation")
	}
	want, err := os.ReadFile("../../bench_results.txt")
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if err := run(nil, &stdout, &stderr); err != nil {
		t.Fatalf("prophet-bench: %v\n%s", err, stderr.Bytes())
	}
	got, want := maskClocks(stdout.Bytes()), maskClocks(want)
	if bytes.Equal(got, want) {
		return
	}
	gotLines, wantLines := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("bench_results.txt line %d is stale:\n  committed: %s\n  this run:  %s\n(`make bench-results` rewrites it; commit the diff with the change that caused it)", i+1, w, g)
		}
	}
}

// TestBadInvocationsAreErrors: a value the command would silently default
// is rejected with an error naming the flag, before any experiment runs.
func TestBadInvocationsAreErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		// experiments.Config reads 0 iterations as its default of 12.
		{[]string{"-iters", "0", "-only", "fig12"}, "-iters 0"},
		{[]string{"-iters", "-3", "-only", "fig12"}, "-iters -3"},
		// experiments.Config reads fewer than one job as serial.
		{[]string{"-j", "0", "-only", "fig12"}, "-j 0"},
		{[]string{"-only", "fig99"}, `unknown id "fig99"`},
	} {
		var stdout, stderr bytes.Buffer
		err := run(tc.args, &stdout, &stderr)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run %v: error %v, want one containing %q", tc.args, err, tc.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("run %v printed before failing:\n%s", tc.args, stdout.Bytes())
		}
	}
}
