package main

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// The binary exists to compare transports, so every transport's report has
// the same lines computed the same way (one print block after one
// cluster.Run); a collective adds only its operation count. The ring path
// used to print whole-run GPU utilization and no uplink payload line.
func TestEveryTransportPrintsTheSameLines(t *testing.T) {
	labels := func(transport string) []string {
		var out bytes.Buffer
		err := run([]string{"-model", "resnet18", "-batch", "32", "-iters", "4",
			"-policy", "fifo", "-transport", transport}, &out)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, line := range strings.Split(out.String(), "\n") {
			if label, _, ok := strings.Cut(line, ":"); ok && strings.HasPrefix(line, "  ") {
				got = append(got, strings.TrimSpace(label))
			}
		}
		return got
	}
	ps := labels("ps")
	want := []string{"training rate", "GPU utilization", "uplink payload", "simulated time"}
	if !reflect.DeepEqual(ps, want) {
		t.Fatalf("ps prints %q, want %q", ps, want)
	}
	for _, transport := range []string{"ring", "tree"} {
		var rest []string
		for _, l := range labels(transport) {
			if l != "collective ops" {
				rest = append(rest, l)
			}
		}
		if !reflect.DeepEqual(rest, ps) {
			t.Errorf("%s prints %q besides its collective ops, ps prints %q", transport, rest, ps)
		}
	}
}
