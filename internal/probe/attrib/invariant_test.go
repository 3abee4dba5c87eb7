package attrib_test

// Cross-transport attribution invariant: the five components —
// generation, priority-wait, bandwidth-wait, transmit, ack — must sum to
// completion within 1e-9 for every gradient on BOTH transports: the PS
// push/pull wire and the collective wires of the one simulated executor
// (cluster.Run), where one send span brackets a whole chunked ring/tree
// operation.

import (
	"testing"

	"prophet/internal/cluster"
	"prophet/internal/model"
	"prophet/internal/netsim"
	"prophet/internal/probe"
	"prophet/internal/probe/attrib"
)

// analyze runs name on the given transport of the one simulated executor
// and attributes the run.
func analyze(t *testing.T, name, transport string) *attrib.Report {
	t.Helper()
	m := model.WithWireFactor(model.ResNet18(), 2)
	factory, err := cluster.ByNameTransport(name, transport, 3, m, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec := probe.NewSpanRecorder()
	_, err = cluster.Run(cluster.Config{
		Model:     m,
		Batch:     32,
		Workers:   3,
		Transport: transport,
		Uplink: func(int) netsim.LinkConfig {
			return netsim.DefaultLinkConfig(netsim.Const(netsim.Gbps(3)))
		},
		Scheduler:  factory,
		Iterations: 5,
		Seed:       3,
		Observer:   rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	return attrib.Analyze(rec, 3)
}

func assertInvariant(t *testing.T, label string, rep *attrib.Report) {
	t.Helper()
	if len(rep.PerGrad) == 0 {
		t.Fatalf("%s: no gradients attributed", label)
	}
	if res := rep.MaxResidual(); res > 1e-9 {
		t.Errorf("%s: attribution residual %g exceeds 1e-9", label, res)
	}
	for _, c := range rep.PerGrad {
		if c.Generation < 0 || c.PriorityWait < -1e-9 || c.BandwidthWait < 0 || c.Transmit < 0 || c.Ack < -1e-9 {
			t.Fatalf("%s: negative component for grad %d iter %d: %+v", label, c.Grad, c.Iter, c)
		}
	}
}

func TestAttributionInvariantBothPaths(t *testing.T) {
	for _, name := range []string{"fifo", "p3"} {
		for _, transport := range []string{"ps", "ring", "tree"} {
			assertInvariant(t, transport+"/"+name, analyze(t, name, transport))
		}
	}
}

// TestCollectiveAckIsInstant pins the ring path's ack semantics: the
// reduced value is available the moment the collective completes, so the
// Ack component is exactly zero (unlike the PS path, which pays a pull).
func TestCollectiveAckIsInstant(t *testing.T) {
	rep := analyze(t, "fifo", "ring")
	for _, c := range rep.PerGrad {
		if c.Ack != 0 {
			t.Fatalf("ring grad %d iter %d: ack %g, want 0", c.Grad, c.Iter, c.Ack)
		}
	}
}
