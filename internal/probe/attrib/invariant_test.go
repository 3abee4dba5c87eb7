package attrib_test

// Cross-transport attribution invariant: the five components —
// generation, priority-wait, bandwidth-wait, transmit, ack — must sum to
// completion within 1e-9 for every gradient on BOTH transports: the PS
// push/pull wire and the collective wires of the one simulated executor
// (cluster.Run), where one send span brackets a whole chunked ring/tree
// operation. The invariant also pins what Fig. 11 reads: worker 0's mean
// wait and transmit are the plain means of its recorded gradient rows.

import (
	"math"
	"testing"

	"prophet/internal/cluster"
	"prophet/internal/model"
	"prophet/internal/netsim"
	"prophet/internal/probe"
	"prophet/internal/probe/attrib"
)

// analyze runs name on the given transport of the one simulated executor
// and attributes the run.
func analyze(t *testing.T, name, transport string) (*attrib.Report, *probe.SpanRecorder) {
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
	return attrib.Analyze(rec, 3), rec
}

func assertInvariant(t *testing.T, label string, rep *attrib.Report, rec *probe.SpanRecorder) {
	t.Helper()
	if len(rep.PerGrad) == 0 || rep.Skipped != 0 {
		t.Fatalf("%s: %d gradients attributed, %d skipped", label, len(rep.PerGrad), rep.Skipped)
	}
	var wait, transmit, n float64
	for _, g := range rec.Grads() {
		if g.Worker == 0 {
			wait += g.Start - g.Generated
			transmit += g.End - g.Start
			n++
		}
	}
	m := rep.Mean(0, 0)
	for _, c := range [][2]float64{{m.Wait(), wait / n}, {m.Transmit, transmit / n}} {
		if math.Abs(c[0]-c[1]) > 1e-12*math.Abs(c[1]) {
			t.Errorf("%s: worker-0 mean %v, direct mean of its rows %v", label, c[0], c[1])
		}
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
			rep, rec := analyze(t, name, transport)
			assertInvariant(t, transport+"/"+name, rep, rec)
		}
	}
}

// TestCollectiveAckIsInstant pins the ring path's ack semantics: the
// reduced value is available the moment the collective completes, so the
// Ack component is exactly zero (unlike the PS path, which pays a pull).
func TestCollectiveAckIsInstant(t *testing.T) {
	rep, _ := analyze(t, "fifo", "ring")
	for _, c := range rep.PerGrad {
		if c.Ack != 0 {
			t.Fatalf("ring grad %d iter %d: ack %g, want 0", c.Grad, c.Iter, c.Ack)
		}
	}
}
