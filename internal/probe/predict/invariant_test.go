package predict_test

// Prediction invariant: on the deterministic simulator with a constant
// bandwidth trace, the cost model IS the wire model, so predicted and
// observed windows must agree within 1e-6 relative tolerance for every
// registry strategy on every transport — PS (single- and multi-shard),
// ring, and tree. Any disagreement means either the cost model or the
// planned-window plumbing has drifted from the wire arithmetic.

import (
	"testing"

	"prophet/internal/cluster"
	"prophet/internal/core"
	"prophet/internal/model"
	"prophet/internal/netsim"
	"prophet/internal/probe/predict"
	"prophet/internal/strategy"
)

const invariantTol = 1e-6

func testProfile(t *testing.T, m *model.Model) *core.Profile {
	t.Helper()
	n := len(m.Grads)
	sizes := make([]float64, n)
	gen := make([]float64, n)
	for i := range sizes {
		sizes[i] = m.Grads[i].Bytes()
		gen[i] = float64(n-i) * 1e-3 // descending backward emission
	}
	prof, err := core.NewProfile(gen, sizes, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	return prof
}

// audit runs name on the given transport of the one simulated executor
// (shards is the PS shard count; collectives take 1) and audits the run.
func audit(t *testing.T, name, transport string, shards int) *predict.Report {
	t.Helper()
	m := model.WithWireFactor(model.ResNet18(), 2)
	factory, err := cluster.ByNameTransport(name, transport, 3, m, cluster.Options{Seed: 3, Profile: testProfile(t, m)})
	if err != nil {
		t.Fatal(err)
	}
	aud := predict.NewAuditor(predict.Options{})
	_, err = cluster.Run(cluster.Config{
		Model:     m,
		Batch:     32,
		Workers:   3,
		Transport: transport,
		PSShards:  shards,
		Uplink: func(int) netsim.LinkConfig {
			return netsim.DefaultLinkConfig(netsim.Const(netsim.Gbps(3)))
		},
		Scheduler:  factory,
		Iterations: 3,
		Jitter:     -1,
		Seed:       3,
		Observer:   aud,
	})
	if err != nil {
		t.Fatal(err)
	}
	aud.Flush()
	return aud.Report()
}

func assertTight(t *testing.T, label string, rep *predict.Report) {
	t.Helper()
	if rep.Joined == 0 {
		t.Fatalf("%s: no planned windows joined against observed spans", label)
	}
	if rep.Joined != rep.Planned {
		t.Errorf("%s: %d planned windows but only %d joined — join key mismatch",
			label, rep.Planned, rep.Joined)
	}
	if rel := rep.MaxRelErr(); rel > invariantTol {
		t.Errorf("%s: max relative window error %g exceeds %g", label, rel, invariantTol)
	}
	if len(rep.Alarms) != 0 {
		t.Errorf("%s: %d drift alarms on an exact-prediction run", label, len(rep.Alarms))
	}
}

func TestPredictionInvariantEveryStrategyEveryTransport(t *testing.T) {
	for _, name := range strategy.Names() {
		for _, transport := range []string{"ps", "ring", "tree"} {
			label := transport + "/" + name
			t.Run(label, func(t *testing.T) {
				t.Parallel()
				assertTight(t, label, audit(t, name, transport, 1))
			})
		}
	}
}

// TestPredictionInvariantMultiShard pins the per-lane planFree chaining:
// with 2 PS shards, predicted starts chain independently per lane and must
// still match the wire exactly.
func TestPredictionInvariantMultiShard(t *testing.T) {
	for _, name := range []string{"fifo", "prophet"} {
		assertTight(t, "ps2/"+name, audit(t, name, "ps", 2))
	}
}
