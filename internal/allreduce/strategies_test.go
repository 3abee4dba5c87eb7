package allreduce_test

// End-to-end coverage of the tentpole claim: every registry strategy
// schedules collective chunks through the shared drive layer, on both
// collective backends, using the same fetch gate, offsets, and probe
// stream as the PS path.

import (
	"math"
	"testing"

	"prophet/internal/allreduce"
	"prophet/internal/cluster"
	"prophet/internal/model"
	"prophet/internal/netsim"
	"prophet/internal/probe"
	"prophet/internal/profiler"
	"prophet/internal/stepwise"
	"prophet/internal/strategy"
)

const testWorkers = 3

func ringSetup(t *testing.T) (*model.Model, stepwise.Buckets, *profiler.Result) {
	t.Helper()
	m := model.WithWireFactor(model.ResNet18(), 2)
	agg := stepwise.DefaultAggregate(m)
	prof, err := profiler.Run(profiler.Config{
		Model: m, Hardware: model.M60Like(), Batch: 32, Agg: agg, Seed: 97,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m, agg, prof
}

func TestEveryStrategyOnEveryCollectiveBackend(t *testing.T) {
	m, agg, prof := ringSetup(t)
	for _, transport := range []string{"ring", "tree"} {
		for _, name := range strategy.Names() {
			t.Run(transport+"/"+name, func(t *testing.T) {
				factory, err := cluster.ByNameTransport(name, transport, testWorkers, m,
					cluster.Options{Profile: prof.Profile(), Seed: 5})
				if err != nil {
					t.Fatal(err)
				}
				rec := probe.NewSpanRecorder()
				res, err := allreduce.Run(allreduce.Config{
					Model:          m,
					Batch:          32,
					Workers:        testWorkers,
					Agg:            agg,
					Link:           netsim.DefaultLinkConfig(netsim.Const(netsim.Gbps(3))),
					Backend:        transport,
					Scheduler:      factory,
					Iterations:     5,
					Seed:           5,
					Observer:       rec,
					RecordMessages: true,
				})
				if err != nil {
					t.Fatal(err)
				}
				if res.Iters.Count() != 5 || res.Rate(1) <= 0 {
					t.Fatalf("incomplete run: %d iterations, rate %v", res.Iters.Count(), res.Rate(1))
				}
				if res.SchedulerName == "" {
					t.Fatal("result metadata: empty scheduler name")
				}
				if res.Reductions <= 0 || len(res.Messages) != res.Reductions {
					t.Fatalf("decision log: %d records for %d reductions", len(res.Messages), res.Reductions)
				}
				// The probe stream reconstructs the run's iteration log.
				if iters := rec.Iterations(0); iters == nil || iters.Count() != res.Iters.Count() {
					t.Fatalf("recorder iterations = %v, want %d", iters, res.Iters.Count())
				}
			})
		}
	}
}

// TestRingTreeDecisionMirror is the cross-transport mirror: at W=3 the
// ring (2(W−1)=4 steps of s/W) and the tree (2⌈log₂3⌉=4 geometric steps)
// have the same step count and the same total wire volume, so every
// registry strategy must emit the bit-identical decision Record sequence
// on both backends — the transport changes the chunk partition, not the
// schedule.
func TestRingTreeDecisionMirror(t *testing.T) {
	m, agg, prof := ringSetup(t)
	for _, name := range strategy.Names() {
		runOn := func(transport string) *allreduce.Result {
			factory, err := cluster.ByNameTransport(name, transport, testWorkers, m,
				cluster.Options{Profile: prof.Profile(), Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			res, err := allreduce.Run(allreduce.Config{
				Model: m, Batch: 32, Workers: testWorkers, Agg: agg,
				Link:    netsim.DefaultLinkConfig(netsim.Const(netsim.Gbps(3))),
				Backend: transport, Scheduler: factory, Iterations: 5, Seed: 5,
				RecordMessages: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		ring, tree := runOn("ring"), runOn("tree")
		if len(ring.Messages) != len(tree.Messages) {
			t.Fatalf("%s: ring %d decisions, tree %d", name, len(ring.Messages), len(tree.Messages))
		}
		for i := range ring.Messages {
			if ring.Messages[i].Iter != tree.Messages[i].Iter ||
				ring.Messages[i].Label != tree.Messages[i].Label ||
				ring.Messages[i].Prio != tree.Messages[i].Prio {
				t.Fatalf("%s: decision %d diverges across transports: ring %+v, tree %+v",
					name, i, ring.Messages[i], tree.Messages[i])
			}
		}
	}
}

// TestCollectiveDecisionsDeterministic pins determinism per (strategy,
// backend) pair: two identical runs produce the identical decision Record
// sequence and duration — the property the golden fixtures and the
// cross-path mirror suite build on.
func TestCollectiveDecisionsDeterministic(t *testing.T) {
	m, agg, _ := ringSetup(t)
	for _, transport := range []string{"ring", "tree"} {
		factory, err := cluster.ByNameTransport("p3", transport, testWorkers, m, cluster.Options{})
		if err != nil {
			t.Fatal(err)
		}
		run := func() *allreduce.Result {
			res, err := allreduce.Run(allreduce.Config{
				Model: m, Batch: 32, Workers: testWorkers, Agg: agg,
				Link:    netsim.DefaultLinkConfig(netsim.Const(netsim.Gbps(3))),
				Backend: transport, Scheduler: factory, Iterations: 4, Seed: 9,
				RecordMessages: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		a, b := run(), run()
		if len(a.Messages) != len(b.Messages) {
			t.Fatalf("%s: nondeterministic decision count: %d vs %d", transport, len(a.Messages), len(b.Messages))
		}
		for i := range a.Messages {
			if a.Messages[i].Iter != b.Messages[i].Iter ||
				a.Messages[i].Label != b.Messages[i].Label ||
				a.Messages[i].Prio != b.Messages[i].Prio {
				t.Fatalf("%s: decision %d differs: %+v vs %+v", transport, i, a.Messages[i], b.Messages[i])
			}
		}
		if math.Abs(a.Duration-b.Duration) != 0 {
			t.Fatalf("%s: nondeterministic duration", transport)
		}
	}
}
