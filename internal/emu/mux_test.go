package emu

import (
	"reflect"
	"testing"

	"prophet/internal/core"
	"prophet/internal/shard"
	"prophet/internal/strategy"
)

// muxConformanceConfig pins everything that could make two runs diverge
// for reasons other than the transport: an explicit Prophet profile (no
// wall-clock profiling iteration) and an iteration count inside the credit
// auto-tuner's deterministic window (see mirror_test.go for the full
// derivation of both bounds).
func muxConformanceConfig(t *testing.T, policy string) Config {
	t.Helper()
	cfg := baseConfig()
	cfg.Workers = 3
	cfg.Shards = 2
	cfg.Iterations = 4
	cfg.Policy = policy
	sizes := tensorSizes(cfg.Layers, cfg.Seed)
	gen := make([]float64, len(sizes))
	for i := range gen {
		gen[i] = float64(len(sizes) - i)
	}
	prof, err := core.NewProfile(gen, sizes, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Profile = prof
	return cfg
}

// TestMuxConformance is the topology-equivalence table: every registry
// strategy under each key→shard placement, run once over a private pipe
// per worker×shard and once over one shared pipe per shard, must produce
// the bit-identical scheduler decision log, push order, and training
// trajectory. Sharing a pipe is a wire-level change below the decision
// layer; any divergence here means stream interleaving leaked into
// scheduling.
func TestMuxConformance(t *testing.T) {
	for _, name := range strategy.Names() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, placement := range []shard.Placement{shard.RoundRobin, shard.SizeBalanced} {
				cfg := muxConformanceConfig(t, name)
				cfg.ShardPlacement = placement
				base, err := Run(cfg)
				if err != nil {
					t.Fatalf("%s unmuxed: %v", placement, err)
				}
				cfg.Mux = true
				muxed, err := Run(cfg)
				if err != nil {
					t.Fatalf("%s muxed: %v", placement, err)
				}
				if !reflect.DeepEqual(base.Messages, muxed.Messages) {
					t.Fatalf("%s: decision logs diverged across transports:\nunmuxed: %v\nmuxed:   %v",
						placement, base.Messages, muxed.Messages)
				}
				if !reflect.DeepEqual(base.PushOrder, muxed.PushOrder) {
					t.Fatalf("%s: push order diverged: unmuxed %v, muxed %v", placement, base.PushOrder, muxed.PushOrder)
				}
				if !reflect.DeepEqual(base.FinalParams, muxed.FinalParams) {
					t.Fatalf("%s: final parameters diverged across transports", placement)
				}
				if !reflect.DeepEqual(base.Losses, muxed.Losses) {
					t.Fatalf("%s: loss curves diverged: unmuxed %v, muxed %v", placement, base.Losses, muxed.Losses)
				}
			}
		})
	}
}

// TestMuxManyWorkers smokes the scale path the shared pipe exists for: far
// more workers than would be sane with a pipe each, across shards, in a
// regular test run.
func TestMuxManyWorkers(t *testing.T) {
	workers := 200
	if testing.Short() {
		workers = 50
	}
	cfg := baseConfig()
	cfg.Workers = workers
	cfg.Shards = 4
	cfg.Iterations = 2
	cfg.Batch = 1
	cfg.Mux = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Losses) != cfg.Iterations {
		t.Fatalf("recorded %d losses, want %d", len(res.Losses), cfg.Iterations)
	}
}

// TestLiveTransportConformance is the full strategy × transport table: every
// registry strategy runs over per-worker PS pipes, the shared PS pipe, the
// live ring, and the live tree. Scheduling decisions replay
// before any byte moves and (with no bandwidth hint) contain no wire-model
// input, so the decision log and push order must be bit-identical across
// all four transports; the training trajectory must additionally match
// between the two PS topologies (same aggregation arithmetic). A collective
// sums a tensor's segments in its own fixed worker order, which is not the
// server's, so its trajectory is compared with itself instead: across every
// strategy on one backend, in TestAllPoliciesIdenticalTrajectory.
func TestLiveTransportConformance(t *testing.T) {
	cells := []struct {
		key       string
		transport string
		mux       bool
	}{
		{"ps", "ps", false},
		{"ps-mux", "ps", true},
		{"ring", "ring", false},
		{"tree", "tree", false},
	}
	for _, name := range strategy.Names() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			results := make(map[string]*Result, len(cells))
			for _, c := range cells {
				cfg := muxConformanceConfig(t, name)
				cfg.Workers = 4 // tree wants a power of two
				cfg.Transport = c.transport
				cfg.Mux = c.mux
				// One lane everywhere: a multi-tensor message splits into
				// per-shard sub-sends, which permutes the flattened push
				// order relative to the collective's single lane without
				// any decision diverging (TestMuxConformance covers the
				// sharded PS table).
				cfg.Shards = 1
				res, err := Run(cfg)
				if err != nil {
					t.Fatalf("%s: %v", c.key, err)
				}
				results[c.key] = res
			}
			ref := results["ps"]
			if len(ref.Messages) == 0 {
				t.Fatal("ps run recorded no decisions")
			}
			for _, c := range cells[1:] {
				res := results[c.key]
				if !reflect.DeepEqual(ref.Messages, res.Messages) {
					t.Fatalf("decision logs diverged: ps vs %s:\n%v\n%v", c.key, ref.Messages, res.Messages)
				}
				if !reflect.DeepEqual(ref.PushOrder, res.PushOrder) {
					t.Fatalf("push order diverged: ps %v, %s %v", ref.PushOrder, c.key, res.PushOrder)
				}
				if len(res.Losses) != len(ref.Losses) {
					t.Fatalf("%s recorded %d losses, want %d", c.key, len(res.Losses), len(ref.Losses))
				}
			}
			if !reflect.DeepEqual(ref.FinalParams, results["ps-mux"].FinalParams) {
				t.Fatal("final parameters diverged between PS topologies")
			}
			if !reflect.DeepEqual(ref.Losses, results["ps-mux"].Losses) {
				t.Fatal("loss curves diverged between PS topologies")
			}
		})
	}
}
