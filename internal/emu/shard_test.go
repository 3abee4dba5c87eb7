package emu

import (
	"testing"

	"prophet/internal/probe"
	"prophet/internal/shard"
	"prophet/internal/strategy"
)

// TestShardedTrajectoryMatchesSinglePS is the live-path tentpole check:
// sharding the parameter server must change only the timing of tensor
// movement, never the math. Every policy at 2 shards, under each placement,
// on unshaped and on shaped links (which Prophet's plan reads), must
// reproduce the unshaped single-PS trajectory bit for bit (deterministic
// aggregation on each shard, disjoint key sets across shards).
func TestShardedTrajectoryMatchesSinglePS(t *testing.T) {
	base, err := Run(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range strategy.Names() {
		for _, placement := range []shard.Placement{shard.RoundRobin, shard.SizeBalanced} {
			for _, rate := range []float64{0, 4 << 20} {
				cfg := baseConfig()
				cfg.Policy = p
				cfg.Shards = 2
				cfg.ShardPlacement = placement
				cfg.BandwidthBytesPerSec = rate
				res, err := Run(cfg)
				if err != nil {
					t.Fatalf("%s/%s/%g B/s: %v", p, placement, rate, err)
				}
				if len(res.Losses) != cfg.Iterations {
					t.Fatalf("%s/%s/%g B/s: got %d losses, want %d", p, placement, rate, len(res.Losses), cfg.Iterations)
				}
				if len(res.FinalParams) != len(base.FinalParams) {
					t.Fatalf("%s/%s/%g B/s: param length mismatch", p, placement, rate)
				}
				for j := range base.FinalParams {
					if res.FinalParams[j] != base.FinalParams[j] {
						t.Fatalf("%s/%s/%g B/s: sharded run diverged at param %d: %v vs %v",
							p, placement, rate, j, res.FinalParams[j], base.FinalParams[j])
					}
				}
			}
		}
	}
}

// TestShardedDeterministicPerSeed runs the same sharded config twice and
// demands identical trajectories.
func TestShardedDeterministicPerSeed(t *testing.T) {
	run := func() *Result {
		cfg := baseConfig()
		cfg.Policy = "prophet"
		cfg.Shards = 2
		cfg.ShardPlacement = shard.SizeBalanced
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	for j := range a.FinalParams {
		if a.FinalParams[j] != b.FinalParams[j] {
			t.Fatalf("param %d differs across identical runs: %v vs %v", j, a.FinalParams[j], b.FinalParams[j])
		}
	}
	for j := range a.Losses {
		if a.Losses[j] != b.Losses[j] {
			t.Fatalf("loss %d differs across identical runs", j)
		}
	}
}

func TestShardedPushOrderStillCoversAllTensors(t *testing.T) {
	cfg := baseConfig()
	cfg.Policy = "prophet"
	cfg.Shards = 2
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]int)
	for _, idx := range res.PushOrder {
		seen[idx]++
	}
	nTensors := 2 * (len(cfg.Layers) - 1) // weight + bias per layer
	if len(seen) != nTensors {
		t.Fatalf("push order covers %d tensors, want %d (%v)", len(seen), nTensors, res.PushOrder)
	}
	for idx, n := range seen {
		if n != 1 {
			t.Fatalf("tensor %d pushed %d times", idx, n)
		}
	}
}

func TestNegativeShardsRejected(t *testing.T) {
	cfg := baseConfig()
	cfg.Shards = -1
	if _, err := Run(cfg); err == nil {
		t.Fatal("expected error for negative shard count")
	}
}

// TestShardLanesOverlapOnPrivatePipes pins what Config.Shards documents —
// aggregate PS bandwidth scales with the shard count — as a span-order
// property: on private pipes, one worker's sends on different shard lanes
// are on the wire at the same time. That is what psEngine's per-shard writer
// goroutines deliver; dispatching inline (as shared pipes do, where the one
// pipe serializes writes anyway) would return from send k before offering
// send k+1, and no two spans of a worker could ever overlap — which is what
// the Mux half asserts.
//
// A send is on the wire while the token bucket holds it: a buffered pipe
// takes unshaped bytes at once, so only shaping keeps a send open long enough
// to overlap another. The model is sized for that — each shard lane carries
// more than a limiter's burst per iteration, so after the first iteration
// every push on either lane waits for its tokens.
func TestShardLanesOverlapOnPrivatePipes(t *testing.T) {
	const burst = 64 << 10 // transport.Pipe's limiter burst
	cfg := baseConfig()
	cfg.Layers = []int{8, 96, 96, 96, 4} // two equal 72 KiB weights, one per lane
	cfg.Policy = "prophet"
	cfg.Shards = 2
	cfg.ShardPlacement = shard.SizeBalanced
	cfg.BandwidthBytesPerSec = 16e6
	smap, err := shard.New(tensorSizes(cfg.Layers, cfg.Seed), cfg.Shards, cfg.ShardPlacement)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < cfg.Shards; s++ {
		if load := smap.Load(s); load <= burst {
			t.Fatalf("shard %d carries %.0f B per iteration, within the %d B burst: the limiter would never hold its sends", s, load, burst)
		}
	}
	overlaps := func(mux bool) int {
		cfg := cfg
		cfg.Mux = mux
		rec := probe.NewSpanRecorder()
		cfg.Observer = rec
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		spans := rec.Spans()
		n := 0
		for i, a := range spans {
			for _, b := range spans[i+1:] {
				if a.Worker == b.Worker && a.Lane != b.Lane && a.Start < b.End && b.Start < a.End {
					n++
				}
			}
		}
		return n
	}
	if n := overlaps(false); n == 0 {
		t.Error("private pipes: no two sends of one worker overlapped across shard lanes — the shards moved no bytes in parallel")
	}
	if n := overlaps(true); n != 0 {
		t.Errorf("shared pipes: %d cross-lane overlaps, but inline dispatch finishes each send before the next", n)
	}
}
