// Package shard provides the deterministic key→shard map both execution
// paths use to partition gradient tensors across multiple parameter-server
// instances. The paper's testbed runs a single PS, and DESIGN.md §2 notes
// that the shared PS link is exactly what Prophet schedules around;
// Parameter-Box- and BytePS-style deployments scale ingest bandwidth by
// range-sharding keys across several PS nodes. A shard map is computed
// once, from the gradient sizes alone, so every worker and every server
// derives the identical assignment with no coordination.
package shard

import (
	"fmt"
	"sort"
)

// Placement names a shard placement strategy.
type Placement string

// Supported placements.
const (
	// RoundRobin assigns key k to shard k mod N — the MXNet KVStore
	// default, oblivious to tensor sizes.
	RoundRobin Placement = "round-robin"
	// SizeBalanced greedily assigns keys, largest tensor first, to the
	// least-loaded shard (longest-processing-time scheduling), so shard
	// links carry near-equal byte loads even for skewed size
	// distributions such as VGG's fc giants.
	SizeBalanced Placement = "size-balanced"
)

// Map is an immutable assignment of keys (gradient/tensor indices) to
// shards. The zero value is invalid; build one with New.
type Map struct {
	shards int
	of     []int
	load   []float64
}

// New builds the shard map for the given per-key byte sizes. A shards
// count of 0 or 1 yields the trivial single-shard map; an empty placement
// defaults to RoundRobin.
func New(sizes []float64, shards int, placement Placement) (*Map, error) {
	if shards <= 0 {
		shards = 1
	}
	if len(sizes) == 0 {
		return nil, fmt.Errorf("shard: no keys to place")
	}
	if placement == "" {
		placement = RoundRobin
	}
	m := &Map{
		shards: shards,
		of:     make([]int, len(sizes)),
		load:   make([]float64, shards),
	}
	switch placement {
	case RoundRobin:
		for k := range sizes {
			m.of[k] = k % shards
		}
	case SizeBalanced:
		// LPT greedy: keys by descending size, ties broken by ascending
		// key; each goes to the least-loaded shard, ties broken by the
		// lowest shard id. Both tie-breaks keep the map deterministic.
		order := make([]int, len(sizes))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool {
			if sizes[order[a]] != sizes[order[b]] {
				return sizes[order[a]] > sizes[order[b]]
			}
			return order[a] < order[b]
		})
		for _, k := range order {
			best := 0
			for s := 1; s < shards; s++ {
				if m.load[s] < m.load[best] {
					best = s
				}
			}
			m.of[k] = best
			m.load[best] += sizes[k]
		}
	default:
		return nil, fmt.Errorf("shard: unknown placement %q", placement)
	}
	if placement == RoundRobin {
		for k, s := range m.of {
			m.load[s] += sizes[k]
		}
	}
	return m, nil
}

// Shards returns the shard count.
func (m *Map) Shards() int { return m.shards }

// Of returns the shard owning key k.
func (m *Map) Of(k int) int {
	if k < 0 || k >= len(m.of) {
		panic(fmt.Sprintf("shard: key %d out of range [0,%d)", k, len(m.of)))
	}
	return m.of[k]
}

// Load returns the total bytes placed on shard s.
func (m *Map) Load(s int) float64 {
	if s < 0 || s >= m.shards {
		panic(fmt.Sprintf("shard: shard %d out of range [0,%d)", s, m.shards))
	}
	return m.load[s]
}

// Imbalance returns max shard load divided by mean shard load (1.0 is a
// perfect balance). Shards with no keys still count toward the mean.
func (m *Map) Imbalance() float64 {
	var max, sum float64
	for _, l := range m.load {
		sum += l
		if l > max {
			max = l
		}
	}
	if sum == 0 {
		return 1
	}
	return max / (sum / float64(m.shards))
}

// Keys returns the keys owned by shard s, ascending.
func (m *Map) Keys(s int) []int {
	var out []int
	for k, sh := range m.of {
		if sh == s {
			out = append(out, k)
		}
	}
	return out
}
