// Package stepwise implements both sides of the paper's central empirical
// observation (Sec. 2.2): gradient transfer start times follow a *stepwise
// pattern* — gradients become ready for transfer in bursts ("blocks")
// rather than one by one.
//
// The producing side models the root cause the paper identifies: the
// framework's key-value layer aggregates a set of gradients before each
// push (GroupKVPairsPush in MXNet), so a whole group is released at the
// moment its last member finishes backward computation. The detecting side
// segments profiled generation times into blocks and derives the expected
// transfer intervals A(i) that Algorithm 1 consumes.
package stepwise

import (
	"fmt"
	"math"

	"prophet/internal/model"
)

// Inf marks an unbounded transfer interval (no higher-priority gradient is
// generated later, so the transfer window is open-ended).
const Inf = math.MaxFloat64

// Buckets describes which gradients the framework's aggregation layer
// releases together. Groups are ordered by release (backward generation
// order: the group containing the highest indices first); each group lists
// gradient indices in ascending order.
type Buckets struct {
	Groups [][]int
}

// Aggregate groups a model's gradients the way a framework KV layer does:
// walking in backward generation order (highest index first), gradients
// accumulate into a group until adding one would exceed maxBytes, or the
// group reaches maxCount members. A single gradient larger than maxBytes
// forms its own group. maxCount <= 0 means unlimited.
func Aggregate(m *model.Model, maxBytes float64, maxCount int) Buckets {
	if maxBytes <= 0 {
		panic("stepwise: Aggregate with non-positive maxBytes")
	}
	var groups [][]int
	var cur []int
	var curBytes float64
	flush := func() {
		if len(cur) == 0 {
			return
		}
		// Store ascending for readability.
		rev := make([]int, len(cur))
		for i, g := range cur {
			rev[len(cur)-1-i] = g
		}
		groups = append(groups, rev)
		cur = nil
		curBytes = 0
	}
	for i := m.NumGradients() - 1; i >= 0; i-- {
		b := m.Grads[i].Bytes()
		if len(cur) > 0 && (curBytes+b > maxBytes || (maxCount > 0 && len(cur) >= maxCount)) {
			flush()
		}
		cur = append(cur, i)
		curBytes += b
	}
	flush()
	return Buckets{Groups: groups}
}

// DefaultAggregate is the bucketing every job uses unless it is studying
// the bucketing itself, calibrated to the paper's Fig. 4: ResNet50's
// gradients arrive in ~13 stepwise blocks, i.e. the KV layer groups roughly
// 1/13 of the model per push — floored at 4 MB, so a small model still
// releases its gradients in bursts rather than one by one.
func DefaultAggregate(m *model.Model) Buckets {
	return Aggregate(m, math.Max(m.TotalBytes()/13, 4e6), 0)
}

// NumGroups returns the number of aggregation groups.
func (bk Buckets) NumGroups() int { return len(bk.Groups) }

// GroupOf returns the group index containing gradient g, or -1.
func (bk Buckets) GroupOf(g int) int {
	for gi, grp := range bk.Groups {
		for _, idx := range grp {
			if idx == g {
				return gi
			}
		}
	}
	return -1
}

// ReleaseTimes converts per-gradient raw backward-completion times into
// *released* generation times c(i): every member of a group becomes visible
// to the communication layer when the group's last-computed member (its
// lowest index) finishes. rawDone[i] is when gradient i's backward segment
// completed; the result has the same length.
func (bk Buckets) ReleaseTimes(rawDone []float64) []float64 {
	c := make([]float64, len(rawDone))
	copy(c, rawDone)
	for _, grp := range bk.Groups {
		var release float64
		for _, g := range grp {
			if g < 0 || g >= len(rawDone) {
				panic(fmt.Sprintf("stepwise: gradient %d out of range", g))
			}
			if rawDone[g] > release {
				release = rawDone[g]
			}
		}
		for _, g := range grp {
			c[g] = release
		}
	}
	return c
}

// Block is a detected run of gradients released (nearly) together.
type Block struct {
	// Lo and Hi bound the gradient index range [Lo, Hi] (inclusive).
	Lo, Hi int
	// Release is the block's generation time (max of member times).
	Release float64
}

// Size returns the number of gradients in the block.
func (b Block) Size() int { return b.Hi - b.Lo + 1 }

// DetectBlocks segments generation times c (indexed by gradient) into
// stepwise blocks. Walking in generation order (index high → low), a new
// block starts whenever the generation time advances by more than gap.
// Blocks are returned in generation order (highest indices first), matching
// how they appear on a timeline plot like the paper's Fig. 4.
func DetectBlocks(c []float64, gap float64) []Block {
	if len(c) == 0 {
		return nil
	}
	if gap < 0 {
		panic("stepwise: negative gap")
	}
	var blocks []Block
	hi := len(c) - 1
	release := c[hi]
	for i := len(c) - 2; i >= 0; i-- {
		if c[i]-release > gap {
			blocks = append(blocks, Block{Lo: i + 1, Hi: hi, Release: release})
			hi = i
			release = c[i]
		} else if c[i] > release {
			release = c[i]
		}
	}
	blocks = append(blocks, Block{Lo: 0, Hi: hi, Release: release})
	return blocks
}

// Intervals computes the expected transfer interval A(i) of Algorithm 1
// line 1: the time from gradient i's generation until the earliest *later*
// generation among higher-priority gradients (j < i). Within a noisy block,
// sub-eps gaps are ignored so intra-block jitter does not collapse the
// window. A(i) is Inf when no higher-priority gradient is generated later
// (in particular A(0) = Inf: nothing outranks gradient 0).
func Intervals(c []float64, eps float64) []float64 {
	n := len(c)
	a := make([]float64, n)
	for i := 0; i < n; i++ {
		a[i] = Inf
	}
	// minLater[i] = min c(j) over j < i with c(j) > c(i)+eps. Computing
	// directly is O(n²) worst case; n is a few hundred, and profiling runs
	// once per job, so clarity wins over a segment tree.
	for i := 1; i < n; i++ {
		for j := 0; j < i; j++ {
			if c[j] > c[i]+eps && c[j]-c[i] < a[i] {
				a[i] = c[j] - c[i]
			}
		}
	}
	return a
}

// BlockIntervals computes A(i) from detected blocks: for every gradient in
// a block, the window is the gap from the block's release to the next
// block's release (toward gradient 0). Gradients in the final block get Inf.
// blocks must be in generation order, as returned by DetectBlocks.
func BlockIntervals(blocks []Block, n int) []float64 {
	a := make([]float64, n)
	for i := range a {
		a[i] = Inf
	}
	for bi := 0; bi < len(blocks)-1; bi++ {
		window := blocks[bi+1].Release - blocks[bi].Release
		for g := blocks[bi].Lo; g <= blocks[bi].Hi; g++ {
			if g >= 0 && g < n {
				a[g] = window
			}
		}
	}
	return a
}
