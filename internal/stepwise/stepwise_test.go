package stepwise

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"prophet/internal/model"
)

func TestAggregateCoversAllGradientsOnce(t *testing.T) {
	m := model.ResNet50()
	bk := Aggregate(m, 8e6, 0)
	seen := make([]bool, m.NumGradients())
	for _, grp := range bk.Groups {
		for _, g := range grp {
			if seen[g] {
				t.Fatalf("gradient %d in two groups", g)
			}
			seen[g] = true
		}
	}
	for g, ok := range seen {
		if !ok {
			t.Fatalf("gradient %d not in any group", g)
		}
	}
}

func TestAggregateGroupsAreContiguousDescending(t *testing.T) {
	m := model.ResNet50()
	bk := Aggregate(m, 8e6, 0)
	// First group must contain the highest index; groups walk toward 0.
	next := m.NumGradients() - 1
	for _, grp := range bk.Groups {
		for i := len(grp) - 1; i >= 0; i-- {
			if grp[i] != next {
				t.Fatalf("expected gradient %d, got %d", next, grp[i])
			}
			next--
		}
	}
	if next != -1 {
		t.Fatalf("groups ended at %d, want -1", next)
	}
}

func TestAggregateRespectsByteCap(t *testing.T) {
	m := model.ResNet50()
	cap := 4e6
	bk := Aggregate(m, cap, 0)
	for gi, grp := range bk.Groups {
		var bytes float64
		for _, g := range grp {
			bytes += m.Grads[g].Bytes()
		}
		if bytes > cap && len(grp) > 1 {
			t.Fatalf("group %d has %v bytes > cap with %d members", gi, bytes, len(grp))
		}
	}
}

func TestAggregateOversizedGradientAlone(t *testing.T) {
	m := model.VGG19()
	// VGG19 fc6.weight is ~411 MB; with a 4 MB cap it must sit alone.
	bk := Aggregate(m, 4e6, 0)
	for _, grp := range bk.Groups {
		var bytes float64
		for _, g := range grp {
			bytes += m.Grads[g].Bytes()
		}
		if bytes > 4e6 && len(grp) != 1 {
			t.Fatalf("oversized group with %d members", len(grp))
		}
	}
}

// DefaultAggregate is the one spelling of the repo-wide default: TotalBytes/13
// per push for every zoo model on the wire (all ≥ 52 MB there, so the floor
// is inert and goldens do not move), 4 MB for a model small enough that 1/13
// of it would release its gradients one by one.
func TestDefaultAggregate(t *testing.T) {
	for _, base := range []*model.Model{model.ResNet18(), model.ResNet50(), model.VGG19()} {
		m := model.WithWireFactor(base, 2)
		if got, want := DefaultAggregate(m), Aggregate(m, m.TotalBytes()/13, 0); !reflect.DeepEqual(got, want) {
			t.Errorf("%s on the wire: %d groups, want TotalBytes/13's %d", base.Name, got.NumGroups(), want.NumGroups())
		}
	}
	// Twenty 1 MB tensors: 1/13 of the model would push them one by one,
	// the floor groups them four to a push.
	small := &model.Model{Name: "small"}
	for i := 0; i < 20; i++ {
		small.Grads = append(small.Grads, model.Gradient{Index: i, Elems: 1e6 / model.BytesPerParam})
	}
	if got := DefaultAggregate(small); !reflect.DeepEqual(got, Aggregate(small, 4e6, 0)) || got.NumGroups() != 5 {
		t.Errorf("under the floor: %d groups, want the 4 MB bucketing's 5", got.NumGroups())
	}
}

func TestAggregateCountCap(t *testing.T) {
	m := model.ResNet18()
	bk := Aggregate(m, 1e12, 5)
	for _, grp := range bk.Groups {
		if len(grp) > 5 {
			t.Fatalf("group has %d members, cap 5", len(grp))
		}
	}
}

func TestAggregateBadBytesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Aggregate(model.ResNet18(), 0, 0)
}

func TestGroupOf(t *testing.T) {
	m := model.ResNet18()
	bk := Aggregate(m, 8e6, 0)
	for gi, grp := range bk.Groups {
		for _, g := range grp {
			if got := bk.GroupOf(g); got != gi {
				t.Fatalf("GroupOf(%d) = %d, want %d", g, got, gi)
			}
		}
	}
	if bk.GroupOf(99999) != -1 {
		t.Fatal("GroupOf(out of range) should be -1")
	}
}

func TestReleaseTimesStepwise(t *testing.T) {
	bk := Buckets{Groups: [][]int{{3, 4, 5}, {0, 1, 2}}}
	raw := []float64{6, 5, 4, 3, 2, 1} // backward: idx 5 first
	c := bk.ReleaseTimes(raw)
	// Group {3,4,5} releases when gradient 3 is done (t=3).
	for _, g := range []int{3, 4, 5} {
		if c[g] != 3 {
			t.Fatalf("c[%d] = %v, want 3", g, c[g])
		}
	}
	// Group {0,1,2} releases at t=6.
	for _, g := range []int{0, 1, 2} {
		if c[g] != 6 {
			t.Fatalf("c[%d] = %v, want 6", g, c[g])
		}
	}
}

func TestReleaseTimesOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Buckets{Groups: [][]int{{5}}}.ReleaseTimes([]float64{1})
}

func TestDetectBlocksSimple(t *testing.T) {
	// Two steps: indices 3-5 at t=1, indices 0-2 at t=2.
	c := []float64{2, 2, 2, 1, 1, 1}
	blocks := DetectBlocks(c, 0.1)
	if len(blocks) != 2 {
		t.Fatalf("got %d blocks, want 2: %+v", len(blocks), blocks)
	}
	if blocks[0].Lo != 3 || blocks[0].Hi != 5 || blocks[0].Release != 1 {
		t.Fatalf("block 0 = %+v", blocks[0])
	}
	if blocks[1].Lo != 0 || blocks[1].Hi != 2 || blocks[1].Release != 2 {
		t.Fatalf("block 1 = %+v", blocks[1])
	}
}

func TestDetectBlocksToleratesJitter(t *testing.T) {
	c := []float64{2.0, 2.002, 1.998, 1.001, 0.999, 1.0}
	blocks := DetectBlocks(c, 0.05)
	if len(blocks) != 2 {
		t.Fatalf("jittered steps produced %d blocks, want 2", len(blocks))
	}
}

func TestDetectBlocksSingle(t *testing.T) {
	blocks := DetectBlocks([]float64{1, 1, 1}, 0.5)
	if len(blocks) != 1 || blocks[0].Size() != 3 {
		t.Fatalf("blocks = %+v", blocks)
	}
}

func TestDetectBlocksEmpty(t *testing.T) {
	if DetectBlocks(nil, 0.1) != nil {
		t.Fatal("empty input should give nil")
	}
}

func TestDetectBlocksVGG19Pattern(t *testing.T) {
	// Reconstruct the paper's VGG19 four-block observation: gradients
	// {28-37}, {14-27}, {2-13}, {0-1} released at four distinct times.
	c := make([]float64, 38)
	for i := range c {
		switch {
		case i >= 28:
			c[i] = 1
		case i >= 14:
			c[i] = 2
		case i >= 2:
			c[i] = 3
		default:
			c[i] = 4
		}
	}
	blocks := DetectBlocks(c, 0.1)
	if len(blocks) != 4 {
		t.Fatalf("got %d blocks, want 4", len(blocks))
	}
	want := []struct{ lo, hi int }{{28, 37}, {14, 27}, {2, 13}, {0, 1}}
	for i, w := range want {
		if blocks[i].Lo != w.lo || blocks[i].Hi != w.hi {
			t.Fatalf("block %d = [%d,%d], want [%d,%d]", i, blocks[i].Lo, blocks[i].Hi, w.lo, w.hi)
		}
	}
}

func TestIntervalsBasic(t *testing.T) {
	// idx: 0→t=3, 1→t=2, 2→t=1. A(2) = 1 (next higher-priority at t=2),
	// A(1) = 1, A(0) = Inf.
	c := []float64{3, 2, 1}
	a := Intervals(c, 0)
	if a[0] != Inf {
		t.Fatalf("A(0) = %v, want Inf", a[0])
	}
	if a[1] != 1 || a[2] != 1 {
		t.Fatalf("a = %v", a)
	}
}

func TestIntervalsIgnoresIntraBlockJitter(t *testing.T) {
	// Block at ~1 (indices 2,3), block at 2 (indices 0,1).
	c := []float64{2, 2, 1.0005, 1}
	a := Intervals(c, 0.01)
	// For index 3 the nearest later higher-priority generation beyond eps
	// is t=2, not index 2's 1.0005.
	if math.Abs(a[3]-1) > 1e-9 {
		t.Fatalf("A(3) = %v, want 1", a[3])
	}
}

func TestBlockIntervals(t *testing.T) {
	blocks := []Block{{Lo: 3, Hi: 5, Release: 1}, {Lo: 0, Hi: 2, Release: 2.5}}
	a := BlockIntervals(blocks, 6)
	for g := 3; g <= 5; g++ {
		if a[g] != 1.5 {
			t.Fatalf("A(%d) = %v, want 1.5", g, a[g])
		}
	}
	for g := 0; g <= 2; g++ {
		if a[g] != Inf {
			t.Fatalf("A(%d) = %v, want Inf (last block)", g, a[g])
		}
	}
}

// Property: DetectBlocks partitions [0, n) exactly, in generation order.
func TestPropertyDetectBlocksPartition(t *testing.T) {
	f := func(raw []uint8, gapRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		// Build a monotone-in-generation-order c (later-generated, lower
		// index => larger time), as backward propagation guarantees.
		c := make([]float64, len(raw))
		acc := 0.0
		for i := len(raw) - 1; i >= 0; i-- {
			acc += float64(raw[i]%10) / 10
			c[i] = acc
		}
		gap := float64(gapRaw%20) / 10
		blocks := DetectBlocks(c, gap)
		next := len(c) - 1
		for _, b := range blocks {
			if b.Hi != next || b.Lo > b.Hi {
				return false
			}
			next = b.Lo - 1
		}
		return next == -1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: round-trip — aggregation followed by detection recovers the
// same group structure when inter-group gaps exceed intra-group ones.
func TestPropertyAggregateDetectRoundTrip(t *testing.T) {
	m := model.ResNet18()
	bk := Aggregate(m, 4e6, 0)
	n := m.NumGradients()
	raw := make([]float64, n)
	// Each gradient takes 1 ms of backward compute.
	for i := n - 1; i >= 0; i-- {
		raw[i] = float64(n-i) * 1e-3
	}
	c := bk.ReleaseTimes(raw)
	blocks := DetectBlocks(c, 0.5e-3)
	if len(blocks) != bk.NumGroups() {
		t.Fatalf("detected %d blocks, aggregated %d groups", len(blocks), bk.NumGroups())
	}
	for i, b := range blocks {
		grp := bk.Groups[i]
		if b.Lo != grp[0] || b.Hi != grp[len(grp)-1] {
			t.Fatalf("block %d = [%d,%d], group = [%d,%d]", i, b.Lo, b.Hi, grp[0], grp[len(grp)-1])
		}
	}
}

// Property: intervals are positive and A(0) is always Inf for strictly
// backward-ordered generation times.
func TestPropertyIntervalsPositive(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) < 2 {
			return true
		}
		c := make([]float64, len(raw))
		acc := 0.0
		for i := len(raw) - 1; i >= 0; i-- {
			acc += float64(raw[i]%10)/10 + 0.01
			c[i] = acc
		}
		a := Intervals(c, 0)
		if a[0] != Inf {
			return false
		}
		for _, v := range a {
			if v <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
