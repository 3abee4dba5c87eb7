package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"prophet/internal/model"
	"prophet/internal/stepwise"
)

// assembleDeadline bounds one Assemble call in these tests. A plan takes
// milliseconds; a release loop that stops advancing would otherwise spin
// until go test's 10-minute timeout.
const assembleDeadline = 5 * time.Second

// assemble is Assemble under assembleDeadline. Past it the timer panics,
// which ends the test binary at once with the test's name in the message.
func assemble(t *testing.T, prof *Profile, cfg Config) (*Plan, error) {
	t.Helper()
	name := t.Name()
	timer := time.AfterFunc(assembleDeadline, func() {
		panic(fmt.Sprintf("%s: Assemble did not return within %v", name, assembleDeadline))
	})
	defer timer.Stop()
	return Assemble(prof, cfg)
}

// stepProfile builds a synthetic stepwise profile: nBlocks release steps of
// blockSize gradients each, separated by gap seconds, each gradient of the
// given size. Index 0 is generated last (release time nBlocks*gap).
func stepProfile(t *testing.T, nBlocks, blockSize int, gap, bytes float64) *Profile {
	t.Helper()
	n := nBlocks * blockSize
	gen := make([]float64, n)
	sz := make([]float64, n)
	for i := 0; i < n; i++ {
		block := (n - 1 - i) / blockSize // 0 = first released
		gen[i] = gap * float64(block+1)
		sz[i] = bytes
	}
	p, err := NewProfile(gen, sz, gap/10)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// gradBytes sums the bytes each gradient receives across all units.
func gradBytes(plan *Plan, n int) []float64 {
	got := make([]float64, n)
	for _, u := range plan.Units {
		for _, s := range u.Spans {
			got[s.Grad] += s.Bytes
		}
	}
	return got
}

func TestAssembleConservesBytes(t *testing.T) {
	prof := stepProfile(t, 4, 5, 0.1, 1e6)
	plan, err := assemble(t, prof, Config{Bandwidth: 100e6})
	if err != nil {
		t.Fatal(err)
	}
	got := gradBytes(plan, prof.N())
	for g, b := range got {
		if math.Abs(b-prof.Bytes[g]) > 1e-9 {
			t.Fatalf("gradient %d scheduled %v bytes, want %v", g, b, prof.Bytes[g])
		}
	}
}

func TestAssembleExactlyOneLastSpanPerGradient(t *testing.T) {
	prof := stepProfile(t, 4, 5, 0.1, 9e6) // forces partitioning
	plan, err := assemble(t, prof, Config{Bandwidth: 100e6})
	if err != nil {
		t.Fatal(err)
	}
	lasts := make([]int, prof.N())
	for _, u := range plan.Units {
		for _, s := range u.Spans {
			if s.Last {
				lasts[s.Grad]++
			}
		}
	}
	for g, c := range lasts {
		if c != 1 {
			t.Fatalf("gradient %d has %d Last spans", g, c)
		}
	}
}

func TestAssembleRespectsConstraint7(t *testing.T) {
	// t(i) >= c(i): no gradient starts before it is generated.
	prof := stepProfile(t, 4, 5, 0.1, 1e6)
	plan, err := assemble(t, prof, Config{Bandwidth: 100e6})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range plan.Start {
		if s < prof.Gen[i]-1e-12 {
			t.Fatalf("t(%d)=%v < c=%v", i, s, prof.Gen[i])
		}
	}
}

func TestAssembleGradZeroAtBackwardEnd(t *testing.T) {
	// Line 17: t(0) = c(0) — gradient 0 goes out the moment backward ends
	// (the network is unloaded here, so there is no backlog).
	prof := stepProfile(t, 4, 5, 0.1, 1e6)
	plan, err := assemble(t, prof, Config{Bandwidth: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Start[0] != prof.BackwardEnd() {
		t.Fatalf("t(0) = %v, want c(0) = %v", plan.Start[0], prof.BackwardEnd())
	}
}

// nextReleaseAfter returns the earliest generation time strictly after t,
// or +Inf.
func nextReleaseAfter(prof *Profile, t float64) float64 {
	next := stepwise.Inf
	for _, c := range prof.Gen {
		if c > t+1e-12 && c < next {
			next = c
		}
	}
	return next
}

func TestAssembleBlocksFitWindows(t *testing.T) {
	// Constraint 11: past the first partition (which is always admitted
	// to keep the link busy), a block must finish before the next release
	// of higher-priority gradients that follows its start.
	prof := stepProfile(t, 4, 5, 0.1, 1e6)
	b := 200e6
	plan, err := assemble(t, prof, Config{Bandwidth: b})
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range plan.Units {
		if u.Phase != Backward || len(u.Spans) == 1 {
			continue
		}
		end := u.PlannedStart
		for _, s := range u.Spans {
			end += s.Bytes / b
		}
		// The deadline may advance if a release lands exactly at a block
		// boundary mid-assembly; allow one release step of slack.
		deadline := nextReleaseAfter(prof, nextReleaseAfter(prof, u.PlannedStart))
		if deadline == stepwise.Inf {
			continue
		}
		if end > deadline+1e-9 {
			t.Fatalf("block at %v ends %v after deadline %v", u.PlannedStart, end, deadline)
		}
	}
}

func TestAssembleWideWindowTakesWholeBlock(t *testing.T) {
	// With fast network and wide gaps every released block is fully
	// assembled. The last release coincides with c(0), so 3 blocks
	// assemble during backward and the final 5 gradients flow through the
	// forward phase.
	prof := stepProfile(t, 4, 5, 1.0, 1e6)
	plan, err := assemble(t, prof, Config{Bandwidth: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	var backward []Unit
	for _, u := range plan.Units {
		if u.Phase == Backward {
			backward = append(backward, u)
		}
	}
	if len(backward) != 3 {
		t.Fatalf("got %d backward blocks, want 3", len(backward))
	}
	for _, u := range backward {
		if len(u.Grads()) != 5 {
			t.Fatalf("block %v has %d members, want 5", u.Spans, len(u.Grads()))
		}
	}
}

func TestAssembleOverloadedLinkStaysBusy(t *testing.T) {
	// Slow network: blocks form back to back with no idle gap until c(0).
	prof := stepProfile(t, 4, 5, 0.05, 4e6)
	plan, err := assemble(t, prof, Config{Bandwidth: 50e6}) // E(4MB) = 80ms >> gap
	if err != nil {
		t.Fatal(err)
	}
	var prevEnd float64 = -1
	for _, u := range plan.Units {
		if u.Phase != Backward {
			continue
		}
		if prevEnd >= 0 && u.PlannedStart > prevEnd+1e-9 {
			t.Fatalf("link idled between blocks: %v → %v", prevEnd, u.PlannedStart)
		}
		prevEnd = u.PlannedStart + u.Bytes/50e6
	}
	if plan.NumBlocks() == 0 {
		t.Fatal("no backward blocks under overload")
	}
}

func TestAssembleLargeGradientSpreadsAcrossBlocks(t *testing.T) {
	// One 40 MB gradient (index 3) among small ones: its partitions must
	// spread over multiple blocks rather than deferring wholesale.
	gen := []float64{0.3, 0.2, 0.2, 0.1, 0.1, 0.1}
	sz := []float64{1e6, 1e6, 1e6, 40e6, 1e6, 1e6}
	prof, err := NewProfile(gen, sz, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := assemble(t, prof, Config{Bandwidth: 100e6, Partition: 4e6})
	if err != nil {
		t.Fatal(err)
	}
	unitsTouching := 0
	for _, u := range plan.Units {
		for _, s := range u.Spans {
			if s.Grad == 3 {
				unitsTouching++
				break
			}
		}
	}
	if unitsTouching < 2 {
		t.Fatalf("40 MB gradient touched only %d units; partitions should spread", unitsTouching)
	}
	got := gradBytes(plan, prof.N())
	if math.Abs(got[3]-40e6) > 1e-6 {
		t.Fatalf("large gradient bytes = %v", got[3])
	}
}

func TestAssemblePartitionBoundsPriorityInversion(t *testing.T) {
	// Every backward span is at most one partition of one gradient, so a
	// higher-priority gradient waits at most Partition/B + current block
	// residue — never a whole tensor.
	prof := stepProfile(t, 3, 2, 0.05, 30e6)
	part := 4e6
	plan, err := assemble(t, prof, Config{Bandwidth: 100e6, Partition: part})
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range plan.Units {
		if u.Phase != Backward {
			continue
		}
		for _, s := range u.Spans {
			// Merged spans can cover several partitions only while the
			// window allows; a single *span* byte count is still a
			// multiple of the partition (or the tensor remainder).
			if s.Bytes > 30e6 {
				t.Fatalf("span carries %v bytes > tensor size", s.Bytes)
			}
		}
	}
}

func TestAssembleForwardPhaseOrdered(t *testing.T) {
	prof := stepProfile(t, 3, 4, 0.05, 2e6)
	plan, err := assemble(t, prof, Config{Bandwidth: 50e6})
	if err != nil {
		t.Fatal(err)
	}
	prev := -1
	first := true
	for _, u := range plan.Units {
		if u.Phase != Forward {
			continue
		}
		if first {
			// Gradient 0 ships alone so its pull gates nothing else.
			if len(u.Spans) != 1 || u.Spans[0].Grad != 0 {
				t.Fatalf("first forward unit = %+v, want lone gradient 0", u.Spans)
			}
			first = false
		}
		for _, s := range u.Spans {
			if s.Grad <= prev {
				t.Fatalf("forward spans out of priority order: %d after %d", s.Grad, prev)
			}
			prev = s.Grad
		}
	}
}

func TestAssembleForwardBundlesBounded(t *testing.T) {
	// Tiny gradients bundle up to ~one partition instead of shipping as
	// hundreds of individual messages.
	n := 100
	gen := make([]float64, n)
	sz := make([]float64, n)
	for i := 0; i < n; i++ {
		gen[i] = 0.001 // all released essentially at c(0)
		sz[i] = 100e3  // 100 KB each
	}
	gen[0] = 0.0011
	prof, err := NewProfile(gen, sz, 1e-5)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := assemble(t, prof, Config{Bandwidth: 10e6, Partition: 4e6})
	if err != nil {
		t.Fatal(err)
	}
	var fwdUnits int
	for _, u := range plan.Units {
		if u.Phase == Forward {
			fwdUnits++
			if u.Bytes > 4e6+100e3 {
				t.Fatalf("bundle of %v bytes exceeds partition bound", u.Bytes)
			}
		}
	}
	if fwdUnits > 10 {
		t.Fatalf("%d forward units for 10 MB of tiny tensors; expected bundling", fwdUnits)
	}
}

func TestAssembleUnitsChronological(t *testing.T) {
	prof := stepProfile(t, 5, 4, 0.08, 1.5e6)
	plan, err := assemble(t, prof, Config{Bandwidth: 80e6})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(plan.Units); i++ {
		if plan.Units[i].PlannedStart < plan.Units[i-1].PlannedStart-1e-12 {
			t.Fatalf("unit %d starts before unit %d", i, i-1)
		}
	}
}

func TestAssembleNoBandwidthPanics(t *testing.T) {
	prof := stepProfile(t, 2, 3, 0.1, 1e6)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	assemble(t, prof, Config{})
}

func TestAssembleInvalidProfileErrors(t *testing.T) {
	_, err := assemble(t, &Profile{Gen: []float64{1}, Bytes: []float64{0}}, Config{Bandwidth: 1})
	if err == nil {
		t.Fatal("expected error for zero-size gradient")
	}
}

func TestAssembleNegativePartitionErrors(t *testing.T) {
	prof := stepProfile(t, 2, 3, 0.1, 1e6)
	if _, err := assemble(t, prof, Config{Bandwidth: 1e9, Partition: -1}); err == nil {
		t.Fatal("expected error")
	}
}

func TestAssembleUnitBytesMatchSpans(t *testing.T) {
	prof := stepProfile(t, 3, 3, 0.1, 2e6)
	plan, err := assemble(t, prof, Config{Bandwidth: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range plan.Units {
		var want float64
		for _, s := range u.Spans {
			want += s.Bytes
		}
		if math.Abs(u.Bytes-want) > 1e-9 {
			t.Fatalf("unit bytes %v != span sum %v", u.Bytes, want)
		}
	}
}

func TestUnitGradsAndPriority(t *testing.T) {
	u := Unit{Spans: []Span{{Grad: 7, Bytes: 1}, {Grad: 3, Bytes: 1}, {Grad: 7, Bytes: 1}}}
	g := u.Grads()
	if len(g) != 2 || g[0] != 3 || g[1] != 7 {
		t.Fatalf("Grads = %v", g)
	}
	if u.Priority() != 3 {
		t.Fatalf("Priority = %d", u.Priority())
	}
}

func TestAssembleOnRealModelProfile(t *testing.T) {
	// End-to-end over a realistic ResNet50 stepwise profile.
	m := model.ResNet50()
	bk := stepwise.Aggregate(m, 8e6, 0)
	hw := model.M60Like()
	n := m.NumGradients()
	raw := make([]float64, n)
	acc := 0.0
	for i := n - 1; i >= 0; i-- {
		acc += m.BwdTime(hw, m.Grads[i], 64)
		raw[i] = acc
	}
	gen := bk.ReleaseTimes(raw)
	bytes := make([]float64, n)
	for i, g := range m.Grads {
		bytes[i] = g.Bytes()
	}
	prof, err := NewProfile(gen, bytes, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := assemble(t, prof, Config{Bandwidth: 375e6}) // 3 Gbps
	if err != nil {
		t.Fatal(err)
	}
	if plan.NumBlocks() == 0 {
		t.Fatal("ResNet50 at 3 Gbps should assemble at least one block")
	}
	got := gradBytes(plan, n)
	for g := range got {
		if math.Abs(got[g]-bytes[g]) > 1e-6 {
			t.Fatalf("gradient %d bytes %v != %v", g, got[g], bytes[g])
		}
	}
	if plan.Start[0] < prof.BackwardEnd()-1e-9 {
		t.Fatalf("t(0) = %v before c(0) = %v", plan.Start[0], prof.BackwardEnd())
	}
}

// Property: Algorithm 1 conserves bytes, never starts a gradient before its
// generation, and keeps non-leading spans inside their block-relative
// windows — for random stepwise profiles and bandwidths.
func TestPropertyAssembleConstraints(t *testing.T) {
	f := func(nBlocksRaw, sizeRaw uint8, gapRaw, bwRaw uint16) bool {
		nBlocks := int(nBlocksRaw%6) + 2
		blockSize := int(sizeRaw%6) + 1
		gap := float64(gapRaw%500)/1000 + 0.01
		bw := float64(bwRaw%1000)*1e6 + 1e6
		n := nBlocks * blockSize
		gen := make([]float64, n)
		sz := make([]float64, n)
		for i := 0; i < n; i++ {
			block := (n - 1 - i) / blockSize
			gen[i] = gap * float64(block+1)
			sz[i] = 1e6
		}
		prof, err := NewProfile(gen, sz, gap/10)
		if err != nil {
			return false
		}
		plan, err := assemble(t, prof, Config{Bandwidth: bw})
		if err != nil {
			return false
		}
		for i, s := range plan.Start {
			if s < prof.Gen[i]-1e-12 {
				return false // Constraint 7
			}
		}
		for _, u := range plan.Units {
			if u.Phase != Backward || len(u.Spans) == 1 {
				continue
			}
			end := u.PlannedStart
			for _, s := range u.Spans {
				end += s.Bytes / bw
			}
			deadline := nextReleaseAfter(prof, nextReleaseAfter(prof, u.PlannedStart))
			if deadline != stepwise.Inf && end > deadline+1e-9 {
				return false // Constraint 11
			}
		}
		got := gradBytes(plan, n)
		for g := range got {
			if math.Abs(got[g]-sz[g]) > 1e-6 {
				return false
			}
		}
		// Forward spans strictly ascending by priority.
		prev := -1
		for _, u := range plan.Units {
			if u.Phase != Forward {
				continue
			}
			for _, s := range u.Spans {
				if s.Grad <= prev {
					return false
				}
				prev = s.Grad
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func sortedInts(xs []int) bool { return sort.IntsAreSorted(xs) }

func TestAssembleForwardBundleChargesPerMessageTime(t *testing.T) {
	// A gradient first shipped inside a forward-phase bundle starts at
	// t(q) = bundle start + PerMessageTime + E(bytes queued ahead of it):
	// the bundle is one wire message, so its fixed per-message cost is
	// paid before any payload byte moves — exactly as the backward phase
	// charges it via tUsed. Omitting it understates t(q) by the overhead.
	const bw, pmt = 50e6, 0.005
	prof := stepProfile(t, 3, 4, 0.05, 2e6)
	plan, err := assemble(t, prof, Config{Bandwidth: bw, PerMessageTime: pmt})
	if err != nil {
		t.Fatal(err)
	}
	est := func(b float64) float64 { return b / bw }
	// firstUnit[g] is the index of the first unit carrying bytes of g.
	firstUnit := map[int]int{}
	for ui, u := range plan.Units {
		for _, s := range u.Spans {
			if _, ok := firstUnit[s.Grad]; !ok {
				firstUnit[s.Grad] = ui
			}
		}
	}
	checkedAtOffset := 0
	for ui, u := range plan.Units {
		if u.Phase != Forward {
			continue
		}
		ahead := 0.0
		for _, s := range u.Spans {
			// The forward phase stamps t(q) only for gradients whose first
			// bytes ship here; earlier backward spans already set it.
			if firstUnit[s.Grad] == ui {
				want := u.PlannedStart + pmt + est(ahead)
				if math.Abs(plan.Start[s.Grad]-want) > 1e-12 {
					t.Fatalf("t(%d) = %v, want %v (bundle start %v + overhead %v + E(%v ahead))",
						s.Grad, plan.Start[s.Grad], want, u.PlannedStart, pmt, ahead)
				}
				if ahead > 0 {
					checkedAtOffset++
				}
			}
			ahead += s.Bytes
		}
	}
	if checkedAtOffset == 0 {
		t.Fatal("no bundled gradient started at a nonzero offset; test exercises nothing")
	}
}

// TestAssembleAllocsDoNotGrowWithGradients: Algorithm 1 sizes its buffers
// once per plan, so tripling the gradient count adds at most a couple of
// objects (the unit slice outgrowing its presize), not one per gradient.
func TestAssembleAllocsDoNotGrowWithGradients(t *testing.T) {
	allocs := func(nBlocks int) float64 {
		prof := stepProfile(t, nBlocks, 10, 1e-3, 1e6)
		cfg := Config{Bandwidth: 5e9, PerMessageTime: 1e-5}
		return testing.AllocsPerRun(20, func() {
			if _, err := assemble(t, prof, cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(10), allocs(30); large > small+2 {
		t.Errorf("Assemble allocates %v objects on 300 gradients, %v on 100: want at most 2 more", large, small)
	}
}

// TestGradHeapPopsLowestFirst interleaves pushes and pops of distinct
// indices and checks every pop against a sorted reference.
func TestGradHeapPopsLowestFirst(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h GradHeap
	var ref []int
	for _, g := range rng.Perm(500) {
		h.Push(g)
		ref = append(ref, g)
		for len(ref) > 0 && rng.Intn(3) == 0 {
			sort.Ints(ref)
			if got := h.Pop(); got != ref[0] {
				t.Fatalf("Pop = %d, want %d", got, ref[0])
			}
			ref = ref[1:]
		}
	}
	sort.Ints(ref)
	for _, want := range ref {
		if got := h.Pop(); got != want {
			t.Fatalf("Pop = %d, want %d", got, want)
		}
	}
	if len(h) != 0 {
		t.Fatalf("%d indices left after draining", len(h))
	}
}
