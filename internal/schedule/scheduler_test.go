package schedule

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"prophet/internal/core"
)

func sizes(n int, each float64) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = each
	}
	return s
}

func TestMessagePriorityAndCompletes(t *testing.T) {
	m := Message{Pieces: []Piece{
		{Grad: 7, Bytes: 10, Last: false},
		{Grad: 3, Bytes: 10, Last: true},
	}}
	if m.Priority() != 3 {
		t.Fatalf("priority = %d", m.Priority())
	}
	done := m.Completes()
	if len(done) != 1 || done[0] != 3 {
		t.Fatalf("completes = %v", done)
	}
}

func TestFIFOOrderIsGenerationOrder(t *testing.T) {
	f := NewFIFO(sizes(5, 100))
	f.BeginIteration(0)
	for _, g := range []int{4, 3, 2, 1, 0} {
		f.OnGenerated(g, 0)
	}
	var got []int
	for {
		m, ok := f.Next(0)
		if !ok {
			break
		}
		got = append(got, m.Pieces[0].Grad)
	}
	want := []int{4, 3, 2, 1, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestFIFOWholeGradients(t *testing.T) {
	f := NewFIFO([]float64{100, 200})
	f.BeginIteration(0)
	f.OnGenerated(1, 0)
	m, ok := f.Next(0)
	if !ok || m.Bytes != 200 || !m.Pieces[0].Last {
		t.Fatalf("msg = %+v", m)
	}
}

func TestFIFOEmptyNotReady(t *testing.T) {
	f := NewFIFO(sizes(3, 10))
	f.BeginIteration(0)
	if _, ok := f.Next(0); ok {
		t.Fatal("empty FIFO returned a message")
	}
}

func TestFIFOBeginIterationClears(t *testing.T) {
	f := NewFIFO(sizes(3, 10))
	f.BeginIteration(0)
	f.OnGenerated(2, 0)
	f.BeginIteration(1)
	if _, ok := f.Next(0); ok {
		t.Fatal("queue survived BeginIteration")
	}
}

func TestFIFOOutOfRangePanics(t *testing.T) {
	f := NewFIFO(sizes(3, 10))
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	f.OnGenerated(7, 0)
}

func TestP3SlicesIntoPartitions(t *testing.T) {
	p := NewP3([]float64{1000}, 300)
	p.BeginIteration(0)
	p.OnGenerated(0, 0)
	var total float64
	var parts int
	for {
		m, ok := p.Next(0)
		if !ok {
			break
		}
		if m.Bytes > 300 {
			t.Fatalf("partition of %v bytes exceeds 300", m.Bytes)
		}
		total += m.Bytes
		parts++
		if m.Pieces[0].Last != (total == 1000) {
			t.Fatalf("Last flag wrong at %v bytes", total)
		}
	}
	if total != 1000 || parts != 4 { // 300+300+300+100
		t.Fatalf("total=%v parts=%d", total, parts)
	}
}

func TestP3PreemptsForHigherPriority(t *testing.T) {
	p := NewP3([]float64{500, 500, 2000}, 500)
	p.BeginIteration(0)
	p.OnGenerated(2, 0)
	m1, _ := p.Next(0)
	if m1.Pieces[0].Grad != 2 {
		t.Fatalf("first partition from gradient %d", m1.Pieces[0].Grad)
	}
	// Gradient 0 arrives while 2 still has partitions left.
	p.OnGenerated(0, 1)
	m2, _ := p.Next(1)
	if m2.Pieces[0].Grad != 0 {
		t.Fatalf("after preemption got gradient %d, want 0", m2.Pieces[0].Grad)
	}
	// Then back to gradient 2's remaining partitions.
	m3, _ := p.Next(2)
	if m3.Pieces[0].Grad != 2 {
		t.Fatalf("got gradient %d, want 2", m3.Pieces[0].Grad)
	}
}

func TestP3BadPartitionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewP3(sizes(2, 10), 0)
}

func TestP3RegenerationAcrossIterations(t *testing.T) {
	p := NewP3([]float64{100}, 50)
	for iter := 0; iter < 3; iter++ {
		p.BeginIteration(iter)
		p.OnGenerated(0, 0)
		var total float64
		for {
			m, ok := p.Next(0)
			if !ok {
				break
			}
			total += m.Bytes
		}
		if total != 100 {
			t.Fatalf("iter %d: total = %v", iter, total)
		}
	}
}

func TestByteSchedulerDrainsUpToCredit(t *testing.T) {
	b := NewByteScheduler([]float64{100, 100, 100}, 250)
	b.BeginIteration(0)
	for g := 0; g < 3; g++ {
		b.OnGenerated(g, 0)
	}
	m, ok := b.Next(0)
	if !ok {
		t.Fatal("no message")
	}
	if m.Bytes != 250 {
		t.Fatalf("message bytes = %v, want 250 (credit)", m.Bytes)
	}
	// Pieces: g0 (100, last), g1 (100, last), g2 (50, not last).
	if len(m.Pieces) != 3 {
		t.Fatalf("pieces = %+v", m.Pieces)
	}
	if !m.Pieces[0].Last || !m.Pieces[1].Last || m.Pieces[2].Last {
		t.Fatalf("Last flags wrong: %+v", m.Pieces)
	}
	m2, ok := b.Next(0)
	if !ok || m2.Bytes != 50 || !m2.Pieces[0].Last {
		t.Fatalf("remainder message = %+v", m2)
	}
}

func TestByteSchedulerPriorityOrder(t *testing.T) {
	b := NewByteScheduler(sizes(4, 100), 100)
	b.BeginIteration(0)
	b.OnGenerated(3, 0)
	b.OnGenerated(1, 0)
	m, _ := b.Next(0)
	if m.Priority() != 1 {
		t.Fatalf("priority = %d, want 1", m.Priority())
	}
}

func TestByteSchedulerFixedCreditStable(t *testing.T) {
	b := NewByteScheduler(sizes(2, 10), 100)
	before := b.Credit()
	b.BeginIteration(0)
	b.OnIterationEnd(1.0)
	b.BeginIteration(1)
	if b.Credit() != before {
		t.Fatal("credit changed without tuner")
	}
}

func TestByteSchedulerTunerChangesCredit(t *testing.T) {
	b := NewByteScheduler(sizes(2, 10), 4e6)
	b.EnableTuning(1e6, 16e6, 42)
	seen := map[float64]bool{}
	for iter := 0; iter < 40; iter++ {
		b.BeginIteration(iter)
		seen[b.Credit()] = true
		// Pretend bigger credit is better: duration decreasing in credit.
		b.OnIterationEnd(1.0 / (1.0 + b.Credit()/1e6))
	}
	if len(seen) < 3 {
		t.Fatalf("tuner explored only %d credit values", len(seen))
	}
}

func TestCreditTunerConvergesTowardBetter(t *testing.T) {
	tu := NewCreditTuner(2e6, 1e6, 16e6, 7)
	// Optimal credit is 16 MB: duration decreases with credit.
	for i := 0; i < 200; i++ {
		c := tu.Propose()
		tu.Report(2.0 - c/16e6)
	}
	if tu.Best() < 8e6 {
		t.Fatalf("tuner best = %v, expected to climb toward 16e6", tu.Best())
	}
}

func TestCreditTunerBadBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewCreditTuner(1, 0, 10, 1)
}

func prophetProfile(t *testing.T) *core.Profile {
	t.Helper()
	// 3 release steps of 4 gradients at 1 MB each, 50 ms apart.
	n := 12
	gen := make([]float64, n)
	sz := make([]float64, n)
	for i := 0; i < n; i++ {
		gen[i] = 0.05 * float64((n-1-i)/4+1)
		sz[i] = 1e6
	}
	prof, err := core.NewProfile(gen, sz, 0.005)
	if err != nil {
		t.Fatal(err)
	}
	return prof
}

func TestProphetDeliversPlanUnitsInOrder(t *testing.T) {
	prof := prophetProfile(t)
	p, err := NewProphet(NewPlanner(prof, false), func() float64 { return 1e9 }, nil)
	if err != nil {
		t.Fatal(err)
	}
	p.BeginIteration(0)
	// Nothing ready before generation.
	if _, ok := p.Next(0); ok {
		t.Fatal("message before generation")
	}
	for g := 0; g < prof.N(); g++ {
		p.OnGenerated(g, 0)
	}
	var grads []int
	for {
		m, ok := p.Next(0)
		if !ok {
			break
		}
		for _, pc := range m.Pieces {
			grads = append(grads, pc.Grad)
			if !pc.Last {
				t.Fatal("Prophet pieces are whole gradients")
			}
		}
	}
	sort.Ints(grads)
	for i, g := range grads {
		if g != i {
			t.Fatalf("gradient coverage broken: %v", grads)
		}
	}
}

func TestProphetGradZeroOvertakesStaleBlocks(t *testing.T) {
	prof := prophetProfile(t)
	p, err := NewProphet(NewPlanner(prof, false), func() float64 { return 1e9 }, nil)
	if err != nil {
		t.Fatal(err)
	}
	p.BeginIteration(0)
	// Generate everything at once (the network lagged far behind the
	// plan). Priority dispatch must serve gradient 0's unit first even
	// though earlier blocks were planned before it.
	for g := 0; g < prof.N(); g++ {
		p.OnGenerated(g, 0)
	}
	m, ok := p.Next(0)
	if !ok {
		t.Fatal("no message")
	}
	if m.Priority() != 0 {
		t.Fatalf("first message priority %d, want 0", m.Priority())
	}
}

func TestProphetNothingReadyBeforeGeneration(t *testing.T) {
	prof := prophetProfile(t)
	p, err := NewProphet(NewPlanner(prof, false), func() float64 { return 1e9 }, nil)
	if err != nil {
		t.Fatal(err)
	}
	p.BeginIteration(0)
	if _, ok := p.Next(0); ok {
		t.Fatal("message served before any generation")
	}
}

func TestProphetReplansOnBandwidthChange(t *testing.T) {
	prof := prophetProfile(t)
	bw := 1e9
	p, err := NewProphet(NewPlanner(prof, false), func() float64 { return bw }, nil)
	if err != nil {
		t.Fatal(err)
	}
	before := p.Replans()
	bw = 0.2e9 // -80%
	p.BeginIteration(1)
	if p.Replans() != before+1 {
		t.Fatal("no replan after bandwidth change")
	}
	bw = 0.201e9 // +0.5%: below threshold
	p.BeginIteration(2)
	if p.Replans() != before+1 {
		t.Fatal("replanned for a negligible change")
	}
}

func TestProphetNilBandwidthErrors(t *testing.T) {
	if _, err := NewProphet(NewPlanner(prophetProfile(t), false), nil, nil); err == nil {
		t.Fatal("expected error")
	}
}

func TestProphetBlockLabels(t *testing.T) {
	prof := prophetProfile(t)
	p, err := NewProphet(NewPlanner(prof, false), func() float64 { return 1e9 }, nil)
	if err != nil {
		t.Fatal(err)
	}
	p.BeginIteration(0)
	for g := 0; g < prof.N(); g++ {
		p.OnGenerated(g, 0)
	}
	m, ok := p.Next(0)
	if !ok {
		t.Fatal("no message")
	}
	if len(m.Pieces) > 1 && m.Label[:5] != "block" {
		t.Fatalf("label = %q", m.Label)
	}
}

// releaseAll is a play script that releases every gradient of prof at once
// and drains the queue.
func releaseAll(prof *core.Profile) string {
	var b strings.Builder
	for g := 0; g < prof.N(); g++ {
		fmt.Fprintf(&b, "g%d ", g)
	}
	return b.String() + "drain"
}

// TestPlannerMemoisesOnItsInputs: equal inputs return the same plan, and a
// plan is Algorithm 1's at exactly the inputs asked for — a different
// bandwidth, per-message time or window mode gets its own, so workers on
// different uplinks never share one.
func TestPlannerMemoisesOnItsInputs(t *testing.T) {
	prof := prophetProfile(t)
	pl := NewPlanner(prof, false)
	plan := func(pl *Planner, bw, perMessage float64) *core.Plan {
		t.Helper()
		p, err := pl.Plan(bw, perMessage)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := plan(pl, 5e7, 1e-3)
	if again := plan(pl, 5e7, 1e-3); again != base {
		t.Fatal("equal inputs returned two plans")
	}
	for _, tc := range []struct {
		name       string
		pl         *Planner
		bw, perMsg float64
	}{
		{"bandwidth", pl, 1e8, 1e-3},
		{"per-message time", pl, 5e7, 2e-3},
		{"window mode", NewPlanner(prof, true), 5e7, 1e-3},
	} {
		got := plan(tc.pl, tc.bw, tc.perMsg)
		want, err := core.Assemble(prof, core.Config{Bandwidth: tc.bw, PerMessageTime: tc.perMsg, IgnoreWindows: tc.pl.ignoreWindows})
		if err != nil {
			t.Fatal(err)
		}
		if got == base || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: the planner returned the shared plan or not Algorithm 1's at its inputs", tc.name)
		}
	}
	if _, err := pl.Plan(0, 1e-3); err == nil {
		t.Error("a zero bandwidth planned")
	}
}

// TestProphetsShareAPlan: Prophets built from one planner at one bandwidth,
// on concurrent goroutines, each adopt one plan, the same one, and send what
// a Prophet with a planner of its own sends. Under -race this is the check
// of the planner's lock and of plans staying read-only.
func TestProphetsShareAPlan(t *testing.T) {
	prof := prophetProfile(t)
	script := releaseAll(prof) + " iter " + releaseAll(prof)
	newProphet := func(pl *Planner) *Prophet {
		p, err := NewProphet(pl, func() float64 { return 1e9 }, nil)
		if err != nil {
			panic(err)
		}
		return p
	}
	want := play(newProphet(NewPlanner(prof, false)), script)
	pl := NewPlanner(prof, false)
	ps := make([]*Prophet, 4)
	sent := make([][]string, len(ps))
	var wg sync.WaitGroup
	for i := range ps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ps[i] = newProphet(pl)
			sent[i] = play(ps[i], script)
		}()
	}
	wg.Wait()
	for i, p := range ps {
		if p.Replans() != 1 || p.plan != ps[0].plan || !reflect.DeepEqual(sent[i], want) {
			t.Fatalf("Prophet %d: %d plans adopted, shared plan %v, sent %v, want %v", i, p.Replans(), p.plan == ps[0].plan, sent[i], want)
		}
	}
}

// TestPlannerIgnoreWindowsNeverAddsBlocks: without windows, the backward
// plan collapses into fewer, larger blocks (or equal, never more).
func TestPlannerIgnoreWindowsNeverAddsBlocks(t *testing.T) {
	prof := prophetProfile(t)
	withWin, err := NewPlanner(prof, false).Plan(5e7, DefaultProphetEngineCost)
	if err != nil {
		t.Fatal(err)
	}
	noWin, err := NewPlanner(prof, true).Plan(5e7, DefaultProphetEngineCost)
	if err != nil {
		t.Fatal(err)
	}
	if noWin.NumBlocks() > withWin.NumBlocks() {
		t.Fatalf("ignoring windows produced more blocks (%d) than honoring them (%d)", noWin.NumBlocks(), withWin.NumBlocks())
	}
}

// Property: every scheduler delivers each generated gradient's full byte
// count exactly once per iteration.
func TestPropertySchedulersConserveBytes(t *testing.T) {
	f := func(nRaw, szRaw uint8, credRaw uint16) bool {
		n := int(nRaw%20) + 1
		szs := make([]float64, n)
		for i := range szs {
			szs[i] = float64(szRaw%100)*1e4 + 1e4
		}
		schedulers := []Scheduler{
			NewFIFO(szs),
			NewP3(szs, float64(credRaw%100)*1e4+1e4),
			NewByteScheduler(szs, float64(credRaw%100)*2e4+2e4),
		}
		for _, s := range schedulers {
			s.BeginIteration(0)
			for g := n - 1; g >= 0; g-- {
				s.OnGenerated(g, 0)
			}
			got := make([]float64, n)
			for {
				m, ok := s.Next(0)
				if !ok {
					break
				}
				for _, pc := range m.Pieces {
					got[pc.Grad] += pc.Bytes
				}
			}
			for i := range got {
				if math.Abs(got[i]-szs[i]) > 1e-6 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: P3 and ByteScheduler always serve the highest-priority gradient
// with bytes remaining.
func TestPropertyPriorityServiceOrder(t *testing.T) {
	f := func(genOrder []uint8) bool {
		n := 10
		szs := sizes(n, 1e5)
		p := NewP3(szs, 3e4)
		p.BeginIteration(0)
		gen := map[int]bool{}
		for _, r := range genOrder {
			g := int(r) % n
			if !gen[g] {
				p.OnGenerated(g, 0)
				gen[g] = true
			}
			m, ok := p.Next(0)
			if !ok {
				continue
			}
			// Served gradient must be the min generated with remaining.
			min := n
			for cand := range gen {
				if p.remaining[cand] > 0 || cand == m.Pieces[0].Grad {
					if cand < min {
						min = cand
					}
				}
			}
			if m.Pieces[0].Grad > min {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
