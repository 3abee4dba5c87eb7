package schedule

import (
	"fmt"
	"sync"

	"prophet/internal/core"
)

// DefaultProphetEngineCost is the calibrated per-block dispatch cost of
// Prophet's C++ BytePS core integration (the paper reports negligible
// runtime overhead; the Scheduled Queue is consulted once per block, not per
// partition).
const DefaultProphetEngineCost = 0.5e-3

// Planner is Algorithm 1 over one profile, memoised on its exact inputs:
// equal inputs get the same plan. Prophets on concurrent runs may share one,
// so the memo is locked and its plans are read-only.
type Planner struct {
	prof          *core.Profile
	ignoreWindows bool
	mu            sync.Mutex
	plans         map[core.Config]*core.Plan
}

// NewPlanner plans against prof. ignoreWindows selects the DESIGN.md §5
// ablation mode, in which blocks ignore the stepwise transfer windows.
func NewPlanner(prof *core.Profile, ignoreWindows bool) *Planner {
	return &Planner{prof: prof, ignoreWindows: ignoreWindows, plans: make(map[core.Config]*core.Plan)}
}

// Plan returns the plan at bandwidth bw (bytes/sec) with a fixed cost of
// perMessage seconds per message. Callers must not modify it.
func (pl *Planner) Plan(bw, perMessage float64) (*core.Plan, error) {
	if !(bw > 0) {
		return nil, fmt.Errorf("schedule: planner got non-positive bandwidth %v", bw)
	}
	cfg := core.Config{Bandwidth: bw, PerMessageTime: perMessage, IgnoreWindows: pl.ignoreWindows}
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if plan, ok := pl.plans[cfg]; ok {
		return plan, nil
	}
	plan, err := core.Assemble(pl.prof, cfg)
	if err != nil {
		return nil, err
	}
	pl.plans[cfg] = plan
	return plan, nil
}

// Prophet is the paper's strategy: using the profiled stepwise pattern
// (generation times and transfer windows) and the monitored bandwidth, it
// assembles gradients into blocks with Algorithm 1 and streams them through
// the Scheduled Queue. Blocks are big enough to use the network well, yet
// sized to finish before the next higher-priority gradients are generated;
// after backward completes, remaining gradients go one by one in strict
// priority order, starting with gradient 0 at its generation instant.
type Prophet struct {
	planner   *Planner
	bandwidth func() float64
	overhead  func(bw float64) float64
	queue     *core.Queue
	plan      *core.Plan
	plannedBW float64
	replans   int
	// msgCache holds the rendered Message per plan unit. A unit's pieces and
	// label depend only on the plan, so the same (read-only) Message is
	// re-emitted every iteration instead of being rebuilt — the cache is
	// dropped whenever the plan changes.
	msgCache []Message
}

// NewProphet creates the strategy. planner holds the job profiler's output;
// bandwidth is polled at each iteration start (the Network Bandwidth
// Monitor) and a bandwidth change triggers re-planning. overhead, when
// non-nil, returns the fixed per-message wire cost in seconds at a given
// bandwidth, letting Algorithm 1 size blocks against true message times.
func NewProphet(planner *Planner, bandwidth func() float64, overhead func(bw float64) float64) (*Prophet, error) {
	if bandwidth == nil {
		return nil, fmt.Errorf("schedule: Prophet needs a bandwidth source")
	}
	p := &Prophet{planner: planner, bandwidth: bandwidth, overhead: overhead}
	if err := p.replan(bandwidth()); err != nil {
		return nil, err
	}
	p.queue = core.NewQueue(p.plan, planner.prof.N())
	return p, nil
}

func (p *Prophet) replan(bw float64) error {
	perMessage := DefaultProphetEngineCost
	if p.overhead != nil {
		perMessage += p.overhead(bw)
	}
	plan, err := p.planner.Plan(bw, perMessage)
	if err != nil {
		return err
	}
	p.plan = plan
	p.plannedBW = bw
	p.replans++
	p.msgCache = nil
	return nil
}

// Name implements Scheduler.
func (p *Prophet) Name() string { return "prophet" }

// Replans returns how many plans this Prophet has adopted, counting those
// its planner had already computed.
func (p *Prophet) Replans() int { return p.replans }

// BeginIteration implements Scheduler: it polls the bandwidth monitor and
// re-runs Algorithm 1 when the estimate moved by more than 5%.
func (p *Prophet) BeginIteration(int) {
	bw := p.bandwidth()
	if bw > 0 && relDiff(bw, p.plannedBW) > 0.05 {
		if err := p.replan(bw); err == nil {
			p.queue.SetPlan(p.plan)
			return
		}
	}
	p.queue.ResetIteration()
}

func relDiff(a, b float64) float64 {
	d := a - b
	if d < 0 {
		d = -d
	}
	if b == 0 {
		return 1
	}
	return d / b
}

// OnGenerated implements Scheduler.
func (p *Prophet) OnGenerated(g int, _ float64) { p.queue.MarkGenerated(g) }

// Next implements Scheduler. It delivers the highest-priority eligible
// unit: among the unsent units whose gradients are all generated, the one
// whose lowest gradient index is smallest. A unit still waiting on a
// gradient is skipped, not waited for, so a later eligible unit may go
// first; each unit still goes whole, preserving the block structure.
func (p *Prophet) Next(float64) (Message, bool) {
	u, i, ok := p.queue.PopIndexed()
	if !ok {
		return Message{}, false
	}
	if p.msgCache == nil {
		p.msgCache = make([]Message, len(p.plan.Units))
	}
	if p.msgCache[i].Pieces == nil {
		p.msgCache[i] = renderUnit(u)
	}
	return p.msgCache[i], true
}

// renderUnit builds the wire Message for one plan unit. Callers must treat
// the result (in particular Pieces) as immutable: it is cached and re-used
// on every subsequent iteration.
func renderUnit(u core.Unit) Message {
	msg := Message{Bytes: u.Bytes, Stall: DefaultProphetEngineCost}
	msg.Pieces = make([]Piece, 0, len(u.Spans))
	for _, s := range u.Spans {
		msg.Pieces = append(msg.Pieces, Piece{Grad: s.Grad, Bytes: s.Bytes, Last: s.Last})
	}
	lo, hi := u.GradRange()
	if u.Phase == core.Backward {
		msg.Label = fmt.Sprintf("block[g%d..g%d]", lo, hi)
	} else {
		msg.Label = fmt.Sprintf("fwd[g%d]", lo)
	}
	return msg
}

// OnSent implements Scheduler.
func (p *Prophet) OnSent(Message, float64, float64) {}

// OnIterationEnd implements Scheduler.
func (p *Prophet) OnIterationEnd(float64) {}
