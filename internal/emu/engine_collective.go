package emu

import (
	"fmt"
	"sync"
	"time"

	"prophet/internal/collective"
	"prophet/internal/nn"
	"prophet/internal/probe"
	"prophet/internal/transport"
)

// planBoard distributes the deciding worker's per-iteration send plans to
// the followers. Collective ops are synchronous and order-sensitive, so
// every worker must execute the identical decision sequence — the live
// analogue of the simulator's single worker-0 timeline (cluster.Run on a
// collective transport drives one driver for the whole ring). Plans are retained for the run:
// memory is O(iterations × sends), trivial next to the gradients.
type planBoard struct {
	mu    sync.Mutex
	cond  *sync.Cond
	plans [][]wireSend
	ready []bool
	err   error
}

func newPlanBoard(iterations int) *planBoard {
	b := &planBoard{
		plans: make([][]wireSend, iterations),
		ready: make([]bool, iterations),
	}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// publish stores iteration iter's plan. It is copied whole, the tensors
// lists included: the deciding worker's collector reuses both across
// iterations.
func (b *planBoard) publish(iter int, sends []wireSend) {
	plan := make([]wireSend, len(sends))
	n := 0
	for _, snd := range sends {
		n += len(snd.tensors)
	}
	flat := make([]int, 0, n)
	for i, snd := range sends {
		from := len(flat)
		flat = append(flat, snd.tensors...)
		plan[i] = wireSend{lane: snd.lane, tensors: flat[from:len(flat):len(flat)]}
	}
	b.mu.Lock()
	b.plans[iter] = plan
	b.ready[iter] = true
	b.cond.Broadcast()
	b.mu.Unlock()
}

// plan blocks until iteration iter's plan is published or the board fails.
func (b *planBoard) plan(iter int) ([]wireSend, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for !b.ready[iter] {
		if b.err != nil {
			return nil, b.err
		}
		b.cond.Wait()
	}
	return b.plans[iter], nil
}

// fail wakes every follower waiting on a plan that will never arrive.
func (b *planBoard) fail(err error) {
	b.mu.Lock()
	if b.err == nil && err != nil {
		b.err = err
	}
	b.cond.Broadcast()
	b.mu.Unlock()
}

// collectiveEngine is the liveEngine over a collective.Fabric peer: the
// decided sends run as lockstep all-reduce ops carrying the full bytes of
// the tensors they complete, played as the backend's chunk schedule on the
// shared wire. The unit on the wire is a *group* of back-to-back sends, not
// a send: a step costs every peer one hand-off however few bytes it moves,
// so consecutive small sends share one fused op (collective.AllReduceFused)
// up to the frame size the wire reads in one go — see fits, the one
// grouping rule. Groups are cut from the published plan and the tensor
// sizes alone, so every worker cuts the same ones; the decision Records are
// the scheduler's and do not see them. The op completes on every worker
// simultaneously with the aggregated (mean) gradient in place — there is no
// pull leg, so PullAcked fires at the op's completion timestamp and the
// attribution Ack component is exactly zero, matching the simulator's
// collective invariant.
//
// The engine runs a single lane (the ring is itself a barrier; the
// simulator models it as one serial link). Worker 0 decides; every other
// worker executes its plan from the run's planBoard.
type collectiveEngine struct {
	peer    *collective.Peer
	workers int
	name    string // the transport's, for error attribution
	// opBound bounds each op the way the pull timeout bounds each pull: past
	// it, abort tears the run down (0 = unbounded, and no timer is armed).
	opBound time.Duration
	abort   func(error)

	pp pushParams

	// m is the worker's model: every op reduces its gradients in place.
	// acked[t] is the wall-clock completion of the op that reduced tensor t
	// this iteration, zero until then.
	m      *nn.MLP
	acked  []time.Time
	ranges []probe.Range // reused scratch; observers copy
	// Scratch reused across ops: the open group's tensors in plan order, and
	// their gradients.
	group   []int
	members [][]float64
}

// Bind implements liveEngine.
func (e *collectiveEngine) Bind(m *nn.MLP, pp pushParams) {
	e.m = m
	e.pp = pp
	e.acked = make([]time.Time, len(pp.sizes))
}

// fits reports whether a fused op over elems float64s still ships each step
// as a frame the wire takes in one read: the per-peer share of the bytes —
// the ring's chunk, the tree's smallest — plus the frame header, within the
// mux read buffer. Priority order on the wire is therefore kept to within
// one read buffer per peer.
func (e *collectiveEngine) fits(elems int) bool {
	return 8*elems/e.workers+transport.MuxHeaderSize <= transport.MuxReadBuffer
}

// Dispatch implements liveEngine: it walks the plan in order, letting each
// send join the open group while the group still fits, and runs every group
// as one fused all-reduce over its tensors. A send that does not fit alone
// is a group of one. Sends that complete nothing (partial credit slices
// mid-tensor) move no wire bytes — the live protocol ships whole tensors
// with their completing piece, on every transport — and are skipped
// identically by all workers.
func (e *collectiveEngine) Dispatch(iter int, sends []wireSend) error {
	group, first, elems := e.group[:0], 0, 0 // the open group, its first plan index and size
	for seq, snd := range sends {
		n := 0
		for _, t := range snd.tensors {
			n += len(e.m.GradData(t))
		}
		if len(group) > 0 && !e.fits(elems+n) {
			if err := e.reduce(iter, first, group); err != nil {
				return err
			}
			group, elems = group[:0], 0
		}
		if len(group) == 0 {
			first = seq
		}
		group = append(group, snd.tensors...)
		elems += n
	}
	e.group = group[:0] // keep the grown scratch
	if len(group) == 0 {
		return nil
	}
	return e.reduce(iter, first, group)
}

// reduce runs one group as one fused op over the tensors' gradients, in
// place, and one wire send at plan index seq: a span with a range per tensor
// and one never-hang timer.
func (e *collectiveEngine) reduce(iter, seq int, tensors []int) error {
	pp := &e.pp
	e.members = e.members[:0]
	for _, t := range tensors {
		e.members = append(e.members, e.m.GradData(t))
	}
	e.ranges = pp.sendStart(e.ranges, 0, seq, iter, tensors)
	var bound *time.Timer
	if e.opBound > 0 {
		bound = e.armBound(iter, tensors)
	}
	err := e.peer.AllReduceFused(iter, e.members, nil)
	if bound != nil {
		bound.Stop()
	}
	if err != nil {
		return fmt.Errorf("%s all-reduce %v: %w", e.name, tensors, err)
	}
	ackWall := time.Now()
	done := pp.clock()
	if pp.obs != nil {
		pp.obs.SendComplete(pp.worker, 0, iter, done)
	}
	for _, t := range tensors {
		e.acked[t] = ackWall
		if pp.obs != nil {
			// Same timestamp as the op's completion: the reduced value
			// is on the worker the moment the collective finishes, so
			// Ack = Acked − End is exactly zero (the simulator's
			// collectiveTx invariant).
			pp.obs.PullAcked(pp.worker, t, iter, done)
		}
	}
	return nil
}

// armBound starts the never-hang timer for one op. A lockstep op that
// outlives it is wedged — a chunk the wire lost or misrouted never arrives
// and no peer can make progress — so the whole run aborts, attributed.
func (e *collectiveEngine) armBound(iter int, tensors []int) *time.Timer {
	tensors = append([]int(nil), tensors...) // the timer may outlive the group scratch
	return time.AfterFunc(e.opBound, func() {
		e.abort(fmt.Errorf("emu: transport %s: worker %d iter %d all-reduce %v timed out after %v",
			e.name, e.pp.worker, iter, tensors, e.opBound))
	})
}

// Await implements liveEngine: collective ops complete inside Dispatch, so
// the aggregated gradient is already in place.
func (e *collectiveEngine) Await(iter, idx int, timeout time.Duration) (time.Time, error) {
	acked := e.acked[idx]
	if acked.IsZero() {
		return time.Time{}, fmt.Errorf("collective: tensor %d was not reduced in iteration %d", idx, iter)
	}
	e.acked[idx] = time.Time{}
	return acked, nil
}
