// Package drive is the transport-agnostic scheduler-driving state machine
// shared by both execution paths: the discrete-event cluster simulator
// (virtual clock, netsim links) and the live emulation (wall clock, real
// parameter-server connections).
//
// A Driver owns everything between a schedule.Scheduler and the wire:
//
//   - the per-iteration push bookkeeping (BeginIteration resets per-gradient
//     byte offsets, OnGenerated reports releases, OnIterationEnd feeds the
//     auto-tuners);
//   - the fetch gate: a new message is pulled from the scheduler only when
//     every sub-message of the previously fetched ones has started its
//     transfer and at least one lane is free — the cross-shard priority
//     invariant (no lane starts a lower-priority message while a
//     higher-priority one has unscheduled bytes);
//   - shard splitting: each scheduler message is sliced by the key→lane map
//     into per-lane sub-messages with per-gradient byte ranges assigned in
//     scheduler emission order. The sub-messages' pieces are copies the
//     driver owns, so a scheduler gets its pieces back at OnSent.
//
// The transport provides only a Transmitter: lane busy-state plus a Start
// hook that puts one Send on the wire and later reports Completed. The
// cluster's Transmitter schedules netsim transfers; the emulation's replays
// decisions instantly and executes them on live connections afterwards.
//
// Containers — groups, piece and range slices, the Send handed to Start —
// cycle through free lists, so a Driver allocates nothing in the steady state
// (the cluster's hot loop and the emulation's decision replay depend on
// this).
package drive

import (
	"math"

	"prophet/internal/probe"
	"prophet/internal/schedule"
)

// Range is one gradient byte range [Off, Off+Bytes) carried by a send.
// Offsets are cumulative across the iteration's sends, assigned in
// scheduler emission order. It is an alias of probe.Range so the driver
// hands its per-send ranges to an Observer without conversion or copy.
type Range = probe.Range

// Send is one per-lane sub-message ready for transmission. The Send itself
// is valid only for the duration of Transmitter.Start, but Msg.Pieces and
// Ranges are the driver's own slices and stay valid until the driver next
// dispatches on the same lane (a lane has one send in flight), when they are
// recycled: a transport may read them until it reports the send Completed
// and its own completion bookkeeping is done, and must copy what it keeps
// longer. A race build poisons them on release, so a read past that point
// shows in its tests.
type Send struct {
	// Lane is the transmitter lane (PS shard) the sub-message ships on.
	Lane int
	// Seq numbers scheduler messages in fetch order, monotonic across
	// iterations (trace tags and the cross-shard invariant test).
	Seq int
	// Iter is the iteration whose gradients the message carries.
	Iter int
	// Prio is the parent message's priority (schedule.Message.Priority).
	Prio int
	// Msg is this lane's slice of the scheduler's message (the whole
	// message when the driver runs a single lane), its Pieces copied into
	// a driver-owned slice.
	Msg schedule.Message
	// Ranges gives the per-gradient byte offsets of Msg's pieces.
	Ranges []Range

	group *group
}

// Transmitter is the transport a Driver dispatches onto: one serial lane
// per PS shard. Start puts s on lane s.Lane (the driver only calls it when
// Busy(s.Lane) is false); the transport reports the transfer's end by
// calling Driver.Completed(lane, now) — synchronously from inside Start is
// allowed (the emulation's decision replay completes instantly), as is any
// later event (the simulator's link-done callback).
type Transmitter interface {
	// Busy reports whether the lane has a transfer in flight.
	Busy(lane int) bool
	// Start begins transmitting s on s.Lane.
	Start(s *Send)
}

// Record is one scheduler decision, logged in fetch order when recording is
// enabled: the cross-path mirror test asserts both executors produce the
// identical sequence.
type Record struct {
	Iter  int
	Label string
	Prio  int
	// Completes lists the gradients the message finishes (Last pieces).
	Completes []int
	// Planned is the message's predicted wire window across its sub-sends
	// ([earliest predicted start, latest predicted end]). It stays zero
	// unless a CostModel is attached (SetCostModel), so recorded decision
	// sequences remain comparable across paths that don't predict.
	Planned Window
}

// group tracks one scheduler message across its per-lane sub-sends.
type group struct {
	msg        schedule.Message
	iter       int
	seq        int
	total      int // sub-messages
	started    int
	done       int
	firstStart float64
}

// lane is the driver's state for one transmitter lane.
type lane struct {
	// queue holds the lane's not-yet-started sub-messages, in scheduler
	// emission order; head indexes the next one to dispatch. Popping by
	// head (instead of re-slicing) keeps the backing array's capacity, so a
	// drained queue is reset and reused without reallocating. All queues
	// empty ⟺ every fetched message's bytes are scheduled, which is the
	// fetch gate for the next message.
	queue []Send
	head  int
	// inflight is the group of the send on the wire.
	inflight *group
	// split collects the lane's pieces of the message being enqueued.
	split schedule.Message
	// pieces and ranges belong to the lane's last dispatched send, held
	// until the lane dispatches again (see Send).
	pieces []schedule.Piece
	ranges []Range
	// planFree is the lane's predicted free time (see Driver.cost).
	planFree float64
}

// Driver runs one worker's scheduler against a Transmitter.
type Driver struct {
	sched   schedule.Scheduler
	tx      Transmitter
	shardOf func(int) int

	iter int
	seq  int
	// offsets is the cumulative bytes handed to the lanes per gradient
	// this iteration.
	offsets []float64
	lanes   []lane

	// Free lists: containers keep their grown capacity across reuse, so
	// the steady state allocates nothing.
	gFree []*group
	pFree [][]schedule.Piece
	rFree [][]Range
	// scratch is the Send handed to Transmitter.Start: passing a pointer
	// into an interface method would heap-allocate a fresh Send per
	// dispatch, so dispatch copies into this reusable slot instead (the
	// driver is single-threaded and Send is documented as valid only
	// during Start).
	scratch Send

	recording bool
	records   []Record

	// obs, when non-nil, receives the drive-layer probe events. Every
	// emission site is guarded by exactly one nil check and constructs
	// nothing before it — see the probe package's cost contract.
	obs    probe.Observer
	worker int

	// cost, when non-nil, predicts each sub-send's wire window at enqueue
	// time (the prediction-audit input). A lane's planFree is its predicted
	// free time: per-lane queues are FIFO and a freed lane dispatches its
	// next queued sub immediately, so chaining predictions off the previous
	// predicted end mirrors the dispatch timeline exactly when the model is
	// exact. planObs is obs's optional PlanObserver face, resolved once in
	// SetObserver.
	cost    *CostModel
	planObs probe.PlanObserver
}

// New builds a Driver for one worker: sched decides the order, tx moves the
// bytes across `lanes` serial lanes, shardOf maps a gradient key to its lane
// (ignored when lanes is 1), and nGrads sizes the per-gradient bookkeeping.
func New(sched schedule.Scheduler, tx Transmitter, lanes, nGrads int, shardOf func(int) int) *Driver {
	return &Driver{
		sched:   sched,
		tx:      tx,
		shardOf: shardOf,
		offsets: make([]float64, nGrads),
		lanes:   make([]lane, lanes),
	}
}

// Scheduler returns the strategy instance the driver runs.
func (d *Driver) Scheduler() schedule.Scheduler { return d.sched }

// SetRecording enables the per-decision Record log.
func (d *Driver) SetRecording(on bool) { d.recording = on }

// SetObserver attaches a probe Observer to the driver's emission sites,
// tagging every event with the given worker id. Passing nil detaches it.
// Observation is passive: it never changes what the driver dispatches.
func (d *Driver) SetObserver(worker int, obs probe.Observer) {
	d.worker = worker
	d.obs = obs
	d.planObs, _ = obs.(probe.PlanObserver)
}

// SetCostModel attaches the wire-time predictor: every subsequently
// enqueued sub-message gets a planned window stamped on its decision Record
// and emitted as a SendPlanned probe event (when the observer implements
// probe.PlanObserver). Passing nil detaches it. Prediction is passive — it
// never changes what the driver dispatches — and costs nothing when
// detached (one nil check per enqueue).
func (d *Driver) SetCostModel(cost *CostModel) { d.cost = cost }

// Records returns the decision log accumulated so far (fetch order).
func (d *Driver) Records() []Record { return d.records }

// BeginIteration resets the per-iteration push state and tells the
// scheduler a new iteration of pushes begins. The caller guarantees all
// queues are empty (the BSP barrier: forward propagation completes only
// once every gradient of the previous iteration was pushed).
func (d *Driver) BeginIteration(iter int) {
	d.iter = iter
	for i := range d.offsets {
		d.offsets[i] = 0
	}
	// The barrier guarantees every previous send completed, so lane
	// predictions re-anchor on real time each iteration instead of
	// compounding drift across the run.
	for s := range d.lanes {
		d.lanes[s].planFree = 0
	}
	d.sched.BeginIteration(iter)
}

// Generate reports that gradient g was released by the aggregation layer at
// time now. Call Pump afterwards to put newly eligible messages on the wire
// (a burst of releases needs only one Pump).
func (d *Driver) Generate(g int, now float64) {
	d.sched.OnGenerated(g, now)
	if d.obs != nil {
		d.obs.Generated(d.worker, g, now)
	}
}

// EndIteration reports the completed iteration's duration to the scheduler
// (auto-tuner feedback).
func (d *Driver) EndIteration(dur float64) {
	d.sched.OnIterationEnd(dur)
}

// Offset returns the bytes handed to the lanes for gradient g this
// iteration (diagnostics).
func (d *Driver) Offset(g int) float64 { return d.offsets[g] }

// Iteration returns the communication epoch: the iteration whose gradients
// the driver is currently pushing (the last BeginIteration argument).
// In-flight communication belongs to this epoch even after the caller's
// compute counter has advanced — pushes of iteration k keep draining during
// forward propagation of k+1.
func (d *Driver) Iteration() int { return d.iter }

// Pump keeps the lanes busy while the scheduler has eligible work: queued
// sub-messages are dispatched on free lanes, and a new message is fetched
// from the scheduler only when every sub-message of the previously fetched
// ones has started (the cross-shard priority gate). With one lane this
// reduces exactly to the single-link behaviour: fetch when the link frees,
// send, repeat.
func (d *Driver) Pump(now float64) {
	for {
		for s := range d.lanes {
			// A transport that completes sends synchronously (the
			// emulation's decision replay) frees the lane inside Start, so
			// keep draining the lane's queue while it stays free.
			for !d.tx.Busy(s) && len(d.lanes[s].queue) > d.lanes[s].head {
				d.dispatch(s, now)
			}
		}
		if !d.queuesEmpty() || !d.anyLaneFree() {
			return
		}
		msg, ok := d.sched.Next(now)
		if !ok {
			return
		}
		d.enqueue(msg, now)
	}
}

// Completed reports that lane's in-flight send finished at time now. When
// it was the parent message's last outstanding sub-send, the scheduler's
// OnSent fires before Completed returns. The caller is responsible for
// pumping afterwards (after its own completion bookkeeping). Returns the
// iteration the send carried.
func (d *Driver) Completed(lane int, now float64) (iter int) {
	g := d.lanes[lane].inflight
	d.lanes[lane].inflight = nil
	g.done++
	iter = g.iter
	if g.done == g.total {
		d.sched.OnSent(g.msg, g.firstStart, now)
		d.recycleGroup(g)
	}
	if d.obs != nil {
		d.obs.SendComplete(d.worker, lane, iter, now)
	}
	return iter
}

// enqueue splits a scheduler message by the key→lane map and queues each
// sub-message on its lane. Every sub-message carries a driver-owned copy of
// its pieces, so the scheduler's own slice is free again once OnSent hands
// it back. Byte offsets are assigned here, in scheduler emission order, so
// a gradient's ranges land in order regardless of when each lane frees (a
// key lives on exactly one lane, and per-lane queues are FIFO).
func (d *Driver) enqueue(msg schedule.Message, now float64) {
	g := d.newGroup()
	g.msg, g.iter, g.seq = msg, d.iter, d.seq
	d.seq++
	if d.recording {
		d.records = append(d.records, Record{
			Iter:      d.iter,
			Label:     msg.Label,
			Prio:      msg.Priority(),
			Completes: msg.Completes(),
		})
	}
	// A key lives on exactly one lane, so every piece lands whole in one
	// sub-message, in emission order; a lane that gets no piece sends
	// nothing. Each sub-message pays the per-message overhead and the
	// dispatch Stall itself: it is a real message on its lane's link.
	n := len(msg.Pieces)
	if len(d.lanes) == 1 {
		// One lane: the message ships whole, at its own size.
		if n > 0 {
			d.lanes[0].split = schedule.Message{Pieces: append(d.newPieces(n), msg.Pieces...), Bytes: msg.Bytes}
		}
	} else {
		for _, pc := range msg.Pieces {
			sub := &d.lanes[d.shardOf(pc.Grad)].split
			if sub.Pieces == nil {
				sub.Pieces = d.newPieces(n)
			}
			sub.Pieces = append(sub.Pieces, pc)
			sub.Bytes += pc.Bytes
		}
	}
	prio := msg.Priority()
	var planned Window
	for s := range d.lanes {
		ln := &d.lanes[s]
		sub := ln.split
		ln.split = schedule.Message{}
		if sub.Pieces == nil {
			continue
		}
		sub.Label, sub.Stall = msg.Label, msg.Stall
		ranges := d.newRanges(len(sub.Pieces))
		for _, pc := range sub.Pieces {
			ranges = append(ranges, Range{
				Grad:  pc.Grad,
				Off:   d.offsets[pc.Grad],
				Bytes: pc.Bytes,
				Last:  pc.Last,
			})
			d.offsets[pc.Grad] += pc.Bytes
		}
		g.total++
		if d.cost != nil {
			// Predicted dispatch: now if the lane is (predicted) free,
			// else chained behind the lane's predicted in-flight work.
			start := now
			if ln.planFree > start {
				start = ln.planFree
			}
			end := start + d.cost.MessageTime(s, sub.Bytes, sub.Stall)
			ln.planFree = end
			if planned.IsZero() || start < planned.Start {
				planned.Start = start
			}
			if end > planned.End {
				planned.End = end
			}
			if d.planObs != nil {
				d.planObs.SendPlanned(d.worker, s, g.seq, g.iter, sub.Bytes, start, end)
			}
		}
		ln.queue = append(ln.queue, Send{
			Lane: s, Seq: g.seq, Iter: g.iter, Prio: prio,
			Msg: sub, Ranges: ranges, group: g,
		})
	}
	if d.recording && d.cost != nil {
		d.records[len(d.records)-1].Planned = planned
	}
}

// dispatch starts lane s's next queued sub-message on the transmitter.
func (d *Driver) dispatch(s int, now float64) {
	ln := &d.lanes[s]
	item := ln.queue[ln.head]
	ln.head++
	if ln.head == len(ln.queue) {
		// Drained: rewind onto the same backing array.
		ln.queue = ln.queue[:0]
		ln.head = 0
	}
	g := item.group
	if g.started == 0 {
		g.firstStart = now
	}
	g.started++
	ln.inflight = g
	if d.obs != nil {
		// Emit before Start: a transport that completes synchronously
		// (the emulation's decision replay) reports SendComplete from
		// inside Start, and per-lane start/complete must stay ordered.
		d.obs.SendStart(d.worker, item.Lane, item.Seq, item.Iter,
			item.Msg.Label, item.Msg.Bytes, item.Ranges, now)
	}
	// The lane is free, so its previous send is done with the driver's
	// slices: recycle them and hold this send's until the next dispatch.
	d.recyclePieces(ln.pieces)
	d.recycleRanges(ln.ranges)
	ln.pieces, ln.ranges = item.Msg.Pieces, item.Ranges
	d.scratch = item
	d.tx.Start(&d.scratch)
}

func (d *Driver) queuesEmpty() bool {
	for s := range d.lanes {
		if len(d.lanes[s].queue) > d.lanes[s].head {
			return false
		}
	}
	return true
}

func (d *Driver) anyLaneFree() bool {
	for s := range d.lanes {
		if !d.tx.Busy(s) {
			return true
		}
	}
	return false
}

func (d *Driver) newGroup() *group {
	if n := len(d.gFree); n > 0 {
		g := d.gFree[n-1]
		d.gFree = d.gFree[:n-1]
		*g = group{}
		return g
	}
	return &group{}
}

func (d *Driver) recycleGroup(g *group) { d.gFree = append(d.gFree, g) }

// newPieces and newRanges return an empty pooled slice, or a new one with
// room for n elements and for one per gradient, so that a pooled slice
// seldom has to grow and a fresh driver warms up in a few allocations.
func (d *Driver) newPieces(n int) []schedule.Piece {
	if k := len(d.pFree); k > 0 {
		p := d.pFree[k-1]
		d.pFree = d.pFree[:k-1]
		return p[:0]
	}
	return make([]schedule.Piece, 0, max(n, len(d.offsets)))
}

// poisonGrad is the gradient index a race build writes into released pieces
// and ranges, beside NaN bytes: −2^40 on 64-bit platforms (−2^8 on 32-bit
// ones), which no live entry holds and which panics as an index.
const poisonGrad = math.MinInt >> 23

func (d *Driver) recyclePieces(p []schedule.Piece) {
	if poison {
		for i := range p {
			p[i] = schedule.Piece{Grad: poisonGrad, Bytes: math.NaN()}
		}
	}
	if cap(p) > 0 {
		d.pFree = append(d.pFree, p)
	}
}

func (d *Driver) newRanges(n int) []Range {
	if k := len(d.rFree); k > 0 {
		r := d.rFree[k-1]
		d.rFree = d.rFree[:k-1]
		return r[:0]
	}
	return make([]Range, 0, max(n, len(d.offsets)))
}

func (d *Driver) recycleRanges(r []Range) {
	if poison {
		for i := range r {
			r[i] = Range{Grad: poisonGrad, Off: math.NaN(), Bytes: math.NaN()}
		}
	}
	if cap(r) > 0 {
		d.rFree = append(d.rFree, r)
	}
}
