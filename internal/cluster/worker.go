package cluster

import (
	"fmt"
	"math"
	"slices"

	"prophet/internal/drive"
	"prophet/internal/metrics"
	"prophet/internal/netsim"
	"prophet/internal/probe"
	"prophet/internal/schedule"
	"prophet/internal/shard"
	"prophet/internal/sim"
)

// phase is the worker GPU's current activity.
type phase int

const (
	phaseForward phase = iota
	phaseBackward
	phaseDone
)

func (p phase) String() string {
	switch p {
	case phaseForward:
		return "forward"
	case phaseBackward:
		return "backward"
	case phaseDone:
		return "done"
	default:
		return fmt.Sprintf("phase(%d)", int(p))
	}
}

// worker simulates one training node: a GPU executing forward/backward
// segments and, behind the drive.Transmitter it hands its drive.Driver, one
// of two wires. The GPU/iteration loop (startIteration … finishIteration)
// is the same on both; only what moves the bytes differs.
//
// The scheduler-driving state machine — fetch gate, shard splitting,
// per-iteration byte offsets — lives in the shared drive.Driver.
//
// The PS wire is the worker itself: it maps each drive.Send onto a netsim
// uplink transfer (one uplink per PS shard) and mirrors pushed bytes back
// as pull messages on one downlink per shard. With a single shard the
// worker behaves exactly as the paper's testbed: one serial uplink, one
// serial downlink. With PSShards > 1 the scheduler still emits one message
// at a time in its global priority order; each message is split by the
// key→shard map into per-shard sub-messages that ship in parallel on their
// shard links, and the next message is fetched only once every sub-message
// of the current one has started its transfer. That is the cross-shard
// priority invariant: no shard starts a lower-priority message while a
// higher-priority one has unscheduled bytes.
//
// The collective wire is a collectiveTx (collective.go): the ring is itself
// a barrier, so one worker's timeline with one serial link (up[0]) is the
// whole system, and none of the pull-leg state below is allocated.
type worker struct {
	id   int
	eng  *sim.Engine
	cfg  *Config
	ps   *paramServer
	smap *shard.Map
	rng  *sim.Rand

	sched    schedule.Scheduler
	drv      *drive.Driver
	up, down []*netsim.Link
	// obs mirrors Config.Observer; nil in every unobserved run, so each
	// emission costs one predictable branch (the probe cost contract).
	obs probe.Observer

	gpu       metrics.IntervalSeries
	iterLog   metrics.IterationLog
	iterStart float64

	iter      int
	phase     phase
	computing bool
	fwdSeg    int
	bwdSeg    int
	// halted marks a crash-stop fault having fired (Config.Faults).
	halted bool
	// sends counts the sends started on the wire (Result.Sends).
	sends int

	// releaseAt[i] lists gradients released when backward segment i
	// completes (i is the lowest index of its aggregation bucket).
	releaseAt [][]int

	// Per-iteration communication state.
	pulledBytes []float64
	pulled      []bool

	pullQ   [][]*pullMsg // per shard
	pullSeq int

	// Zero-alloc machinery for the steady-state loop: completion callbacks
	// are bound once (a link carries one message at a time, so per-shard
	// in-flight state lives in slots, not closures), and message/piece
	// containers cycle through free lists instead of the heap.
	fwdDoneFn    func()
	bwdDoneFn    func()
	upDoneFn     []func() // per shard
	downDoneFn   []func() // per shard
	upInflight   []upSend // per shard
	downInflight []*pullMsg
	pmFree       []*pullMsg
	pullsFree    [][]*pullMsg
	pullTags     []string // "pull[gN]" labels, built on first use
}

// upSend is the in-flight uplink state of one shard.
type upSend struct {
	sub   schedule.Message
	pulls []*pullMsg
}

// pullMsg mirrors one completed push message back to the worker.
type pullMsg struct {
	seq    int
	iter   int
	prio   int
	bytes  float64
	stall  float64 // engine dispatch cost per response message
	pieces []pullPiece
	// covFrom is the first piece paramServer.covered has not yet found
	// covered in the round of generation covGen (0: none scanned).
	covFrom int
	covGen  uint64
}

// pullPiece is one gradient slice with its byte range [off, off+bytes).
type pullPiece struct {
	grad       int
	off, bytes float64
	last       bool
}

func newWorker(id int, eng *sim.Engine, cfg *Config, ps *paramServer, smap *shard.Map) *worker {
	n := cfg.Model.NumGradients()
	collective := ps == nil
	lanes, salt := 1, collectiveJitterSalt
	if !collective {
		lanes, salt = smap.Shards(), uint64(id)*7919+1
	}
	w := &worker{
		id:          id,
		eng:         eng,
		cfg:         cfg,
		ps:          ps,
		smap:        smap,
		rng:         sim.NewRand(cfg.Seed*1_000_003 + salt),
		up:          make([]*netsim.Link, lanes),
		pulledBytes: make([]float64, n),
		pulled:      make([]bool, n),
		releaseAt:   make([][]int, n),
	}
	w.iterLog.Grow(cfg.Iterations)
	// One GPU interval per forward and per backward segment of every
	// iteration.
	w.gpu.Grow(2 * n * cfg.Iterations)
	w.fwdDoneFn = w.onFwdSegDone
	w.bwdDoneFn = w.onBwdSegDone
	for _, grp := range cfg.Agg.Groups {
		low := grp[0] // groups are ascending; lowest index computes last
		w.releaseAt[low] = append([]int(nil), grp...)
		if collective {
			slices.Reverse(w.releaseAt[low]) // see collectiveJitterSalt
		}
	}
	for s := range w.up {
		w.up[s] = netsim.NewLink(eng, cfg.ShardUplink(id, s))
		w.up[s].SetRecording(cfg.RecordLinks)
	}
	// The scheduler's bandwidth monitor attaches to shard 0's uplink: all
	// shard links of a worker share one configuration in every supported
	// setup, so shard 0 is representative.
	w.sched = cfg.Scheduler(id, eng, w.up[0])
	if collective {
		w.wireCollective()
	} else {
		w.wirePS()
	}
	if _, ok := cfg.Observer.(probe.PlanObserver); ok {
		w.predict()
	}
	if cfg.RecordMessages && id == 0 {
		w.drv.SetRecording(true)
	}
	if cfg.Observer != nil {
		w.obs = cfg.Observer
		w.drv.SetObserver(id, cfg.Observer)
	}
	return w
}

// wirePS allocates the pull leg — one downlink per shard, the pull queues
// and the per-shard in-flight slots — and puts the worker itself behind the
// driver as its Transmitter.
func (w *worker) wirePS() {
	shards := len(w.up)
	w.down = make([]*netsim.Link, shards)
	w.pullQ = make([][]*pullMsg, shards)
	w.upInflight = make([]upSend, shards)
	w.downInflight = make([]*pullMsg, shards)
	w.pullTags = make([]string, len(w.pulled))
	w.upDoneFn = make([]func(), shards)
	w.downDoneFn = make([]func(), shards)
	for s := 0; s < shards; s++ {
		s := s
		w.upDoneFn[s] = func() { w.onUpDone(s) }
		w.downDoneFn[s] = func() { w.onDownDone(s) }
		w.down[s] = netsim.NewLink(w.eng, w.cfg.ShardUplink(w.id, s))
		w.down[s].SetRecording(w.cfg.RecordLinks)
	}
	w.drv = drive.New(w.sched, w, shards, len(w.pulled), w.smap.Of)
}

// predict attaches the wire's cost model to the driver when the observer
// listens for plans (see Config.Observer): the perfect-monitor predictor,
// the netsim wire arithmetic over the transport's chunk schedule with
// bandwidth read from the lane's ground-truth trace at decision time. Shard
// 0's setup and ramp are representative (all shard links of a worker share
// one configuration), but bandwidth is read per lane so asymmetric traces
// still predict.
func (w *worker) predict() {
	lc := w.up[0].Config()
	w.drv.SetCostModel(drive.WireCost(w.cfg.backend, w.cfg.Workers, lc.SetupTime, lc.RampBytes,
		func(lane int) float64 { return w.up[lane].Config().Trace.At(w.eng.Now()) }))
}

// Busy implements drive.Transmitter: lane s is its shard uplink.
func (w *worker) Busy(s int) bool { return w.up[s].Busy() }

// Start implements drive.Transmitter: it puts one sub-message on its shard
// uplink, mirroring the pushed byte ranges into pull messages that are
// released once the transfer — and the PS aggregation it completes — lands.
func (w *worker) Start(s *drive.Send) {
	w.sends++
	pulls := w.mirrorPulls(s.Iter, s.Ranges, pullPartition)
	for _, pm := range pulls {
		pm.stall = s.Msg.Stall
	}
	tag := s.Msg.Label
	if len(w.up) > 1 {
		// Structured tag for multi-shard traces and the invariant test:
		// message fetch sequence, message priority, shard.
		tag = fmt.Sprintf("%s#m%d.p%d.s%d", s.Msg.Label, s.Seq, s.Prio, s.Lane)
	}
	w.upInflight[s.Lane] = upSend{sub: s.Msg, pulls: pulls}
	w.up[s.Lane].SendExtra(s.Msg.Bytes, s.Msg.Stall, tag, w.upDoneFn[s.Lane])
}

// startIteration begins the forward pass of the current iteration.
func (w *worker) startIteration() {
	if w.iter >= w.cfg.Iterations {
		w.phase = phaseDone
		return
	}
	if f := w.cfg.faultFor(w.id); f != nil && w.iter >= f.AtIteration {
		// Crash-stop: the GPU halts before computing this iteration.
		// Pushes already handed to the uplink (earlier iterations) keep
		// draining, matching a process crash after flushing its send
		// queue. Under FaultDrop the PS notices DetectDelay later and
		// renormalizes the barrier; under FaultFailFast the stall is
		// reported after the run drains.
		w.halted = true
		w.phase = phaseDone
		if w.obs != nil {
			w.obs.FaultInjected(w.id, "crash-stop", w.eng.Now())
		}
		if w.cfg.FaultPolicy == FaultDrop {
			w.eng.Schedule(f.DetectDelay, func() { w.ps.dropWorker(w.id) })
		}
		return
	}
	if w.obs != nil {
		w.obs.BeginIteration(w.id, w.iter, w.eng.Now())
	}
	w.phase = phaseForward
	w.fwdSeg = 0
	w.advanceForward()
}

// advanceForward runs forward segments in order, gated on the previous
// iteration's parameter pulls (Eq. 3). Iteration 0 uses the initial
// parameters, so it is never gated.
//
// A boundary at which the next segment is already pulled does nothing but
// start that segment, so the loop computes such a run of segments inline
// (segment k+1 starts at segment k's end) and schedules one event, at the
// end of the last segment or of the first one whose successor is not yet
// pulled. Within an iteration's forward pass pulled only goes false → true,
// so a segment found runnable now is still runnable at its start.
func (w *worker) advanceForward() {
	if w.phase != phaseForward || w.computing {
		return
	}
	n := w.cfg.Model.NumGradients()
	if w.fwdSeg >= n {
		w.startBackward()
		return
	}
	if w.iter > 0 && !w.pulled[w.fwdSeg] {
		return // GPU idles: T_wait accrues until the pull lands
	}
	w.computing = true
	t := w.eng.Now()
	for {
		seg := w.fwdSeg
		w.gpu.Start(t)
		end := t + w.rng.Jitter(w.cfg.Model.FwdTime(w.cfg.Hardware, w.cfg.Model.Grads[seg], w.cfg.Batch), w.cfg.Jitter)
		if seg+1 == n || (w.iter > 0 && !w.pulled[seg+1]) {
			w.eng.At(end, w.fwdDoneFn)
			return
		}
		w.gpu.Stop(end)
		w.fwdSeg++
		t = end
	}
}

// onFwdSegDone completes the forward run scheduled by advanceForward.
func (w *worker) onFwdSegDone() {
	w.gpu.Stop(w.eng.Now())
	w.computing = false
	w.fwdSeg++
	w.advanceForward()
}

// startBackward begins backward propagation: communication state resets,
// the driver is told a new iteration of pushes begins, and segments run
// back-to-front.
func (w *worker) startBackward() {
	w.phase = phaseBackward
	n := w.cfg.Model.NumGradients()
	w.bwdSeg = n - 1
	for i := 0; i < n; i++ {
		w.pulled[i] = false
		w.pulledBytes[i] = 0
	}
	// The driver's queues are necessarily empty here: forward propagation
	// only completes once every gradient of the previous iteration was
	// pushed, which requires every queued sub-message to have been
	// dispatched.
	for s := range w.pullQ {
		for _, pm := range w.pullQ[s] {
			w.recyclePullMsg(pm)
		}
		w.pullQ[s] = w.pullQ[s][:0]
	}
	w.drv.BeginIteration(w.iter)
	w.advanceBackward()
}

// advanceBackward runs backward segments back to front. Only a boundary
// that releases an aggregation bucket (or ends the pass) acts, so the loop
// computes the segments between two such boundaries inline and schedules
// one event, at the end of the releasing segment.
func (w *worker) advanceBackward() {
	if w.bwdSeg < 0 {
		w.finishIteration()
		return
	}
	w.computing = true
	t := w.eng.Now()
	for {
		seg := w.bwdSeg
		w.gpu.Start(t)
		end := t + w.rng.Jitter(w.cfg.Model.BwdTime(w.cfg.Hardware, w.cfg.Model.Grads[seg], w.cfg.Batch), w.cfg.Jitter)
		if w.releaseAt[seg] != nil || seg == 0 {
			w.eng.At(end, w.bwdDoneFn)
			return
		}
		w.gpu.Stop(end)
		w.bwdSeg--
		t = end
	}
}

// onBwdSegDone completes the backward run scheduled by advanceBackward.
// w.bwdSeg is stable between schedule and fire — only the backward loop
// moves it, and at most one backward compute event is ever in flight.
func (w *worker) onBwdSegDone() {
	seg := w.bwdSeg
	w.gpu.Stop(w.eng.Now())
	w.computing = false
	// The aggregation layer releases seg's bucket if seg is its
	// lowest-index member (the last to compute).
	if rel := w.releaseAt[seg]; rel != nil {
		now := w.eng.Now()
		for _, g := range rel {
			w.drv.Generate(g, now)
		}
		w.drv.Pump(now)
	}
	w.bwdSeg--
	w.advanceBackward()
}

func (w *worker) finishIteration() {
	now := w.eng.Now()
	w.iterLog.Add(w.iterStart, now)
	w.drv.EndIteration(now - w.iterStart)
	if w.obs != nil {
		w.obs.EndIteration(w.id, w.iter, now)
	}
	w.iterStart = now
	w.iter++
	w.startIteration()
}

// onUpDone completes shard s's in-flight uplink sub-message.
func (w *worker) onUpDone(s int) {
	in := w.upInflight[s]
	w.upInflight[s] = upSend{}
	iter := w.drv.Completed(s, w.eng.Now()) // fires OnSent on the group's last sub-send
	w.pullQ[s] = append(w.pullQ[s], in.pulls...)
	w.recyclePulls(in.pulls)
	// OnSent has handed the scheduler its pieces back; in.sub's are the
	// driver's copy, valid until the Pump below dispatches on lane s.
	w.ps.onPush(w.id, iter, in.sub) // may unlock pulls on every worker
	w.drv.Pump(w.eng.Now())
}

// pullPartition bounds the size of a pull (parameter response) message,
// in bytes: a larger push mirrors back as several pulls, each unlocking
// its gradients as it lands. A collective transport has no pull leg.
const pullPartition = 6e6

// mirrorPulls converts a push (sub-)message's byte ranges into one or more
// pull messages, each at most lim (> 0) bytes: BytePS serves parameter
// responses per partition regardless of how pushes were batched, so a
// large pushed block pipelines back to the worker in partition-sized
// responses that unlock forward segments as they land. Pulls are served on
// the shard link the pieces were pushed through.
func (w *worker) mirrorPulls(iter int, ranges []drive.Range, lim float64) []*pullMsg {
	var total float64
	for _, rg := range ranges {
		total += rg.Bytes
	}
	chunks := max(1, int(total/lim+0.5))
	// Equal-sized chunks avoid tiny remainder messages that would pay a
	// full per-message overhead for a sliver of payload.
	target := total / float64(chunks)
	// A pull holds at most every range plus the tail of one split before
	// them, so no append below outgrows a node.
	room := len(ranges) + 1
	pulls := w.newPulls()
	cur := w.newPullMsg(iter, room)
	flush := func() {
		if len(cur.pieces) > 0 {
			pulls = append(pulls, cur)
		} else {
			// Dropped, exactly as before pooling — the seq it consumed
			// stays consumed, so pull ordering is bit-identical.
			w.recyclePullMsg(cur)
		}
		cur = w.newPullMsg(iter, room)
	}
	add := func(pc pullPiece) {
		cur.pieces = append(cur.pieces, pc)
		cur.bytes += pc.bytes
		if pc.grad < cur.prio {
			cur.prio = pc.grad
		}
		if len(pulls) < chunks-1 && cur.bytes >= target-1 {
			flush()
		}
	}
	for _, rg := range ranges {
		pc := pullPiece{grad: rg.Grad, off: rg.Off, bytes: rg.Bytes, last: rg.Last}
		for len(pulls) < chunks-1 && cur.bytes+pc.bytes > target {
			room := target - cur.bytes
			if room > 0 {
				head := pullPiece{grad: pc.grad, off: pc.off, bytes: room}
				pc.off += room
				pc.bytes -= room
				add(head)
			} else {
				flush()
			}
		}
		if pc.bytes > 0 {
			add(pc)
		}
	}
	flush()
	w.recyclePullMsg(cur) // the trailing empty node flush left behind
	return pulls
}

// Free-list helpers. Containers keep their grown capacity across reuse, so
// the steady state allocates nothing.

// newPullMsg returns a reset pull node with room for `pieces` pieces, grown
// in one step rather than by the 1→2→4… append chain.
func (w *worker) newPullMsg(iter, pieces int) *pullMsg {
	var pm *pullMsg
	if n := len(w.pmFree); n > 0 {
		pm = w.pmFree[n-1]
		w.pmFree = w.pmFree[:n-1]
	} else {
		pm = &pullMsg{}
	}
	pm.seq, pm.iter, pm.prio, pm.bytes, pm.stall = w.pullSeq, iter, 1<<30, 0, 0
	pm.covFrom, pm.covGen = 0, 0
	pm.pieces = pm.pieces[:0]
	if cap(pm.pieces) < pieces {
		pm.pieces = make([]pullPiece, 0, pieces)
	}
	w.pullSeq++
	return pm
}

// recyclePullMsg hands pm back to the free list; the caller must not read
// it after. A race build poisons it so that a read after release panics on
// a negative gradient index or carries NaN bytes.
func (w *worker) recyclePullMsg(pm *pullMsg) {
	if poison {
		nan := math.NaN()
		pm.seq, pm.iter, pm.prio, pm.bytes, pm.stall = -1, -1, -1, nan, nan
		for i := range pm.pieces {
			pm.pieces[i] = pullPiece{grad: -1, off: nan, bytes: nan}
		}
	}
	w.pmFree = append(w.pmFree, pm)
}

func (w *worker) newPulls() []*pullMsg {
	if n := len(w.pullsFree); n > 0 {
		p := w.pullsFree[n-1]
		w.pullsFree = w.pullsFree[:n-1]
		return p[:0]
	}
	return make([]*pullMsg, 0, 4)
}

func (w *worker) recyclePulls(p []*pullMsg) {
	if poison {
		clear(p)
	}
	if cap(p) > 0 {
		w.pullsFree = append(w.pullsFree, p)
	}
}

// pullTag returns the cached "pull[gN]" label for gradient g.
func (w *worker) pullTag(g int) string {
	if g < 0 || g >= len(w.pullTags) {
		return fmt.Sprintf("pull[g%d]", g)
	}
	if w.pullTags[g] == "" {
		w.pullTags[g] = fmt.Sprintf("pull[g%d]", g)
	}
	return w.pullTags[g]
}

// pumpDownlink serves eligible pulls on every shard downlink.
func (w *worker) pumpDownlink() {
	for s := range w.down {
		w.pumpDownlinkShard(s)
	}
}

// pumpDownlinkShard serves the highest-priority eligible pull of shard s
// when its downlink is free. Eligibility: every piece's byte range has
// been pushed by all workers (the PS has aggregated those bytes).
func (w *worker) pumpDownlinkShard(s int) {
	if w.down[s].Busy() {
		return
	}
	q := w.pullQ[s]
	best := -1
	for i, pm := range q {
		if !w.ps.covered(w.id, pm) {
			continue
		}
		if best == -1 || pm.prio < q[best].prio ||
			(pm.prio == q[best].prio && pm.seq < q[best].seq) {
			best = i
		}
	}
	if best == -1 {
		return
	}
	pm := q[best]
	n := len(q)
	copy(q[best:], q[best+1:])
	q[n-1] = nil
	w.pullQ[s] = q[:n-1]
	w.downInflight[s] = pm
	w.down[s].SendExtra(pm.bytes, pm.stall, w.pullTag(pm.prio), w.downDoneFn[s])
}

// onDownDone completes shard s's in-flight pull response.
func (w *worker) onDownDone(s int) {
	pm := w.downInflight[s]
	w.downInflight[s] = nil
	sizes := w.ps.sizes
	now := w.eng.Now()
	for _, pc := range pm.pieces {
		w.pulledBytes[pc.grad] += pc.bytes
		// Pull chunking splits at fractional byte boundaries, so the
		// float sum can land a hair under the exact size; within half
		// a byte the tensor is complete.
		if w.pulledBytes[pc.grad] >= sizes[pc.grad]-0.5 && !w.pulled[pc.grad] {
			w.pulled[pc.grad] = true
			if w.obs != nil {
				w.obs.PullAcked(w.id, pc.grad, pm.iter, now)
			}
		}
	}
	w.recyclePullMsg(pm)
	w.ps.gc()
	w.advanceForward() // a stalled forward segment may now proceed
	w.pumpDownlinkShard(s)
}

// debugPulled summarizes missing pulls for deadlock reports.
func (w *worker) debugPulled() string {
	missing := 0
	first := -1
	for i, p := range w.pulled {
		if !p {
			missing++
			if first < 0 {
				first = i
			}
		}
	}
	return fmt.Sprintf("missingPulls=%d first=%d pushedSoFar[first]=%v", missing, first, w.drv.Offset(max(first, 0)))
}
