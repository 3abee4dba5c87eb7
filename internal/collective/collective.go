// Package collective is the live-path counterpart of the simulator's
// collective backends: W in-process workers perform real peer-to-peer
// all-reduce over rate-shaped connections, exchanging gradient chunks as
// tagged transport frames instead of pushing to a parameter server.
//
// The wire fabric is the emulation's shared-pipe topology with peers on the
// far end instead of a parameter server: one bidirectional pipe carrying a
// transport.MuxConn per direction, with one logical stream per *receiving*
// worker. Worker w ships a chunk to worker v by sending a Chunk frame on
// stream v, and a single demux goroutine routes arriving frames into
// per-worker inboxes — the per-run goroutine cost is a constant, not O(W²)
// socket pairs. Whoever makes the pipe (New, or the emulation's wiring loop
// through Over) shapes it to W× the per-worker bandwidth, so every worker
// keeps the per-link rate a real ring would give it while the wire
// serializes the steps.
//
// The chunk schedules are the drive layer's: a ring op runs the classic
// reduce-scatter + all-gather (2(W−1) steps of s/W-byte segments, matching
// drive.Backend "ring"), a tree op runs recursive halving-doubling
// (2·log2 W steps of s/2 … s/W bytes, matching "tree"; the live path
// requires a power-of-two W, the constraint real halving-doubling
// implementations share). Both schedules reduce every segment in a fixed
// worker order and then broadcast the reduced bytes verbatim, so all
// workers finish one op with bit-identical means — the collective analogue
// of the parameter server's deterministic aggregation.
//
// An op carries one tensor (AllReduce) or several (AllReduceFused, of which
// AllReduce is the one-member call). A step costs every peer one hand-off
// however few bytes it moves, so small tensors share an op's steps: step k
// ships every member's step-k segment as ONE chunk frame and the receiver
// folds the payload back member by member. Each member is segmented over
// its own length, never over the fused buffer, so a tensor is summed in the
// same order — to the same bits — alone or in any group: what is fused
// with what, and therefore the scheduling policy, cannot change the
// arithmetic.
//
// Framing, back-pressure and payload pooling are inherited from the mux
// transport: a chunk's send returns once the pipe has buffered it, and the
// demux loop reads it off the pipe into a pooled payload buffer. Handing a
// chunk over costs the same at
// any W: the demux loop only routes — it queues the wire bytes on the
// addressee's inbox and wakes that one peer — and the receiving peer, on its
// own goroutine, reduces or copies straight from the little-endian bytes
// (one pass over the floats, W peers in parallel) and returns the buffer to
// the pool. The steady-state hot path allocates nothing per step.
package collective

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"prophet/internal/drive"
	"prophet/internal/probe"
	"prophet/internal/transport"
)

// StepFunc observes one completed chunk step of an op: step `step` of
// `steps` moved `bytes` over [start, end) on the fabric's clock. It runs on
// the calling worker's goroutine.
type StepFunc func(step, steps int, bytes float64, start, end float64)

// Options configures a Fabric built by New.
type Options struct {
	// Metrics, when non-nil, meters the fabric's wire traffic under the
	// "transport_collective" label.
	Metrics *probe.Metrics
	// Clock supplies the timestamps handed to StepFunc (default: wall
	// seconds since the fabric was built).
	Clock func() float64
}

// chunk is one inbound chunk frame, still in wire form: data is the frame's
// pooled payload (little-endian float64s), owned by whoever holds the chunk
// until it goes back to the fabric's payload pool.
type chunk struct {
	iter, step uint32
	data       []byte
}

// inbox holds the chunks queued for one worker, under its own lock and
// wake-up: an arriving chunk costs its addressee one wake-up and nobody
// else anything. It is unbounded — that is what makes the fabric
// deadlock-free: the demux loop never blocks on a worker, so the pipe
// always drains and a sender can never wedge behind a receiver that is
// itself mid-send. The pipe does not bound the
// inbox (a send returns when the pipe has buffered the frame, before the
// demux loop has even read it, let alone the peer taken the chunk); the
// lockstep schedule does: a peer sends
// step k+1 only after it received step k. On a ring that needs only the
// predecessor's chunk, so the dependency chain runs the long way round and
// a peer can lead its successor by up to W−1 steps (an inbox of at most W
// chunks); halving-doubling's exchange is mutual, and a peer leads a
// partner by at most log₂W steps.
//
// Lookup is by (iter, step), not FIFO: tree receivers hear from a different
// partner each step, and nothing orders arrivals across senders — a fast
// partner's step-k+1 frame may land before a slow partner's step-k frame.
// Each worker receives exactly one chunk per step of an op — a fused op's
// members share it — and the ops of one iteration reuse the tags, so the
// match is unique because the lead bound above is shorter than an op. That
// is also why a frame whose every segment is empty is still sent: skipping
// it would let a peer run past an op boundary and put two chunks under one
// tag. The queue stays tiny, so a linear scan is fine.
type inbox struct {
	mu    sync.Mutex
	ready sync.Cond // on mu; the inbox's one worker waits here
	items []chunk
}

// push queues c and wakes the inbox's worker.
func (q *inbox) push(c chunk) {
	q.mu.Lock()
	q.items = append(q.items, c)
	q.mu.Unlock()
	q.ready.Signal()
}

// take removes the chunk tagged (iter, step); the caller holds q.mu.
func (q *inbox) take(iter, step uint32) (chunk, bool) {
	for i, c := range q.items {
		if c.iter == iter && c.step == step {
			last := len(q.items) - 1
			q.items[i] = q.items[last]
			q.items[last] = chunk{}
			q.items = q.items[:last]
			return c, true
		}
	}
	return chunk{}, false
}

// Fabric is the shared wire all peers exchange chunks over. Build one per
// run with New (or Over, on a pipe the caller made), hand each worker its
// Peer, and Close when the run ends — closing unblocks every peer with an
// error.
type Fabric struct {
	workers    int
	steps      int                    // the backend's Steps(workers)
	stepOf     func(id, k int) opStep // the backend's chunk schedule
	fillBounds func(b []int, n int)   // its segment boundaries for n elements
	clock      func() float64

	send *transport.MuxConn // workers write here; stream = destination
	recv *transport.MuxConn // the demux loop reads here

	payloads *transport.PayloadPool // recv's pool: chunk buffers return here

	readers sync.WaitGroup // the demux loop

	inboxes []inbox
	err     atomic.Pointer[error] // the first fatal error, published once
}

// Check reports whether `workers` peers can run the named collective
// backend: it must be a collective schedule ("ring" or "tree"), with at
// least two peers, and a power of two of them for the tree.
func Check(backend string, workers int) (drive.Backend, error) {
	be, err := drive.BackendByName(backend)
	if err != nil {
		return nil, err
	}
	if be.Name() == "ps" {
		return nil, fmt.Errorf("collective: transport %q is the parameter-server path", be.Name())
	}
	if workers < 2 {
		return nil, fmt.Errorf("collective: transport %q needs at least 2 workers, have %d", be.Name(), workers)
	}
	if be.Name() == "tree" && bits.OnesCount(uint(workers)) != 1 {
		return nil, fmt.Errorf("collective: tree halving-doubling needs a power-of-two worker count, have %d", workers)
	}
	return be, nil
}

// New builds the fabric for `workers` peers on the named collective
// backend ("ring" or "tree") over a pipe of its own. bandwidthBytesPerSec
// is the per-worker link rate; the shared pipe is shaped to workers× that
// aggregate (0 = unshaped), the emulation's shared-pipe convention.
func New(backend string, workers int, bandwidthBytesPerSec float64, opt Options) (*Fabric, error) {
	bw := bandwidthBytesPerSec * float64(workers)
	a, b := transport.Pipe(bw, bw)
	const label = "transport_collective" // writes count on the send end, reads on the receive end
	f, err := Over(backend, workers, transport.Meter(a, opt.Metrics, label), transport.Meter(b, opt.Metrics, label))
	if err == nil && opt.Clock != nil {
		f.clock = opt.Clock
	}
	return f, err
}

// Over builds the fabric on a pipe the caller made (and shaped, metered or
// fault-wrapped as it saw fit): peers write their chunks to send, the demux
// loop reads them from recv, and nothing travels the other way. Once Over
// returns without an error the fabric owns both ends. Its StepFunc
// timestamps are wall seconds since Over was called.
func Over(backend string, workers int, send, recv net.Conn) (*Fabric, error) {
	be, err := Check(backend, workers)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	f := &Fabric{
		workers:    workers,
		steps:      be.Steps(workers),
		stepOf:     ringStep(workers),
		fillBounds: ringBounds,
		clock:      func() float64 { return time.Since(start).Seconds() },
		payloads:   transport.NewPayloadPool(),
		inboxes:    make([]inbox, workers),
	}
	if be.Name() == "tree" {
		f.stepOf, f.fillBounds = treeStep(workers), halvingBounds
	}
	for w := range f.inboxes {
		f.inboxes[w].ready.L = &f.inboxes[w].mu
	}
	f.send = transport.NewMuxConn(send, transport.MuxOptions{Streams: workers})
	f.recv = transport.NewMuxConn(recv, transport.MuxOptions{Streams: workers, Pool: f.payloads})
	f.readers.Add(1)
	go f.demux()
	return f, nil
}

// Close tears the fabric down: both pipe ends close, every peer blocked in
// an exchange fails with net.ErrClosed, and by the time it returns the demux
// loop has exited and the chunks nobody took are back in the payload pool.
// Idempotent; an end that was already closed (by the demux loop's own exit,
// or by the caller) is not an error.
func (f *Fabric) Close() error {
	f.fail(net.ErrClosed)
	err := errors.Join(closeErr(f.send.Close()), closeErr(f.recv.Close()))
	f.readers.Wait()
	for w := range f.inboxes {
		q := &f.inboxes[w]
		q.mu.Lock()
		for _, c := range q.items {
			f.payloads.Put(c.data)
		}
		q.items = nil
		q.mu.Unlock()
	}
	return err
}

func closeErr(err error) error {
	if errors.Is(err, net.ErrClosed) {
		return nil
	}
	return err
}

// fail publishes the first fatal error, then wakes every inbox. A waiter
// checks the error under its inbox's lock before it parks and fail takes
// that lock after publishing, so the waiter either sees the error or is
// already parked when the wake-up comes: none can miss it.
func (f *Fabric) fail(err error) {
	if err != nil {
		f.err.CompareAndSwap(nil, &err)
	}
	for w := range f.inboxes {
		q := &f.inboxes[w]
		q.mu.Lock()
		q.ready.Broadcast()
		q.mu.Unlock()
	}
}

// demux runs the receive side's reader until its first error, which closes
// that mux (transport.MuxConn.Demux) — writes on the other end of the pipe
// then fail too, so senders parked in a write unwind without anybody
// calling Close.
func (f *Fabric) demux() {
	defer f.readers.Done()
	f.fail(f.recv.Demux(f.deliver))
}

// deliver is the receive side's frame handler. It only routes: a chunk
// frame's payload moves, undecoded, onto the destination worker's inbox —
// the inbox owns the pooled buffer from here (transport.MuxConn.Demux) —
// and that worker alone is woken. It never blocks on a peer.
func (f *Fabric) deliver(stream uint32, frame *transport.Frame) error {
	if frame.Type != transport.Chunk || len(frame.Payload)%8 != 0 {
		return fmt.Errorf("collective: unexpected %s frame (%d payload bytes) on stream %d",
			frame.Type, len(frame.Payload), stream)
	}
	f.inboxes[stream].push(chunk{iter: frame.Iter, step: frame.Tensor, data: frame.Payload})
	frame.Payload = nil
	return nil
}

// recvChunk blocks for the chunk tagged (iter, step) addressed to worker w,
// waiting on w's inbox alone. The caller owns the chunk's buffer.
func (f *Fabric) recvChunk(w int, iter, step uint32) (chunk, error) {
	q := &f.inboxes[w]
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if c, ok := q.take(iter, step); ok {
			return c, nil
		}
		if err := f.err.Load(); err != nil {
			return chunk{}, *err
		}
		q.ready.Wait()
	}
}

// Peer returns worker w's handle on the fabric.
func (f *Fabric) Peer(w int) *Peer {
	if w < 0 || w >= f.workers {
		panic(fmt.Sprintf("collective: peer %d of %d", w, f.workers))
	}
	return &Peer{f: f, id: w}
}

// Peer is one worker's endpoint. A Peer is not safe for concurrent use;
// each worker drives its own.
type Peer struct {
	f  *Fabric
	id int

	// Scratch of the op in flight: its members' segment boundaries, W+1
	// per member (see segmentBounds), and each member's segment of the
	// current step.
	bounds []int
	segs   [][]float64
}

// AllReduce runs one lockstep collective op: on return, data holds the
// element-wise mean of every peer's input. It is AllReduceFused over the one
// member, and the same contract applies.
func (p *Peer) AllReduce(iter int, data []float64, onStep StepFunc) error {
	return p.AllReduceFused(iter, [][]float64{data}, onStep)
}

// AllReduceFused runs one lockstep collective op over several tensors at
// once: on return, every member holds the element-wise mean of every peer's
// input for it. The members share the op's chunk schedule — step k ships
// every member's step-k segment as ONE chunk frame, so the op costs the
// wire the steps of one tensor, not of len(members) — but each keeps its own
// segmentation (its own boundaries over its own length), so a tensor is
// reduced in the same order, to the same bits, whatever it is fused with.
//
// All peers must call it with the same member lengths, in the same op order
// — the schedules are synchronous, and a skipped or reordered op wedges the
// exchange (bounded by the caller's deadline, which closes the fabric); a
// frame whose length is not what the schedule says fails every peer. iter
// tags the op's frames for cross-peer sanity checking. onStep, when
// non-nil, observes each completed chunk step with the fused frame's bytes.
func (p *Peer) AllReduceFused(iter int, members [][]float64, onStep StepFunc) error {
	elems := 0
	for _, m := range members {
		elems += len(m)
	}
	if elems == 0 {
		return nil
	}
	f := p.f
	bounds := p.segmentBounds(members)
	if cap(p.segs) < len(members) {
		p.segs = make([][]float64, len(members))
	}
	segs := p.segs[:len(members)]
	for k := 0; k < f.steps; k++ {
		st := f.stepOf(p.id, k)
		sent := 0
		for i, m := range members {
			b := bounds[i*(f.workers+1):]
			segs[i] = m[b[st.sLo]:b[st.sHi]]
			sent += len(segs[i])
		}
		var start float64
		if onStep != nil { // the clock is read only for an observer
			start = f.clock()
		}
		if err := p.exchange(uint32(iter), uint32(k), members, st, bounds, segs); err != nil {
			return err
		}
		if onStep != nil {
			onStep(k, f.steps, float64(8*sent), start, f.clock())
		}
	}
	inv := 1 / float64(f.workers)
	for _, m := range members {
		for i := range m {
			m[i] *= inv
		}
	}
	return nil
}

// segmentBounds fills and returns every member's segment boundaries, W+1
// per member (member i's at [i·(W+1), (i+1)·(W+1)), its last one its
// length). The boundaries are the only part of the schedule that depends on
// a length, so an op pays the backend's divisions once per member, not at
// every step.
func (p *Peer) segmentBounds(members [][]float64) []int {
	w1 := p.f.workers + 1
	if cap(p.bounds) < len(members)*w1 {
		p.bounds = make([]int, len(members)*w1)
	}
	p.bounds = p.bounds[:len(members)*w1]
	for i, m := range members {
		p.f.fillBounds(p.bounds[i*w1:(i+1)*w1], len(m))
	}
	return p.bounds
}

// opStep is one lockstep step of an op, in segment indices: for each
// member, with b its segment boundaries, ship data[b[sLo]:b[sHi]] to peer
// dst, then fold the inbound chunk into data[b[rLo]:b[rHi]] — summed during
// the reduce-scatter half of a schedule, copied during the all-gather half.
// A step depends on the peer and the step number alone, so every member of
// a fused op follows the same one.
type opStep struct {
	dst      int
	sLo, sHi int
	rLo, rHi int
	reduce   bool
}

// exchange plays one step: send the members' segments (segs, cut by st) as
// one frame, then block for this peer's inbound chunk and fold its wire
// bytes back member by member, into the ranges st and the members' bounds
// name, here on the peer's own goroutine. The fabric never wedges on the
// send-then-receive order: the demux loop drains the wire unconditionally,
// so every peer's send completes without its receive, even one parked on a
// full pipe buffer.
func (p *Peer) exchange(iter, step uint32, members [][]float64, st opStep, bounds []int, segs [][]float64) error {
	f, dst, w1 := p.f, st.dst, p.f.workers+1
	b := f.send.NewBatch(uint32(dst))
	err := b.AppendFloatSlices(transport.Chunk, iter, step, segs)
	if err != nil {
		f.send.PutBatch(b)
	} else {
		err = f.send.SendBatch(b)
	}
	if err != nil {
		return fmt.Errorf("collective: send step %d to %d: %w", step, dst, err)
	}
	c, err := f.recvChunk(p.id, iter, step)
	if err != nil {
		return fmt.Errorf("collective: recv step %d: %w", step, err)
	}
	defer f.payloads.Put(c.data)
	want := 0
	for i := range members {
		b := bounds[i*w1:]
		want += b[st.rHi] - b[st.rLo]
	}
	if len(c.data) != 8*want {
		err := fmt.Errorf("collective: peer %d iter %d step %d: got %d-element chunk, want %d (lockstep violated)",
			p.id, iter, step, len(c.data)/8, want)
		f.fail(err)
		return err
	}
	wire := c.data
	for i, m := range members {
		b := bounds[i*w1:]
		acc := m[b[st.rLo]:b[st.rHi]]
		if st.reduce {
			for j := range acc {
				acc[j] += math.Float64frombits(binary.LittleEndian.Uint64(wire[8*j:]))
			}
		} else if err := transport.DecodeFloatsInto(acc, wire[:8*len(acc)]); err != nil {
			return err
		}
		wire = wire[8*len(acc):]
	}
	return nil
}

// ringStep is the classic two-phase ring's schedule: W−1 reduce-scatter
// steps accumulate each of the W segments around the ring (so segment g is
// summed in one fixed worker order), then W−1 all-gather steps rotate the
// reduced segments back to everyone. Per step each peer ships one
// ~s/W-byte segment to its successor — exactly drive.Backend "ring".
func ringStep(W int) func(id, k int) opStep {
	return func(id, k int) opStep {
		st := opStep{dst: (id + 1) % W, reduce: k < W-1}
		sendSeg := id - k // reduce-scatter: pass on what the last step accumulated
		if !st.reduce {
			sendSeg = id + 1 - (k - (W - 1)) // all-gather: pass on what it completed
		}
		sendSeg = (sendSeg%W + W) % W
		recvSeg := (sendSeg - 1 + W) % W
		st.sLo, st.sHi = sendSeg, sendSeg+1
		st.rLo, st.rHi = recvSeg, recvSeg+1
		return st
	}
}

// ringBounds fills b with the ring's W+1 segment boundaries for n elements
// (W = len(b)−1): segment g is [g·n/W, (g+1)·n/W).
func ringBounds(b []int, n int) {
	W := len(b) - 1
	for g := range b {
		b[g] = g * n / W
	}
}

// treeStep is recursive halving-doubling's schedule: log2 W halving steps
// reduce-scatter by exchanging the half of the current range the peer gives
// up (chunks of s/2, s/4, … s/W bytes), then log2 W doubling steps
// all-gather the reduced ranges back in mirror order — drive.Backend
// "tree" at a power-of-two W, where its geometric scale is exactly 1. A
// doubling step is its halving step played backwards: the peer ships the
// half it kept and receives the half it gave up. The ranges are runs of the
// W leaf segments of halvingBounds.
func treeStep(W int) func(id, k int) opStep {
	levels := bits.Len(uint(W)) - 1
	return func(id, k int) opStep {
		level, halving := k, k < levels
		if !halving {
			level = 2*levels - 1 - k
		}
		// The leaves this peer owns after `level` halvings, split once more.
		span := W >> level
		lo := id &^ (span - 1)
		mid, hi, mask := lo+span/2, lo+span, span/2
		keepLo, keepHi, giveLo, giveHi := lo, mid, mid, hi
		if id&mask != 0 {
			keepLo, keepHi, giveLo, giveHi = mid, hi, lo, mid
		}
		if halving {
			return opStep{dst: id ^ mask, sLo: giveLo, sHi: giveHi, rLo: keepLo, rHi: keepHi, reduce: true}
		}
		return opStep{dst: id ^ mask, sLo: keepLo, sHi: keepHi, rLo: giveLo, rHi: giveHi}
	}
}

// halvingBounds fills b with the W+1 leaf boundaries of recursive halving
// over n elements (W = len(b)−1, a power of two): every range of W/2^l
// leaves is split at lo + (hi−lo)/2 of its element range, top down.
func halvingBounds(b []int, n int) {
	W := len(b) - 1
	b[0], b[W] = 0, n
	for span := W; span > 1; span /= 2 {
		for lo := 0; lo < W; lo += span {
			b[lo+span/2] = b[lo] + (b[lo+span]-b[lo])/2
		}
	}
}
