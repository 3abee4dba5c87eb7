// Package collective is the live-path counterpart of the simulator's
// collective backends: W in-process workers perform real peer-to-peer
// all-reduce over rate-shaped connections, exchanging gradient chunks as
// tagged transport frames instead of pushing to a parameter server.
//
// The wire fabric is one shared bidirectional pipe carrying a
// transport.MuxConn per direction, with one logical stream per *receiving*
// worker: worker w ships a chunk to worker v by sending a Chunk frame on
// stream v, and a single demux goroutine routes arriving frames into
// per-worker inboxes. That mirrors the emulation's mux PS transport — the
// per-run goroutine cost is a constant two loops, not O(W²) socket pairs —
// and the shared pipe is shaped to W× the per-worker bandwidth, so every
// worker keeps the per-link rate a real ring would give it while the wire
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
// Flow control, framing, and payload pooling are inherited from the mux
// transport: chunk frames ride per-stream credit windows, received payloads
// are pooled, and decoded chunk buffers recycle through a float pool, so
// the steady-state hot path allocates nothing per step.
package collective

import (
	"errors"
	"fmt"
	"math/bits"
	"net"
	"sync"
	"time"

	"prophet/internal/drive"
	"prophet/internal/probe"
	"prophet/internal/transport"
)

// StepFunc observes one completed chunk step of an op: step `step` of
// `steps` moved `bytes` over [start, end) on the fabric's clock. It runs on
// the calling worker's goroutine.
type StepFunc func(step, steps int, bytes float64, start, end float64)

// Options configures a Fabric.
type Options struct {
	// Window is the per-stream credit window in bytes (0 = the transport
	// default).
	Window int
	// Metrics, when non-nil, meters the fabric's wire traffic under the
	// "transport_collective" label.
	Metrics *probe.Metrics
	// Clock supplies the timestamps handed to StepFunc (default: wall
	// seconds since the fabric was built).
	Clock func() float64
}

// chunk is one decoded inbound chunk frame.
type chunk struct {
	iter, step uint32
	data       []float64
}

// inbox holds the decoded chunks queued for one worker. It is unbounded —
// that is what makes the fabric deadlock-free: the demux loop never blocks
// on a worker, so credit grants always flow and a sender can never wedge
// behind a receiver that is itself mid-send. Memory stays bounded by the
// credit windows (at most one window of frames per stream is in flight).
//
// Lookup is by (iter, step), not FIFO: tree receivers hear from a different
// partner each step, and nothing orders arrivals across senders — a fast
// partner's step-k+1 frame may land before a slow partner's step-k frame.
// Each worker receives exactly one chunk per (iter, step), so the match is
// unique; the queue stays tiny (bounded by in-flight steps), so a linear
// scan is fine.
type inbox struct {
	items []chunk
}

func (q *inbox) push(c chunk) { q.items = append(q.items, c) }

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
// run with New, hand each worker its Peer, and Close when the run ends —
// closing unblocks every peer with an error.
type Fabric struct {
	workers int
	be      drive.Backend
	clock   func() float64

	send *transport.MuxConn // workers write here; stream = destination
	recv *transport.MuxConn // demux loop reads here
	wire []net.Conn         // both pipe ends, for teardown

	pool transport.FloatPool // decoded chunk buffers, recycled across steps and ops

	mu      sync.Mutex
	cond    *sync.Cond
	inboxes []inbox
	err     error
}

// New builds the fabric for `workers` peers on the named collective
// backend ("ring" or "tree"). bandwidthBytesPerSec is the per-worker link
// rate; the shared pipe is shaped to workers× that aggregate (0 =
// unshaped), mirroring the emulation's mux PS convention.
func New(backend string, workers int, bandwidthBytesPerSec float64, opt Options) (*Fabric, error) {
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
	bw := bandwidthBytesPerSec * float64(workers)
	a, b := transport.Pipe(bw, bw)
	a = transport.Meter(a, opt.Metrics, "transport_collective")
	start := time.Now()
	clock := opt.Clock
	if clock == nil {
		clock = func() float64 { return time.Since(start).Seconds() }
	}
	f := &Fabric{
		workers: workers,
		be:      be,
		clock:   clock,
		wire:    []net.Conn{a, b},
		inboxes: make([]inbox, workers),
	}
	f.cond = sync.NewCond(&f.mu)
	f.send = transport.NewMuxConn(a, transport.MuxOptions{Streams: workers, Window: opt.Window})
	// The receive side recycles chunk payloads and flushes credit grants
	// from its own granter goroutine (the demux loop never writes).
	f.recv = transport.NewMuxConn(b, transport.MuxOptions{
		Streams:   workers,
		Window:    opt.Window,
		Pool:      transport.NewPayloadPool(),
		AutoGrant: true,
	})
	go f.demuxLoop()
	go f.creditLoop()
	return f, nil
}

// Backend returns the chunk-schedule backend the fabric runs.
func (f *Fabric) Backend() drive.Backend { return f.be }

// Workers returns the peer count.
func (f *Fabric) Workers() int { return f.workers }

// Close tears the fabric down: both pipe ends close, the demux and credit
// loops exit, and every peer blocked in an exchange fails with
// net.ErrClosed. Idempotent.
func (f *Fabric) Close() error {
	f.fail(net.ErrClosed)
	err := errors.Join(f.send.Close(), f.recv.Close())
	if errors.Is(err, net.ErrClosed) {
		return nil
	}
	return err
}

// fail records the first fatal error and wakes every waiting peer.
func (f *Fabric) fail(err error) {
	f.mu.Lock()
	if f.err == nil && err != nil {
		f.err = err
	}
	f.cond.Broadcast()
	f.mu.Unlock()
}

// demuxLoop is the single reader of the receive side: it decodes every
// chunk frame into a pooled float buffer, returns the wire payload (and its
// credit) immediately, and queues the chunk on the destination worker's
// inbox. It never blocks on a peer.
func (f *Fabric) demuxLoop() {
	for {
		stream, frame, err := f.recv.Read()
		if err != nil {
			f.fail(err)
			return
		}
		if frame.Type != transport.Chunk || len(frame.Payload)%8 != 0 {
			f.recv.Done(stream, frame)
			f.fail(fmt.Errorf("collective: unexpected %s frame (%d payload bytes) on stream %d",
				frame.Type, len(frame.Payload), stream))
			return
		}
		buf := f.pool.Get(len(frame.Payload) / 8)
		if err := transport.DecodeFloatsInto(buf, frame.Payload); err != nil {
			f.recv.Done(stream, frame)
			f.fail(err)
			return
		}
		c := chunk{iter: frame.Iter, step: frame.Tensor, data: buf}
		f.recv.Done(stream, frame)
		f.mu.Lock()
		f.inboxes[stream].push(c)
		f.cond.Broadcast()
		f.mu.Unlock()
	}
}

// creditLoop is the single reader of the send side. The peers opposite it
// only ever return flow-control credit, which MuxConn.Read consumes
// internally, so the loop exists purely to keep those grants draining; any
// data frame arriving here is a protocol violation.
func (f *Fabric) creditLoop() {
	for {
		stream, frame, err := f.send.Read()
		if err != nil {
			f.fail(err)
			return
		}
		f.send.Done(stream, frame)
		f.fail(fmt.Errorf("collective: unexpected %s data frame on the send side (stream %d)", frame.Type, stream))
		return
	}
}

// recvChunk blocks for the chunk tagged (iter, step) addressed to worker w.
func (f *Fabric) recvChunk(w int, iter, step uint32) (chunk, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for {
		if c, ok := f.inboxes[w].take(iter, step); ok {
			return c, nil
		}
		if f.err != nil {
			return chunk{}, f.err
		}
		f.cond.Wait()
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
}

// AllReduce runs one lockstep collective op: on return, data holds the
// element-wise mean of every peer's input. All peers must call AllReduce
// with equal-length data, in the same op order — the schedules are
// synchronous, and a skipped or reordered op wedges the exchange (bounded
// by the caller's deadline, which closes the fabric). iter tags the op's
// frames for cross-peer sanity checking. onStep, when non-nil, observes
// each completed chunk step.
func (p *Peer) AllReduce(iter int, data []float64, onStep StepFunc) error {
	if len(data) == 0 {
		return nil
	}
	var err error
	switch p.f.be.Name() {
	case "tree":
		err = p.treeAllReduce(uint32(iter), data, onStep)
	default:
		err = p.ringAllReduce(uint32(iter), data, onStep)
	}
	if err != nil {
		return err
	}
	inv := 1 / float64(p.f.workers)
	for i := range data {
		data[i] *= inv
	}
	return nil
}

// exchange plays one lockstep step: ship out to peer dst, then block for
// this peer's inbound chunk and hand it to use. The net.Pipe fabric never
// wedges on the send-then-receive order: the demux loop drains the wire
// unconditionally, so every peer's send completes without its receive.
func (p *Peer) exchange(iter, step uint32, dst int, out []float64, wantLen int, use func(in []float64)) error {
	if err := p.f.send.SendFloats(uint32(dst), transport.Chunk, iter, step, out); err != nil {
		return fmt.Errorf("collective: send step %d to %d: %w", step, dst, err)
	}
	c, err := p.f.recvChunk(p.id, iter, step)
	if err != nil {
		return fmt.Errorf("collective: recv step %d: %w", step, err)
	}
	if len(c.data) != wantLen {
		p.f.pool.Put(c.data)
		err := fmt.Errorf("collective: peer %d iter %d step %d: got %d-element chunk, want %d (lockstep violated)",
			p.id, iter, step, len(c.data), wantLen)
		p.f.fail(err)
		return err
	}
	use(c.data)
	p.f.pool.Put(c.data)
	return nil
}

// ringAllReduce is the classic two-phase ring: W−1 reduce-scatter steps
// accumulate each of the W segments around the ring (so segment g is summed
// in one fixed worker order), then W−1 all-gather steps rotate the reduced
// segments back to everyone. Per step each peer ships one ~s/W-byte segment
// to its successor — exactly drive.Backend "ring"'s chunk schedule.
func (p *Peer) ringAllReduce(iter uint32, data []float64, onStep StepFunc) error {
	W := p.f.workers
	n := len(data)
	bound := func(i int) int { return i * n / W }
	succ := (p.id + 1) % W
	steps := 2 * (W - 1)
	step := 0
	for k := 0; k < W-1; k++ { // reduce-scatter
		sendSeg := ((p.id-k)%W + W) % W
		recvSeg := ((p.id-k-1)%W + W) % W
		sLo, sHi := bound(sendSeg), bound(sendSeg+1)
		rLo, rHi := bound(recvSeg), bound(recvSeg+1)
		start := p.f.clock()
		err := p.exchange(iter, uint32(step), succ, data[sLo:sHi], rHi-rLo, func(in []float64) {
			acc := data[rLo:rHi]
			for i, v := range in {
				acc[i] += v
			}
		})
		if err != nil {
			return err
		}
		if onStep != nil {
			onStep(step, steps, float64(8*(sHi-sLo)), start, p.f.clock())
		}
		step++
	}
	for k := 0; k < W-1; k++ { // all-gather
		sendSeg := ((p.id+1-k)%W + W) % W
		recvSeg := ((p.id-k)%W + W) % W
		sLo, sHi := bound(sendSeg), bound(sendSeg+1)
		rLo, rHi := bound(recvSeg), bound(recvSeg+1)
		start := p.f.clock()
		err := p.exchange(iter, uint32(step), succ, data[sLo:sHi], rHi-rLo, func(in []float64) {
			copy(data[rLo:rHi], in)
		})
		if err != nil {
			return err
		}
		if onStep != nil {
			onStep(step, steps, float64(8*(sHi-sLo)), start, p.f.clock())
		}
		step++
	}
	return nil
}

// treeAllReduce is recursive halving-doubling: log2 W halving steps reduce-
// scatter by exchanging the half of the current range the peer gives up
// (chunks of s/2, s/4, … s/W bytes), then log2 W doubling steps all-gather
// the reduced ranges back in mirror order — drive.Backend "tree"'s chunk
// schedule at a power-of-two W, where its geometric scale is exactly 1.
func (p *Peer) treeAllReduce(iter uint32, data []float64, onStep StepFunc) error {
	W := p.f.workers
	levels := bits.Len(uint(W)) - 1
	steps := 2 * levels
	type span struct{ lo, hi int }
	hist := make([]span, 0, levels)
	lo, hi := 0, len(data)
	step := 0
	for mask := W >> 1; mask > 0; mask >>= 1 { // halving reduce-scatter
		hist = append(hist, span{lo, hi})
		partner := p.id ^ mask
		mid := lo + (hi-lo)/2
		sLo, sHi, kLo, kHi := mid, hi, lo, mid
		if p.id&mask != 0 {
			sLo, sHi, kLo, kHi = lo, mid, mid, hi
		}
		start := p.f.clock()
		err := p.exchange(iter, uint32(step), partner, data[sLo:sHi], kHi-kLo, func(in []float64) {
			acc := data[kLo:kHi]
			for i, v := range in {
				acc[i] += v
			}
		})
		if err != nil {
			return err
		}
		if onStep != nil {
			onStep(step, steps, float64(8*(sHi-sLo)), start, p.f.clock())
		}
		lo, hi = kLo, kHi
		step++
	}
	for j := levels - 1; j >= 0; j-- { // doubling all-gather
		parent := hist[j]
		partner := p.id ^ (1 << (levels - 1 - j))
		start := p.f.clock()
		sibLo, sibHi := hi, parent.hi
		if lo != parent.lo {
			sibLo, sibHi = parent.lo, lo
		}
		err := p.exchange(iter, uint32(step), partner, data[lo:hi], sibHi-sibLo, func(in []float64) {
			copy(data[sibLo:sibHi], in)
		})
		if err != nil {
			return err
		}
		if onStep != nil {
			onStep(step, steps, float64(8*(hi-lo)), start, p.f.clock())
		}
		lo, hi = parent.lo, parent.hi
		step++
	}
	return nil
}
