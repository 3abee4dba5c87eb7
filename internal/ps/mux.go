package ps

// The parameter server's wire: N ≥ 1 logical workers per physical
// connection, each a tagged stream.
//
// Server side, ServeMux runs the demux loop on the caller's goroutine and
// one responder goroutine that owns every server write (the pull responses)
// — two goroutines per physical connection regardless of how many workers it
// carries. The demux loop queues a response under the server lock; the
// responder encodes every response queued so far, whatever its stream, into
// one batch (up to transport.MaxCombinedWrite) and ships it as one write.
// Client side, a MuxGroup owns one demux goroutine and nothing else, and
// hands out per-worker MuxWorker handles implementing WorkerLink. Three
// goroutines per pipe in all.
//
// Frames are tagged with a stream id equal to the worker's position in the
// ServeMux ids slice (the MuxGroup uses worker id == stream id directly).
// The pipe is the flow control: a write parks while the pipe holds
// transport.MaxCombinedWrite unread bytes, so no worker's burst runs ahead of
// the far demux loop by more than one combined write. Pooled payloads
// survive end-to-end: the demux borrows
// from the shared payload pool, handlers decode into the float pool, and
// MuxConn.Done returns the wire bytes.

import (
	"errors"
	"fmt"
	"net"
	"sync"

	"prophet/internal/probe"
	"prophet/internal/transport"
)

// ServeMux serves the given logical workers from one multiplexed
// connection: frames on stream i belong to worker ids[i]. It blocks until
// the connection closes, running the demux loop itself plus exactly one
// responder goroutine, and returns the joined mid-stream failures of the
// workers it carried (dropped workers' failures are suppressed, like
// Serve). When a server's last serving connection returns, its straggler
// timers are stopped.
func (s *Server) ServeMux(conn net.Conn, ids []int) error {
	if len(ids) == 0 {
		return errors.New("ps: ServeMux with no workers")
	}
	for _, w := range ids {
		if w < 0 || w >= s.workers {
			return fmt.Errorf("ps: no worker %d", w)
		}
	}
	mc := transport.NewMuxConn(conn, transport.MuxOptions{Streams: len(ids), Pool: payloads})
	r := &muxResponder{
		s:      s,
		mc:     mc,
		ids:    ids,
		queue:  make([]queuedResponse, 0, len(ids)),
		notify: make(chan struct{}, 1),
		stop:   make(chan struct{}),
	}
	s.mu.Lock()
	for stream, w := range ids {
		s.links[w] = workerLink{r, uint32(stream)}
	}
	orphaned := s.allDeadLocked(ids)
	s.mu.Unlock()
	if orphaned {
		// Every worker here was dropped before it was registered, so
		// DropWorker found no connection to close: close it now, or the
		// dropped workers' pulls wait out their timeout.
		mc.Close()
	}
	s.addServing(1)
	defer s.addServing(-1)
	var rwg sync.WaitGroup
	rwg.Add(1)
	go func() {
		defer rwg.Done()
		r.loop()
	}()

	// Demux loop: the only reader of mc. Handlers aggregate inline; their
	// responses go through the responder, so this loop never writes.
	failWorker := -1 // worker whose frame produced a handler error
	connErr := mc.Demux(func(stream uint32, f *transport.Frame) error {
		w := ids[stream]
		if s.IsDropped(w) {
			return nil
		}
		var herr error
		switch f.Type {
		case transport.Push:
			herr = s.handlePush(w, f)
		case transport.PullReq:
			herr = s.handlePull(w, f)
		default:
			herr = fmt.Errorf("unexpected frame type %v", f.Type)
		}
		if herr != nil {
			failWorker = w
		}
		return herr
	})
	if failWorker < 0 {
		if isCleanClose(connErr) {
			connErr = nil
		} else {
			connErr = fmt.Errorf("read frame: %w", connErr)
		}
	}

	// Teardown: Demux closed the conn — the responder may be parked inside
	// a write and only a close wakes it — so wait for it and unhook the
	// workers.
	close(r.stop)
	rwg.Wait()
	s.mu.Lock()
	for _, w := range ids {
		if s.links[w].r == r {
			s.links[w] = workerLink{}
		}
	}
	s.mu.Unlock()

	if connErr != nil {
		if failWorker >= 0 {
			// A protocol violation by one worker tears down the shared
			// connection; only the offender is attributed.
			s.workerFailed(failWorker, connErr)
		} else {
			for _, w := range ids {
				s.workerFailed(w, connErr)
			}
		}
	}
	return s.collectErrors(ids)
}

// queuedResponse is one pull response waiting for the responder: the mean
// of slot k, for the worker on stream.
type queuedResponse struct {
	stream uint32
	k      slotKey
}

// muxResponder is the single writer goroutine of a ServeMux connection: it
// encodes and writes the pull responses the demux loop queues (a demux loop
// never does either), as many per write as the bound allows, keeping the
// server at two goroutines per physical conn.
type muxResponder struct {
	s   *Server
	mc  *transport.MuxConn
	ids []int

	queue []queuedResponse // oldest first; guarded by s.mu

	notify chan struct{}
	stop   chan struct{}
}

func (r *muxResponder) loop() {
	for {
		select {
		case <-r.stop:
			return
		case <-r.notify:
		}
		for {
			b, first := r.encode()
			if b == nil {
				break
			}
			if err := r.mc.SendBatch(b); err != nil {
				if errors.Is(err, net.ErrClosed) {
					// This side closed the mux: the demux loop on a read
					// or handler error, or DropWorker orphaning the
					// connection. Whoever closed it attributes the cause.
					return
				}
				// A wire fault poisons the shared connection: close it
				// so the demux loop (and every sender) unwinds.
				r.s.workerFailed(first, fmt.Errorf("write pull response: %w", err))
				r.mc.Close()
				return
			}
		}
	}
}

// encode takes the queued responses, oldest first, into one batch of at
// most transport.MaxCombinedWrite bytes (a single larger response goes
// alone) and returns it with the first worker it answers, or nil when
// nothing is left to write. A dropped worker's response is skipped. Each
// response taken is one slot reader fewer; a slot served to every live
// worker retires once its last response is encoded.
func (r *muxResponder) encode() (*transport.MuxBatch, int) {
	s := r.s
	s.mu.Lock()
	defer s.mu.Unlock()
	var b *transport.MuxBatch
	first, size, n := -1, 0, 0
	for ; n < len(r.queue); n++ {
		q := r.queue[n]
		sl := s.slots[q.k]
		if w := r.ids[q.stream]; !s.dead[w] {
			frame := transport.MuxHeaderSize + 8*len(sl.mean)
			if b == nil {
				b, first = r.mc.NewBatch(q.stream), w
			} else if size+frame > transport.MaxCombinedWrite {
				break
			}
			size += frame
			b.On(q.stream)
			// Cannot fail: the mean is as long as a contribution that
			// arrived in one frame.
			_ = b.AppendFloats(transport.PullResp, q.k.iter, q.k.tensor, sl.mean)
		}
		if sl.queued--; sl.queued == 0 && s.allServedLocked(sl) {
			s.retireSlotLocked(q.k, sl)
		}
	}
	r.queue = r.queue[:copy(r.queue, r.queue[n:])]
	return b, first
}

// MuxGroupOptions configures the client half of a connection. There is no
// redial: reconnect policy belongs to whoever owns the group, and no pull
// timeout: a pull waits until its response arrives or the connection goes,
// so whoever waits on it bounds the wait.
type MuxGroupOptions struct {
	// Metrics, when non-nil, counts lost connections under the
	// ps_client_conn_lost name (shared by all workers of the group).
	Metrics *probe.Metrics
}

// MuxGroup is the client side of one multiplexed connection: `workers`
// logical clients (stream id == worker index within the group) behind a
// single demux goroutine. Obtain per-worker handles with Worker.
type MuxGroup struct {
	mc      *transport.MuxConn
	workers []*MuxWorker
	done    chan struct{}

	mConnLost *probe.Counter
}

// NewMuxGroup wraps conn (the peer must be a Server.ServeMux with the same
// worker count) and starts the demux goroutine.
func NewMuxGroup(conn net.Conn, workers int, opts MuxGroupOptions) *MuxGroup {
	if workers <= 0 {
		panic("ps: NewMuxGroup needs at least one worker")
	}
	g := &MuxGroup{
		mc:      transport.NewMuxConn(conn, transport.MuxOptions{Streams: workers, Pool: payloads}),
		workers: make([]*MuxWorker, workers),
		done:    make(chan struct{}),
	}
	if m := opts.Metrics; m != nil {
		g.mConnLost = m.Counter("ps_client_conn_lost")
	}
	for w := range g.workers {
		g.workers[w] = &MuxWorker{
			g:       g,
			stream:  uint32(w),
			pending: make(map[slotKey]chan PullResult),
		}
	}
	go g.readLoop()
	return g
}

// Worker returns the handle for logical worker w (0 ≤ w < workers).
func (g *MuxGroup) Worker(w int) *MuxWorker { return g.workers[w] }

// Close tears down the shared connection, failing every worker's pending
// pulls, and waits for the demux goroutine to exit.
func (g *MuxGroup) Close() error {
	err := g.mc.Close()
	<-g.done
	return err
}

func (g *MuxGroup) readLoop() {
	defer close(g.done)
	err := g.mc.Demux(func(stream uint32, f *transport.Frame) error {
		g.workers[stream].deliver(f)
		return nil
	})
	lost := fmt.Errorf("%w: %v", ErrConnLost, err)
	if g.mConnLost != nil && !isCleanClose(err) {
		g.mConnLost.Inc()
	}
	for _, mw := range g.workers {
		mw.failPending(lost)
	}
}

// MuxWorker is one logical worker's view of a MuxGroup, sharing the group's
// connection and demux goroutine. It implements WorkerLink.
type MuxWorker struct {
	g      *MuxGroup
	stream uint32

	mu      sync.Mutex
	pending map[slotKey]chan PullResult
	// answered holds, oldest first from answeredHead, the channels deliver
	// has sent their one value on: register reuses the first whose value
	// has been received, so a warm pull allocates no channel.
	answered     []chan PullResult
	answeredHead int
	readErr      error
}

// deliver routes one demuxed frame; the payload is decoded before the
// caller recycles the wire bytes.
func (mw *MuxWorker) deliver(f *transport.Frame) {
	if f.Type != transport.PullResp {
		return
	}
	k := slotKey{f.Iter, f.Tensor}
	mw.mu.Lock()
	ch, ok := mw.pending[k]
	if ok {
		delete(mw.pending, k)
	}
	mw.mu.Unlock()
	if !ok {
		return
	}
	var r PullResult
	if n, derr := transport.FloatCount(f.Payload); derr != nil {
		r.Err = fmt.Errorf("ps: pull response for iter %d tensor %d: %w", f.Iter, f.Tensor, derr)
	} else {
		r.Data = floats.Get(n)
		transport.DecodeFloatsInto(r.Data, f.Payload)
	}
	ch <- r
	mw.mu.Lock()
	if mw.answeredHead > 0 && len(mw.answered) == cap(mw.answered) {
		// Full with a consumed prefix: shift down instead of growing.
		n := copy(mw.answered, mw.answered[mw.answeredHead:])
		clear(mw.answered[n:])
		mw.answered, mw.answeredHead = mw.answered[:n], 0
	}
	mw.answered = append(mw.answered, ch)
	mw.mu.Unlock()
}

// failPending fails every registered pull with err and latches it for
// future registrations.
func (mw *MuxWorker) failPending(err error) {
	mw.mu.Lock()
	if mw.readErr == nil {
		mw.readErr = err
	}
	for _, ch := range mw.pending {
		ch <- PullResult{Err: err}
	}
	mw.pending = make(map[slotKey]chan PullResult)
	mw.mu.Unlock()
}

func (mw *MuxWorker) register(k slotKey) (chan PullResult, error) {
	mw.mu.Lock()
	defer mw.mu.Unlock()
	if mw.readErr != nil {
		return nil, mw.readErr
	}
	if _, dup := mw.pending[k]; dup {
		return nil, fmt.Errorf("ps: duplicate pull for iter %d tensor %d", k.iter, k.tensor)
	}
	ch := mw.reusable()
	if ch == nil {
		ch = make(chan PullResult, 1)
	}
	mw.pending[k] = ch
	return ch, nil
}

// reusable takes the oldest answered channel that is empty again — its one
// value received — out of the queue and returns it, or nil when none is. A
// channel still holding its value stays queued, never handed out: whoever
// holds it may yet read it (a pull answered before its worker got to it,
// which frees it for a later pull) or never will (a receiver that gave up,
// like a timed-out wait, which keeps its slot for the worker's life).
// Dropping the unread ones instead cost a new channel per pull answered
// ahead of its reader — more of them the more pulls a fast wire has in
// flight. Called with mu held.
func (mw *MuxWorker) reusable() chan PullResult {
	for i := mw.answeredHead; i < len(mw.answered); i++ {
		ch := mw.answered[i]
		if len(ch) != 0 {
			continue
		}
		// Fill its slot with the head and advance past the head.
		mw.answered[i] = mw.answered[mw.answeredHead]
		mw.answered[mw.answeredHead] = nil
		mw.answeredHead++
		if mw.answeredHead == len(mw.answered) {
			mw.answered, mw.answeredHead = mw.answered[:0], 0
		}
		return ch
	}
	return nil
}

func (mw *MuxWorker) deregister(k slotKey) {
	mw.mu.Lock()
	delete(mw.pending, k)
	mw.mu.Unlock()
}

// Push sends a gradient tensor on this worker's stream.
func (mw *MuxWorker) Push(iter, tensor int, data []float64) error {
	return mw.g.mc.SendFloats(mw.stream, transport.Push, uint32(iter), uint32(tensor), data)
}

// PullAsync sends a pull request for tensor `tensor` of iteration `iter`
// and returns a channel that delivers the result — the aggregated value or
// the error that doomed it. The request frame is tiny, so issuing it inline
// between pushes costs almost nothing and lets the response overlap later
// pushes. The channel delivers exactly one value and is reused for a later
// pull once that value has been received (see WorkerLink).
func (mw *MuxWorker) PullAsync(iter, tensor int) (<-chan PullResult, error) {
	k := slotKey{uint32(iter), uint32(tensor)}
	ch, err := mw.register(k)
	if err != nil {
		return nil, err
	}
	if err := mw.g.mc.SendFrame(mw.stream, &transport.Frame{Type: transport.PullReq, Iter: k.iter, Tensor: k.tensor}); err != nil {
		mw.deregister(k)
		return nil, fmt.Errorf("%w: %v", ErrConnLost, err)
	}
	return ch, nil
}

// PushPullBatch stages every tensor's push and pull request as one mux
// batch: a single write on the shared connection, interleaved by stream
// with other workers' batches — the Parameter-Box-style batched wire format
// for all same-destination tensors of one scheduler message. grad returns
// tensor t's data (borrowed only for the duration of the call); res
// receives each tensor's result channel, delivered before any byte hits the
// wire so a response racing back can never be dropped. The batch fails as a
// unit: on error no pull of this batch stays registered.
func (mw *MuxWorker) PushPullBatch(iter int, tensors []int, grad func(tensor int) []float64, res func(tensor int, ch <-chan PullResult)) error {
	nreg := 0
	var err error
	for _, t := range tensors {
		k := slotKey{uint32(iter), uint32(t)}
		ch, rerr := mw.register(k)
		if rerr != nil {
			err = rerr
			break
		}
		nreg++
		res(t, ch)
	}
	if err == nil {
		b := mw.g.mc.NewBatch(mw.stream)
		for _, t := range tensors {
			if err = b.AppendFloats(transport.Push, uint32(iter), uint32(t), grad(t)); err != nil {
				break
			}
			if err = b.AppendFrame(&transport.Frame{Type: transport.PullReq, Iter: uint32(iter), Tensor: uint32(t)}); err != nil {
				break
			}
		}
		if err == nil {
			if err = mw.g.mc.SendBatch(b); err != nil {
				err = fmt.Errorf("%w: %v", ErrConnLost, err)
			}
		} else {
			mw.g.mc.PutBatch(b)
		}
	}
	if err != nil {
		for i := 0; i < nreg; i++ {
			mw.deregister(slotKey{uint32(iter), uint32(tensors[i])})
		}
		return err
	}
	return nil
}

// Pull issues a pull and waits for the result: the aggregate, or the error
// of a failed response or a lost connection. It does not time out.
func (mw *MuxWorker) Pull(iter, tensor int) ([]float64, error) {
	ch, err := mw.PullAsync(iter, tensor)
	if err != nil {
		return nil, err
	}
	r := <-ch
	return r.Data, r.Err
}

// Recycle hands a pull result's buffer back to the gradient pool. Optional
// — an unrecycled result is ordinary garbage — but the caller must not use
// data afterwards.
func (mw *MuxWorker) Recycle(data []float64) { floats.Put(data) }
