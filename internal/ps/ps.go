// Package ps implements a real, concurrent parameter server over the
// transport package: workers push gradient tensors, the server aggregates
// each tensor once every worker's contribution has arrived, and pull
// requests answer with the aggregated (mean) gradient. It is the live
// counterpart of the discrete-event PS in internal/cluster — goroutines,
// locks, and actual bytes instead of simulated events.
//
// Aggregation is deterministic: contributions are summed in worker-id
// order once complete, so the result is bit-identical regardless of
// arrival order. That property lets the emulation assert that every
// communication schedule produces exactly the same training trajectory.
//
// # One wire
//
// Every connection speaks the multiplexed protocol of mux.go: tagged frames,
// one demux loop and one responder per connection on the server, one demux
// goroutine on the client, and the pipe itself as flow control. The demux
// loop only queues a pull's answer; the responder encodes whatever is
// queued, every stream's alike, into one batch and ships it as one write.
// How many workers share a connection is topology, not protocol: Serve and
// NewClient run one worker per connection (a one-stream mux), ServeMux and
// MuxGroup any number.
//
// # Sharding
//
// Several Servers, one per shard, split the tensors between them. Nothing on
// the wire names a shard: a worker holds one WorkerLink per shard server and
// sends tensor t on the link of the shard that owns it, by a key→shard map
// every worker and server derives from the tensor sizes alone
// (internal/shard). The routing is the caller's, and so is the cross-shard
// priority order.
//
// # Failure semantics
//
// The server distinguishes clean shutdown (EOF after the peer closes) from
// mid-stream failures (corrupt frames, protocol violations, reset links):
// the latter surface as *WorkerError, both through Serve's return value and
// through the OnWorkerFailure callback. A straggler policy
// (SetStragglerPolicy) can detect workers that never contribute to a slot
// other workers are waiting on; DropWorker removes a worker from the
// aggregation barrier and renormalizes the mean over the survivors, so
// training degrades gracefully instead of hanging. On the client side a
// lost connection fails every pending pull with ErrConnLost; a pull has no
// timeout of its own, so whoever waits on one bounds the wait (internal/emu
// does, per pull).
package ps

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"prophet/internal/probe"
	"prophet/internal/transport"
)

// ErrConnLost marks client-side errors caused by a failed connection.
var ErrConnLost = errors.New("ps: connection lost")

// WorkerError attributes a server-side failure to one worker's connection.
type WorkerError struct {
	Worker int
	Err    error
}

func (e *WorkerError) Error() string { return fmt.Sprintf("ps: worker %d: %v", e.Worker, e.Err) }

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *WorkerError) Unwrap() error { return e.Err }

// isCleanClose reports whether a read error means the peer (or this
// process) closed the connection in an orderly way.
func isCleanClose(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) || errors.Is(err, io.ErrClosedPipe)
}

type slotKey struct {
	iter, tensor uint32
}

// slot is one tensor's aggregation state for one iteration.
type slot struct {
	contrib  [][]float64 // indexed by worker id
	got      int         // live contributions received
	mean     []float64
	waiting  []pendingPull
	servedBy []bool // workers whose response has been queued
	queued   int    // responses queued and not yet encoded: they read mean
	timer    *time.Timer
}

type pendingPull struct {
	worker int
}

// Server aggregates pushes from a fixed set of workers.
type Server struct {
	workers int

	mu    sync.Mutex
	slots map[slotKey]*slot
	// slotFree recycles retired slots, with their per-worker slices and
	// their waiting list, for the next (iteration, tensor).
	slotFree []*slot
	// done records fully-served slots so a duplicate or late request after
	// garbage collection is a protocol error instead of a silent hang. It
	// grows with the number of distinct (iteration, tensor) pairs of one
	// run — bounded by run length.
	done map[slotKey]bool
	dead []bool // workers removed from the aggregation barrier
	live int

	// links[w] is where worker w's pull responses go while a ServeMux call
	// carries it: the connection's responder and w's stream on it. The
	// responders' queues are guarded by mu too.
	links []workerLink
	// serving counts Serve and ServeMux calls in progress; the last one to
	// return stops the straggler timers.
	serving int

	// probe counter handles; nil unless SetMetrics attached a registry.
	mPushes, mPulls, mDrops, mFailures, mStragglers *probe.Counter

	workerErrs []error
	onFailure  func(worker int, err error)

	stragglerTimeout time.Duration
	onStraggler      func(missing []int)
}

// workerLink locates a worker on the connection currently serving it.
type workerLink struct {
	r      *muxResponder // nil while no connection carries the worker
	stream uint32
}

// NewServer creates a server expecting the given number of workers.
func NewServer(workers int) *Server {
	if workers <= 0 {
		panic("ps: NewServer needs at least one worker")
	}
	return &Server{
		workers:    workers,
		slots:      make(map[slotKey]*slot),
		done:       make(map[slotKey]bool),
		dead:       make([]bool, workers),
		live:       workers,
		links:      make([]workerLink, workers),
		workerErrs: make([]error, workers),
	}
}

// SetMetrics attaches a probe registry: the server counts handled frames,
// dropped workers, worker failures, and straggler-policy firings under the
// ps_server_* names. Attach before Serve, or at least before the first
// frame: frames handled earlier go uncounted. A nil registry is a no-op.
func (s *Server) SetMetrics(m *probe.Metrics) {
	if m == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mPushes = m.Counter("ps_server_pushes")
	s.mPulls = m.Counter("ps_server_pulls")
	s.mDrops = m.Counter("ps_server_dropped_workers")
	s.mFailures = m.Counter("ps_server_worker_failures")
	s.mStragglers = m.Counter("ps_server_straggler_fires")
}

// OnWorkerFailure registers a callback invoked when a worker's connection
// fails mid-stream (read error, protocol violation, or response-write
// failure). Register before Serve. The callback may call DropWorker to
// remove the worker from the barrier; a dropped worker's error is then
// excluded from Serve's return value.
func (s *Server) OnWorkerFailure(fn func(worker int, err error)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.onFailure = fn
}

// SetStragglerPolicy arms a per-slot detection timer: when a pull has been
// waiting for `timeout` on a slot that is still missing contributions, the
// server drops the missing workers (renormalizing the mean over the
// survivors) and then calls `dropped` with their ids. Register before Serve.
func (s *Server) SetStragglerPolicy(timeout time.Duration, dropped func(missing []int)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stragglerTimeout = timeout
	s.onStraggler = dropped
}

// IsDropped reports whether worker w has been removed from the barrier.
func (s *Server) IsDropped(w int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return w >= 0 && w < s.workers && s.dead[w]
}

// Dropped returns the ids of all dropped workers, ascending.
func (s *Server) Dropped() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []int
	for w, d := range s.dead {
		if d {
			out = append(out, w)
		}
	}
	return out
}

// Serve handles one connection per worker (conns[i] belongs to worker i,
// as a one-stream ServeMux) until every connection closes. Clean closes
// (EOF) mean the worker is done; mid-stream failures are recorded per
// worker and returned joined as *WorkerError values — unless the worker was
// dropped, in which case its failure is part of the configured degradation
// and suppressed.
func (s *Server) Serve(conns []net.Conn) error {
	if len(conns) != s.workers {
		return fmt.Errorf("ps: %d connections for %d workers", len(conns), s.workers)
	}
	ids := make([]int, s.workers)
	for w := range ids {
		ids[w] = w
	}
	s.addServing(1)
	defer s.addServing(-1)
	var wg sync.WaitGroup
	for w := range conns {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Failures are collected once every connection has returned, so
			// a worker dropped after its own connection failed is suppressed.
			_ = s.ServeMux(conns[w], ids[w:w+1])
		}(w)
	}
	wg.Wait()
	return s.collectErrors(ids)
}

// workerFailed records w's first failure and notifies the failure handler.
func (s *Server) workerFailed(w int, err error) {
	s.mu.Lock()
	if s.workerErrs[w] == nil {
		s.workerErrs[w] = err
		if s.mFailures != nil {
			s.mFailures.Inc()
		}
	}
	cb := s.onFailure
	dropped := s.dead[w]
	s.mu.Unlock()
	if cb != nil && !dropped {
		cb(w, &WorkerError{Worker: w, Err: err})
	}
}

// collectErrors joins the failures of the given workers, skipping dropped
// ones.
func (s *Server) collectErrors(ids []int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var errs []error
	for _, w := range ids {
		if err := s.workerErrs[w]; err != nil && !s.dead[w] {
			errs = append(errs, &WorkerError{Worker: w, Err: err})
		}
	}
	return errors.Join(errs...)
}

// addServing brackets a serving call. When the last one returns, the
// straggler timers still armed are stopped: no connection is left to answer
// the pulls they guard, and a late firing would drop workers of a finished
// run.
func (s *Server) addServing(delta int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.serving += delta
	if s.serving > 0 {
		return
	}
	for _, sl := range s.slots {
		if sl.timer != nil {
			sl.timer.Stop()
			sl.timer = nil
		}
	}
}

func (s *Server) getSlot(k slotKey) *slot {
	sl, ok := s.slots[k]
	if !ok {
		if n := len(s.slotFree); n > 0 {
			sl = s.slotFree[n-1]
			s.slotFree[n-1] = nil
			s.slotFree = s.slotFree[:n-1]
		} else {
			sl = &slot{
				contrib:  make([][]float64, s.workers),
				servedBy: make([]bool, s.workers),
			}
		}
		s.slots[k] = sl
	}
	return sl
}

// retireSlotLocked ends a slot every live worker has been answered from —
// all served, none queued: k is marked done, the mean goes back to the
// float pool, and the slot, cleared, goes back to the freelist. Nothing
// holds a slot or its mean across an unlock — every other site looks it up
// by key, and a responder encodes under mu — so none can see either reused.
func (s *Server) retireSlotLocked(k slotKey, sl *slot) {
	if sl.timer != nil {
		sl.timer.Stop()
		sl.timer = nil
	}
	delete(s.slots, k)
	s.done[k] = true
	floats.Put(sl.mean)
	clear(sl.contrib)
	clear(sl.servedBy)
	clear(sl.waiting)
	sl.got, sl.mean, sl.waiting = 0, nil, sl.waiting[:0]
	s.slotFree = append(s.slotFree, sl)
}

func (s *Server) handlePush(w int, f *transport.Frame) error {
	n, err := transport.FloatCount(f.Payload)
	if err != nil {
		return fmt.Errorf("push: %w", err)
	}
	// The contribution buffer comes from the float pool; aggregate hands it
	// back once the slot's mean is computed, so steady-state pushes reuse
	// the previous iteration's buffers.
	data := floats.Get(n)
	transport.DecodeFloatsInto(data, f.Payload)
	k := slotKey{f.Iter, f.Tensor}
	s.mu.Lock()
	if s.dead[w] {
		s.mu.Unlock()
		floats.Put(data)
		return nil
	}
	if s.mPushes != nil {
		s.mPushes.Inc()
	}
	if s.done[k] {
		s.mu.Unlock()
		floats.Put(data)
		return fmt.Errorf("push for tensor %d of iteration %d, which was already aggregated and served", f.Tensor, f.Iter)
	}
	sl := s.getSlot(k)
	if sl.mean != nil || sl.contrib[w] != nil {
		s.mu.Unlock()
		floats.Put(data)
		return fmt.Errorf("pushed tensor %d twice in iteration %d", f.Tensor, f.Iter)
	}
	sl.contrib[w] = data
	sl.got++
	if sl.got == s.live {
		if err := sl.aggregate(s.dead, s.live); err != nil {
			s.mu.Unlock()
			return err
		}
		s.flushWaitingLocked(k, sl)
	}
	s.mu.Unlock()
	return nil
}

// flushWaitingLocked answers a freshly aggregated slot's parked pulls
// (skipping dropped workers) and disarms its straggler timer.
func (s *Server) flushWaitingLocked(k slotKey, sl *slot) {
	if sl.timer != nil {
		sl.timer.Stop()
		sl.timer = nil
	}
	for _, p := range sl.waiting {
		if !s.dead[p.worker] {
			s.respondLocked(p.worker, k, sl)
		}
	}
	clear(sl.waiting)
	sl.waiting = sl.waiting[:0]
}

// respondLocked queues worker w's response for slot sl (key k) on the
// responder of the connection serving w, without encoding or writing it —
// the caller's demux loop never does either, so a connection stays full
// duplex: pushes keep flowing while a large parameter response streams
// back. w counts as served from here on, so a second pull is a duplicate
// however far the first response has got, and the slot stays open until
// the responder has encoded it. A worker no connection is serving any more
// has nowhere to be answered: the slot stays unmarked, hence retryable.
func (s *Server) respondLocked(w int, k slotKey, sl *slot) {
	l := s.links[w]
	if l.r == nil {
		return
	}
	sl.servedBy[w] = true
	sl.queued++
	l.r.queue = append(l.r.queue, queuedResponse{l.stream, k})
	select {
	case l.r.notify <- struct{}{}:
	default:
	}
}

// aggregate sums live contributions in worker-id order and divides by the
// live worker count — synchronous data parallelism's mean gradient,
// renormalized over the survivors when workers have been dropped.
func (sl *slot) aggregate(dead []bool, live int) error {
	n := -1
	for w, c := range sl.contrib {
		if dead[w] || c == nil {
			continue
		}
		if n < 0 {
			n = len(c)
		} else if len(c) != n {
			return fmt.Errorf("worker %d pushed %d elems, earlier workers pushed %d", w, len(c), n)
		}
	}
	if n < 0 {
		return fmt.Errorf("ps: aggregate with no live contributions")
	}
	mean := floats.Get(n)
	clear(mean)
	for w, c := range sl.contrib {
		if dead[w] || c == nil {
			continue
		}
		for i, v := range c {
			mean[i] += v
		}
	}
	inv := 1 / float64(live)
	for i := range mean {
		mean[i] *= inv
	}
	sl.mean = mean
	// Every contribution (live or dead) is summed or abandoned by now:
	// recycle the decoded buffers for the next pushes. The mean goes back
	// when the slot retires (retireSlotLocked).
	for w, c := range sl.contrib {
		if c != nil {
			sl.contrib[w] = nil
			floats.Put(c)
		}
	}
	return nil
}

func (s *Server) handlePull(w int, f *transport.Frame) error {
	k := slotKey{f.Iter, f.Tensor}
	s.mu.Lock()
	if s.dead[w] {
		s.mu.Unlock()
		return nil
	}
	if s.mPulls != nil {
		s.mPulls.Inc()
	}
	if s.done[k] {
		s.mu.Unlock()
		return fmt.Errorf("duplicate or late pull: tensor %d of iteration %d was already served to every worker", f.Tensor, f.Iter)
	}
	sl := s.getSlot(k)
	if sl.servedBy[w] {
		// The slot survives only because other workers are not yet served
		// (or a response is not yet encoded) — for THIS worker the pull is
		// a duplicate either way.
		s.mu.Unlock()
		return fmt.Errorf("duplicate pull: tensor %d of iteration %d was already served to this worker", f.Tensor, f.Iter)
	}
	if sl.mean == nil {
		sl.waiting = append(sl.waiting, pendingPull{worker: w})
		s.armStragglerLocked(k, sl)
	} else {
		s.respondLocked(w, k, sl)
	}
	s.mu.Unlock()
	return nil
}

// armStragglerLocked starts a slot's straggler-detection timer on the first
// parked pull (no-op unless SetStragglerPolicy configured one).
func (s *Server) armStragglerLocked(k slotKey, sl *slot) {
	if s.stragglerTimeout <= 0 || s.onStraggler == nil || sl.timer != nil {
		return
	}
	sl.timer = time.AfterFunc(s.stragglerTimeout, func() { s.stragglerFire(k) })
}

func (s *Server) stragglerFire(k slotKey) {
	s.mu.Lock()
	sl, ok := s.slots[k]
	cb := s.onStraggler
	if !ok || sl.mean != nil || cb == nil {
		s.mu.Unlock()
		return
	}
	var missing []int
	for w := 0; w < s.workers; w++ {
		if !s.dead[w] && sl.contrib[w] == nil {
			missing = append(missing, w)
		}
	}
	s.mu.Unlock()
	if len(missing) == 0 || len(missing) >= s.workers {
		return
	}
	if s.mStragglers != nil {
		s.mStragglers.Inc()
	}
	for _, w := range missing {
		s.DropWorker(w)
	}
	cb(missing)
}

// DropWorker removes worker w from the aggregation barrier: slots waiting
// only on w aggregate immediately over the survivors (the mean is
// renormalized), w's connection is closed once every worker it carries has
// been dropped, and w's subsequent failures are suppressed from Serve's
// result. Dropping is idempotent.
func (s *Server) DropWorker(w int) {
	s.mu.Lock()
	if w < 0 || w >= s.workers || s.dead[w] {
		s.mu.Unlock()
		return
	}
	s.dead[w] = true
	s.live--
	if s.mDrops != nil {
		s.mDrops.Inc()
	}
	var orphaned *muxResponder
	if r := s.links[w].r; r != nil && s.allDeadLocked(r.ids) {
		orphaned = r
	}
	if s.live > 0 {
		for k, sl := range s.slots {
			if sl.mean == nil {
				if c := sl.contrib[w]; c != nil {
					sl.contrib[w] = nil
					sl.got--
					floats.Put(c)
				}
				if sl.got == s.live && sl.aggregate(s.dead, s.live) == nil {
					s.flushWaitingLocked(k, sl)
				}
			} else if sl.queued == 0 && s.allServedLocked(sl) {
				// w may have been the only worker not yet served.
				s.retireSlotLocked(k, sl)
			}
		}
	}
	s.mu.Unlock()
	if orphaned != nil {
		// Nobody left to serve on the connection: close it so the dropped
		// workers observe the failure instead of waiting out their pulls.
		orphaned.mc.Close()
	}
}

// allDeadLocked reports whether every listed worker has been dropped.
func (s *Server) allDeadLocked(ids []int) bool {
	for _, w := range ids {
		if !s.dead[w] {
			return false
		}
	}
	return true
}

// allServedLocked reports whether every live worker has received the slot.
func (s *Server) allServedLocked(sl *slot) bool {
	for w := 0; w < s.workers; w++ {
		if !s.dead[w] && !sl.servedBy[w] {
			return false
		}
	}
	return true
}

// PullResult is one pull's outcome: the aggregated tensor, or the error
// that prevented it (a decode failure on the response, a lost connection).
type PullResult struct {
	Data []float64
	Err  error
}

// Client is a worker's dedicated connection to the parameter server: the
// single worker of a one-stream MuxGroup, whose Close closes the connection.
type Client struct {
	*MuxWorker
}

// NewClient wraps a connection whose peer serves one worker (Server.Serve,
// or ServeMux with a single id) and starts its response reader.
func NewClient(conn net.Conn) *Client {
	return &Client{NewMuxGroup(conn, 1, MuxGroupOptions{}).Worker(0)}
}

// Close shuts down the connection, failing pending pulls, and waits for the
// reader to exit.
func (c *Client) Close() error { return c.g.Close() }

// WorkerLink is one worker's connection surface to one parameter server: a
// *MuxWorker — one stream of a connection carrying any number of in-process
// workers — or a *Client, the one-stream case that also owns the connection.
// A sharded deployment gives each worker one link per shard server; the
// caller routes a tensor to its shard's link (internal/emu does, by the
// key→shard map of internal/shard). Teardown is the connection owner's:
// MuxGroup.Close or Client.Close.
//
// A result channel from PullAsync or PushPullBatch delivers exactly one
// value. Once that value has been received the link may hand the same
// channel out for a later pull, so receive from it once and then drop it;
// a channel whose value is never received is never reused.
type WorkerLink interface {
	Push(iter, tensor int, data []float64) error
	PullAsync(iter, tensor int) (<-chan PullResult, error)
	PushPullBatch(iter int, tensors []int, grad func(tensor int) []float64, res func(tensor int, ch <-chan PullResult)) error
	Pull(iter, tensor int) ([]float64, error)
	Recycle(data []float64)
}

var (
	_ WorkerLink = (*Client)(nil)
	_ WorkerLink = (*MuxWorker)(nil)
)
