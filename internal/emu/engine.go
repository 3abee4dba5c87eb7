package emu

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"prophet/internal/nn"
	"prophet/internal/probe"
	"prophet/internal/ps"
)

// liveEngine is the pluggable wire engine beneath the drive layer: the
// worker loop decides *what* to send (the scheduler, replayed through a
// drive.Driver) and the engine decides *how* the bytes move and how the
// aggregated gradients come back. Two implementations exist: psEngine
// (sharded parameter server over per-worker or shared pipes — the paper's
// testbed) and collectiveEngine (peer-to-peer ring/tree chunk
// exchange, see internal/collective). Probe span emission for the wire
// lives behind the engine too, so both transports produce the event
// stream the SpanRecorder and the attribution analyzer expect.
//
// An engine instance belongs to one worker goroutine and works on that
// worker's model: it reads the gradients it ships from m.GradData and
// leaves each tensor's mean there, so nothing crosses the seam but the
// sends and an ack time.
type liveEngine interface {
	// Bind attaches the worker's model and probe context. Called once,
	// before any Dispatch.
	Bind(m *nn.MLP, pp pushParams)
	// Dispatch executes one iteration's decided sends on the wire, in
	// decision order, under the cross-shard priority gate, reading each
	// tensor's gradient from the bound model.
	Dispatch(iter int, sends []wireSend) error
	// Await blocks until tensor idx's aggregated gradient of iteration
	// iter is in the bound model's gradient (m.GradData(idx)), returning
	// the wall-clock ack time.
	Await(iter, idx int, timeout time.Duration) (time.Time, error)
}

// psEngine executes decided sends against the sharded parameter server:
// push + inline pull-request batches per shard (PushPullBatch), responses
// awaited per tensor. links[s] is the worker's link to shard s, and tensor t
// always talks to links[of(t)]: every worker and every shard server derives
// the same key→shard map from the tensor sizes alone (internal/shard), so no
// routing metadata crosses the wire — how MXNet KVStore and BytePS
// range-shard keys across PS instances.
type psEngine struct {
	links   []ps.WorkerLink
	of      func(tensor int) int
	metrics *probe.Metrics
	// inline dispatches on the worker's own goroutine. Set on shared
	// pipes, which serialize writes anyway; private pipes get a writer
	// goroutine per shard so one message's per-shard sub-sends move in
	// parallel on their own links.
	inline bool

	m     *nn.MLP
	grad  func(t int) []float64 // m.GradData, as the batch reads it
	pp    pushParams
	chans []<-chan ps.PullResult
	// deliver files a tensor's pull-result channel. It runs inside
	// PushPullBatch before any byte is written; tensor indices are distinct
	// across shard writers, so no two writers race on a chans slot.
	deliver func(t int, ch <-chan ps.PullResult)
	// ranges[s] is shard s's SendStart scratch (observers copy), touched
	// only by whichever goroutine dispatches shard s.
	ranges [][]probe.Range
}

// Bind implements liveEngine.
func (e *psEngine) Bind(m *nn.MLP, pp pushParams) {
	e.m = m
	e.grad = func(t int) []float64 { return m.GradData(t) }
	e.pp = pp
	e.chans = make([]<-chan ps.PullResult, len(pp.sizes))
	e.deliver = func(t int, ch <-chan ps.PullResult) { e.chans[t] = ch }
	e.ranges = make([][]probe.Range, len(e.links))
}

// Dispatch implements liveEngine: it executes the decided sends under the
// cross-shard priority gate. One writer goroutine per shard performs the
// actual wire calls; the coordinator hands each send's tensor group to its
// shard writer over an unbuffered channel, so a handoff completes only
// when the writer has accepted (started) the group. All of send k's
// tensors are therefore started before any tensor of send k+1 is offered —
// no shard starts a lower-priority message while a higher-priority one has
// undispatched tensors — while sends of one scheduler message flow in
// parallel on their shard links (the driver queues a message's per-shard
// sub-sends back-to-back).
//
// A shard writer flushes all tensors of one send — plus their inline pull
// requests — as ONE buffered write (ps.WorkerLink.PushPullBatch): the live
// analogue of the simulator's message granularity, and the Parameter-Box
// batched wire format. Strategies whose messages complete one tensor at a
// time (FIFO, credit slices) degenerate to one push+pull-request pair per
// flush; Prophet blocks ship all their tensors in a single write.
func (e *psEngine) Dispatch(iter int, sends []wireSend) error {
	if e.inline {
		return e.dispatchInline(iter, sends)
	}
	shards := len(e.links)
	jobs := make([]chan pushJob, shards)
	errs := make([]error, shards)
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		jobs[s] = make(chan pushJob)
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for job := range jobs[s] {
				if errs[s] != nil {
					continue // keep draining so the coordinator never blocks
				}
				errs[s] = e.send(s, job.seq, iter, job.tensors)
			}
		}(s)
	}
	for seq, snd := range sends {
		if len(snd.tensors) == 0 {
			continue
		}
		// The tensors slice is handed to the writer as-is; the collector
		// that owns it is not reset until after wg.Wait below.
		jobs[snd.lane] <- pushJob{tensors: snd.tensors, seq: seq}
	}
	for s := 0; s < shards; s++ {
		close(jobs[s])
	}
	wg.Wait()
	return errors.Join(errs...)
}

// dispatchInline is Dispatch for shared pipes: the worker dispatches
// each send itself, in decision order. The cross-shard priority gate holds
// trivially (send k's batch returns before send k+1 is offered), and the
// probe event stream keeps the exact shape of the goroutine path: one
// SendStart span per flushed batch, SendComplete on return.
func (e *psEngine) dispatchInline(iter int, sends []wireSend) error {
	for seq, snd := range sends {
		if len(snd.tensors) == 0 {
			continue
		}
		if err := e.send(snd.lane, seq, iter, snd.tensors); err != nil {
			return err
		}
	}
	return nil
}

// send puts one decided send on shard s's wire — SendStart span, the
// tensors plus their inline pull requests as ONE batched write,
// SendComplete on return — whichever goroutine dispatches it.
func (e *psEngine) send(s, seq, iter int, tensors []int) error {
	pp := &e.pp
	e.ranges[s] = pp.sendStart(e.ranges[s], s, seq, iter, tensors)
	if err := e.links[s].PushPullBatch(iter, tensors, e.grad, e.deliver); err != nil {
		return fmt.Errorf("push batch %v (shard %d): %w", tensors, s, err)
	}
	if pp.obs != nil {
		pp.obs.SendComplete(pp.worker, s, iter, pp.clock())
	}
	return nil
}

// Await implements liveEngine: it waits for tensor idx's aggregated pull
// response, emits the PullAcked probe event on arrival, copies the mean into
// the model's gradient and recycles the response buffer on the tensor's
// link.
func (e *psEngine) Await(iter, idx int, timeout time.Duration) (time.Time, error) {
	agg, err := awaitPull(e.chans[idx], timeout)
	if err != nil {
		if errors.Is(err, ErrPullTimeout) {
			e.metrics.Counter("emu_pull_timeouts").Inc()
		}
		return time.Time{}, err
	}
	acked := time.Now()
	if e.pp.obs != nil {
		e.pp.obs.PullAcked(e.pp.worker, idx, iter, e.pp.clock())
	}
	e.m.SetGrad(idx, agg)
	e.links[e.of(idx)].Recycle(agg)
	return acked, nil
}

// ErrPullTimeout marks a parameter pull that outlived its bound
// (Config.PullTimeout, or the default a faulted run gets).
var ErrPullTimeout = errors.New("emu: pull timed out")

// awaitPull waits for one pull result with an optional timeout: the only
// bound on a pull, since the ps client waits until the response or the
// connection's end.
func awaitPull(ch <-chan ps.PullResult, timeout time.Duration) ([]float64, error) {
	if timeout <= 0 {
		r, ok := <-ch
		return pullOutcome(r, ok)
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case r, ok := <-ch:
		return pullOutcome(r, ok)
	case <-timer.C:
		return nil, fmt.Errorf("%w after %v", ErrPullTimeout, timeout)
	}
}

func pullOutcome(r ps.PullResult, ok bool) ([]float64, error) {
	if !ok {
		return nil, fmt.Errorf("%w: channel closed", ps.ErrConnLost)
	}
	if r.Err != nil {
		return nil, r.Err
	}
	return r.Data, nil
}

// pushJob is one send's tensor group handed to a shard writer, flushed as
// a single batched write, plus the scheduler message sequence it belongs
// to.
type pushJob struct {
	tensors []int
	seq     int
}

// pushParams carries the probe context of one worker's engine: obs is nil
// in unobserved runs, and labels is only populated when it is not. sizes
// and labels point into the run's shared read-only workerTables.
//
// planObs and predictBw arm the prediction audit: when both are set, the
// engine announces each send's planned wire window (dispatch instant to
// dispatch + bytes/predictBw) through SendPlanned just before SendStart.
// The planned start is read from the same clock sample as the observed
// start, so the residual isolates transmit divergence — framing overhead,
// shard contention, injected faults — from scheduling slack.
type pushParams struct {
	worker    int
	sizes     []float64
	labels    []string
	obs       probe.Observer
	planObs   probe.PlanObserver
	predictBw float64
	clock     func() float64
}

// sendStart opens the span of one flushed batch: ONE SendStart carrying a
// range per tensor — the multi-range message shape the simulator's driver
// emits; a single-tensor send is one span per push — preceded by its
// SendPlanned window when the audit is armed. ranges is the caller's
// reusable scratch (observers copy), returned for the next call.
func (pp *pushParams) sendStart(ranges []probe.Range, lane, seq, iter int, tensors []int) []probe.Range {
	if pp.obs == nil {
		return ranges
	}
	ranges = ranges[:0]
	var total float64
	for _, idx := range tensors {
		ranges = append(ranges, probe.Range{Grad: idx, Bytes: pp.sizes[idx], Last: true})
		total += pp.sizes[idx]
	}
	first := tensors[0]
	now := pp.clock()
	if pp.planObs != nil && pp.predictBw > 0 {
		pp.planObs.SendPlanned(pp.worker, lane, seq, iter, total, now, now+total/pp.predictBw)
	}
	pp.obs.SendStart(pp.worker, lane, seq, iter, pp.labels[first], total, ranges, now)
	return ranges
}
