// Package emu runs *real* data-parallel training — the MLP from
// internal/nn, actual gradient bytes, a live parameter server from
// internal/ps over rate-shaped connections — under the communication
// schedules the paper studies. It is the systems-level complement to the
// discrete-event simulator: goroutines instead of events, wall-clock time
// instead of a virtual clock.
//
// Scheduling runs through the same stack as the simulator: a
// schedule.Scheduler from the shared strategy registry, driven by a
// drive.Driver. Each iteration the measured backward-pass releases are
// replayed through the driver (communication is slow relative to backward
// compute, so the scheduler sees the whole iteration's gradients and then
// drains — the accumulate-then-reorder regime the strategies were built
// for), and the resulting message sequence is executed on the live
// parameter-server connections: a tensor's bytes ship when the scheduler
// emits the piece that completes it.
//
// Because the parameter server aggregates deterministically, every
// schedule produces the bit-identical training trajectory; what changes is
// *when* tensors move. The emulation records, per iteration, when tensor 0
// (the gradient gating the next forward pass) finished its round trip.
//
// # Fault tolerance
//
// Worker links can be perturbed with the injectors from internal/fault
// (Config.Faults) on every transport, and Config.Failure selects how
// training degrades: fail fast with a descriptive error, or — with a
// parameter server to do it — wait out a configurable grace period, or drop
// the faulty worker and renormalize the gradient mean over the survivors.
// With any fault configuration the run either completes under the chosen
// policy or fails within the configured deadlines — it never hangs.
package emu

import (
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"strconv"
	"sync"
	"time"

	"prophet/internal/collective"
	"prophet/internal/core"
	"prophet/internal/drive"
	"prophet/internal/fault"
	"prophet/internal/nn"
	"prophet/internal/probe"
	"prophet/internal/ps"
	"prophet/internal/schedule"
	"prophet/internal/shard"
	"prophet/internal/strategy"
	"prophet/internal/tensor"
	"prophet/internal/transport"
)

// FailurePolicy selects how the emulation degrades when a worker link
// faults or stalls.
type FailurePolicy string

// Supported failure policies.
const (
	// FailFast aborts the whole run the moment the server sees a worker's
	// link fail. A stall breaks no link, so it aborts nothing eagerly:
	// PullTimeout bounds every wait instead, a stall shorter than it
	// completes the run, and a longer one ends the worker whose pull timed
	// out while the others stop at their own bounded waits. Default.
	FailFast FailurePolicy = "fail-fast"
	// DropWorker removes failed or straggling workers from the aggregation
	// barrier and renormalizes the gradient mean over the survivors; the
	// run completes with Result.DroppedWorkers recording the casualties.
	DropWorker FailurePolicy = "drop-worker"
)

// Config describes an emulated training job.
type Config struct {
	// Workers is the number of data-parallel workers (goroutines).
	Workers int
	// Layers gives the MLP architecture, e.g. {20, 64, 64, 4}.
	Layers []int
	// Dataset is sharded round-robin across workers.
	Dataset *nn.Dataset
	// Batch is the per-worker mini-batch size.
	Batch int
	// Iterations is the number of synchronous SGD steps.
	Iterations int
	// LR is the SGD learning rate.
	LR float64
	// Policy selects the scheduling strategy by its registry name
	// (internal/strategy): fifo, p3, tictac, bytescheduler,
	// bytescheduler-tuned, fusion, prophet. Default fifo.
	Policy string
	// Profile, when set, is the generation pattern Prophet plans against
	// from iteration 0 onwards. When nil, prophet runs iteration 0 under
	// FIFO while measuring per-tensor generation times (the paper's
	// profiling window) and plans from the measurement.
	Profile *core.Profile
	// BandwidthBytesPerSec shapes each worker's uplink and downlink
	// (0 = unshaped).
	BandwidthBytesPerSec float64
	// Seed drives model initialization (shared by all workers — they must
	// start from identical parameters) and the tuner's exploration.
	Seed uint64

	// Transport names the wire engine beneath the drive layer, resolved
	// through drive.BackendByName: "ps" (default) runs the sharded
	// parameter server of the paper's testbed; "ring" and "tree" run the
	// peer-to-peer collective exchange (internal/collective), where the
	// decided sends play — back-to-back small ones fused into one op — as
	// lockstep all-reduce ops of the backend's chunk schedule and the
	// aggregated mean lands on every worker as the op completes. A collective transport is the shared-pipe topology (see
	// Mux) at one shard with the workers themselves on the far end, so it
	// takes everything a shared pipe takes — byte-offset Faults, Deadline,
	// PullTimeout as the per-op bound — and rejects only what has no
	// physical meaning: fewer than 2 workers (tree: not a power of two),
	// Shards > 1 (no server to shard), and the drop-worker policy (a
	// lockstep exchange that loses a peer can only stop).
	Transport string

	// Shards runs that many parameter server instances, partitioning
	// tensors across them by a deterministic key→shard map (0 or 1 = the
	// single PS of the paper's testbed). Each shard gets its own
	// rate-shaped connection per worker, so aggregate PS bandwidth scales
	// with the shard count — the Parameter-Box/BytePS deployment shape.
	// Messages are dispatched under the cross-shard priority gate: no
	// shard starts a lower-priority message while a higher-priority one
	// still has undispatched tensors.
	Shards int
	// ShardPlacement selects the key→shard map (default round-robin).
	ShardPlacement shard.Placement

	// Mux selects the PS pipe topology, not a protocol — every pipe speaks
	// the one tagged-frame wire of internal/transport, with a stream per
	// worker it carries. False: a private pipe per worker×shard (one stream
	// each), the shape per-worker rate limits and Throttle faults physically
	// need. True: ONE shared pipe per shard carrying every worker, so the
	// per-pipe goroutine cost (four: demux + writer on each side) is
	// per-shard instead of per-worker×shard — what makes Workers ≥ 1000
	// practical on a single host. Collective transports always run on the
	// shared pipe, so Mux changes nothing there. Scheduling decisions replay
	// before any byte moves, so decision logs and training trajectories are
	// bit-identical across the two. A pipe is shaped to
	// BandwidthBytesPerSec times the workers on it, so each worker's fair
	// share is B and the per-shard aggregate Workers×B either way; timing
	// differs only in serialization (one worker can transiently burst past
	// B on a shared wire).
	Mux bool

	// Faults maps a worker id to a fault injection spec (see
	// internal/fault) wrapped around the client end of whichever pipe
	// carries that worker, on every transport. Byte-offset injectors
	// (drop/stall/corrupt) count bytes of the pipe's whole write stream, so
	// on a shared pipe a tripped injector perturbs every worker on it, not
	// just the one whose spec it was. Throttle is rejected on a shared pipe
	// (Mux, ring, tree): it would throttle the whole wire.
	Faults map[int]fault.Spec
	// Failure selects the degradation policy (default FailFast, the only
	// one a collective transport supports).
	Failure FailurePolicy
	// PullTimeout bounds each wait on the wire: a parameter pull, or one
	// whole all-reduce op on a collective transport (past it the run aborts
	// with an error naming transport, iteration and op). Zero keeps the
	// fault-free default (wait forever, no timer armed) unless faults, a
	// policy or a deadline are configured, in which case it defaults to 10s
	// so a faulted run can never hang.
	PullTimeout time.Duration
	// StragglerTimeout is the server-side detection delay before the
	// drop-worker policy removes missing contributors (default
	// PullTimeout/2).
	StragglerTimeout time.Duration
	// Deadline bounds the whole run; past it the emulation aborts with a
	// descriptive error (0 = none).
	Deadline time.Duration

	// Observer, when non-nil, receives the live probe event stream (times
	// are wall-clock seconds since run start). It must be safe for
	// concurrent use: per-shard writer goroutines emit send events
	// concurrently with the worker loops' iteration and pull events.
	// Observation is passive — it never changes what the schedulers decide.
	// An Observer that is a probe.PlanObserver (a predict.Auditor, alone or
	// in a probe.NewMulti) also arms the prediction audit when
	// BandwidthBytesPerSec is positive: each engine announces planned wire
	// windows (dispatch + bytes at that rate, divided by the transport's
	// wire volume) through SendPlanned just before the matching SendStart.
	Observer probe.Observer
	// Metrics, when non-nil, collects live counters and histograms:
	// transport traffic, parameter-server frames and failures, pull
	// timeouts, fault injections. The registry is also fed the probe event
	// stream (see Metrics.Observer).
	Metrics *probe.Metrics

	// backend is Transport resolved, once, by validate.
	backend drive.Backend
}

// waitBound is the never-hang bound on each wait on the wire — a parameter
// pull, a whole collective op: PullTimeout when set, else 10 s once any
// fault handling (faults, a policy, a deadline) is configured, else none.
// It reads what the caller set, so it must run before validate fills in
// the default policy.
func (c *Config) waitBound() time.Duration {
	if c.PullTimeout <= 0 && (len(c.Faults) > 0 || c.Failure != "" || c.Deadline > 0) {
		return 10 * time.Second
	}
	return c.PullTimeout
}

// sharedPipe reports whether every worker rides one pipe (per shard): by
// choice under Mux, by construction on a collective transport, whose fabric
// is that pipe with peers on the far end.
func (c *Config) sharedPipe() bool { return c.Mux || c.Transport != "ps" }

func (c *Config) validate() error {
	if c.Workers <= 0 {
		return fmt.Errorf("emu: workers %d", c.Workers)
	}
	if len(c.Layers) < 2 {
		return fmt.Errorf("emu: need at least 2 layer sizes")
	}
	for i, width := range c.Layers {
		if width <= 0 {
			return fmt.Errorf("emu: Layers[%d] is %d; every layer width must be positive", i, width)
		}
	}
	if c.Dataset == nil {
		return fmt.Errorf("emu: nil dataset")
	}
	if c.Batch <= 0 || c.Iterations <= 0 || c.LR <= 0 {
		return fmt.Errorf("emu: batch/iterations/lr must be positive")
	}
	if c.Batch > c.Dataset.X.Rows {
		return fmt.Errorf("emu: Batch %d exceeds the dataset's %d rows", c.Batch, c.Dataset.X.Rows)
	}
	if c.Policy == "" {
		c.Policy = "fifo"
	}
	if err := strategy.Check(c.Policy); err != nil {
		return fmt.Errorf("emu: %w", err)
	}
	switch c.Failure {
	case FailFast, DropWorker:
	case "":
		c.Failure = FailFast
	default:
		return fmt.Errorf("emu: unknown failure policy %q", c.Failure)
	}
	for w := range c.Faults {
		if w < 0 || w >= c.Workers {
			return fmt.Errorf("emu: fault spec for unknown worker %d", w)
		}
	}
	if c.Shards < 0 {
		return fmt.Errorf("emu: negative shard count %d", c.Shards)
	}
	if c.Shards == 0 {
		c.Shards = 1
	}
	if c.Transport == "" {
		c.Transport = "ps"
	}
	var err error
	if c.backend, err = drive.BackendByName(c.Transport); err != nil {
		return fmt.Errorf("emu: %w", err)
	}
	if c.Transport != "ps" {
		// What is left is physical: the schedule needs its peers, there is
		// no server to shard, and nobody to renormalize a mean without a
		// dropped peer — a lockstep exchange can only stop.
		if _, err := collective.Check(c.Transport, c.Workers); err != nil {
			return fmt.Errorf("emu: %w", err)
		}
		if c.Shards > 1 {
			return fmt.Errorf("emu: transport %q has no parameter server to shard (Shards %d)", c.Transport, c.Shards)
		}
		if c.Failure != FailFast {
			return fmt.Errorf("emu: transport %q is a lockstep exchange and can only fail fast, not %q", c.Transport, c.Failure)
		}
	}
	if c.sharedPipe() {
		// Byte-offset injectors compose on a shared pipe (the tagged stream
		// hits identical offsets); per-worker rate shaping cannot — it would
		// throttle every worker on the wire.
		for w, spec := range c.Faults {
			if spec.ThrottleBytesPerSec > 0 {
				return fmt.Errorf("emu: worker %d: a throttle fault shapes one worker's private pipe; Mux and the collective transports put every worker on a shared one", w)
			}
		}
	}
	if c.Dataset.X.Cols != c.Layers[0] {
		return fmt.Errorf("emu: dataset has %d features, model expects %d", c.Dataset.X.Cols, c.Layers[0])
	}
	// A label the model has no class for would panic on a worker goroutine,
	// where no caller can recover.
	if len(c.Dataset.Labels) != c.Dataset.X.Rows {
		return fmt.Errorf("emu: Dataset.Labels has %d entries for %d rows", len(c.Dataset.Labels), c.Dataset.X.Rows)
	}
	classes := c.Layers[len(c.Layers)-1]
	for r, label := range c.Dataset.Labels {
		if label < 0 || label >= classes {
			return fmt.Errorf("emu: Dataset.Labels[%d] is %d; the model has %d classes", r, label, classes)
		}
	}
	return nil
}

// Result reports the emulated run.
type Result struct {
	// Losses[i] is the full-dataset loss after iteration i, evaluated on
	// worker 0's model (all workers are identical). Worker 0's helper
	// goroutine computes it during iteration i+1, from the moment tensor 0's
	// aggregate is back until just before Step — the parameters are still
	// iteration i's, and the remaining pulls are wire time — and computes
	// the last iteration's at that iteration's end. Every evaluation is
	// inside one of worker 0's IterationTime entries.
	Losses []float64
	// FinalAccuracy is worker 0's accuracy on the full dataset, from the
	// evaluation that gave the last Losses entry.
	FinalAccuracy float64
	// Tensor0RoundTrip[i] is how long after backward-start tensor 0's
	// aggregated gradient was back on worker 0 in iteration i — the
	// latency that gates the next forward pass.
	Tensor0RoundTrip []time.Duration
	// IterationTime[i] is worker 0's wall time for iteration i.
	IterationTime []time.Duration
	// PushOrder is worker 0's tensor push order in the last iteration: the
	// order in which the scheduler completed each tensor (Last pieces).
	PushOrder []int
	// Messages is worker 0's scheduler decision log across all iterations
	// (one drive.Record per emitted message, in emission order) — the
	// cross-path mirror test compares it against the simulator's log.
	Messages []drive.Record
	// Duration is the total wall time.
	Duration time.Duration
	// FinalParams is worker 0's flattened parameters (for cross-policy
	// equality checks).
	FinalParams []float64
	// DroppedWorkers lists workers removed under the DropWorker policy,
	// ascending. The per-iteration fields above are worker 0's, so a run
	// that loses worker 0 before its last iteration fails with an error
	// instead of returning them cut short.
	DroppedWorkers []int
	// Phases is where the workers' iterations went, reduced across workers.
	Phases PhaseTimes
}

// Phases is wall time per iteration in each phase of the worker loop. What
// no phase covers — the scheduler's decision replay, observer calls — is
// the rest of the iteration.
type Phases struct {
	// Compute is Forward + Backward.
	Compute time.Duration
	// Wire is Dispatch plus the Await loop: the pushes, then the wait for
	// every aggregate.
	Wire time.Duration
	// Update is Step.
	Update time.Duration
	// EvalWait is worker 0's time blocked joining its evaluation helper —
	// the evaluation the pull leg did not hide — and zero on every other
	// worker.
	EvalWait time.Duration
}

// PhaseTimes reduces the workers' Phases the way a BSP barrier hides them:
// each worker's mean per iteration, with iteration 0 (warm-up, and prophet's
// profiling window) excluded, then the mean and the max of those across
// workers. Max over mean is the straggler signal.
type PhaseTimes struct {
	Mean, Max Phases
	// Eval is worker 0's helper's own evaluation time per iteration; the
	// part of it EvalWait does not show ran alongside the pull leg.
	Eval time.Duration
}

// phaseSlot is one worker's running totals over its iterations after the
// first. Only that worker's goroutine writes it; Run reduces the slots once
// every worker has returned.
type phaseSlot struct {
	sum   Phases
	eval  time.Duration // worker 0's helper
	iters int
}

func reducePhases(slots []phaseSlot) PhaseTimes {
	var mean, most [4]time.Duration
	n := 0
	for _, s := range slots {
		if s.iters == 0 {
			continue
		}
		n++
		for p, d := range [4]time.Duration{s.sum.Compute, s.sum.Wire, s.sum.Update, s.sum.EvalWait} {
			d /= time.Duration(s.iters)
			mean[p] += d
			most[p] = max(most[p], d)
		}
	}
	for p := range mean {
		if n > 0 {
			mean[p] /= time.Duration(n)
		}
	}
	pt := PhaseTimes{
		Mean: Phases{mean[0], mean[1], mean[2], mean[3]},
		Max:  Phases{most[0], most[1], most[2], most[3]},
	}
	if s := slots[0]; s.iters > 0 {
		pt.Eval = s.eval / time.Duration(s.iters)
	}
	return pt
}

// Run executes the emulation.
func Run(cfg Config) (*Result, error) {
	// Read off the caller's configuration: validate fills in the default
	// policy, after which every run would look fault-tolerant.
	waitBound := cfg.waitBound()
	if err := cfg.validate(); err != nil {
		return nil, err
	}

	// All probe events share one clock: wall seconds since run start. The
	// registry's own observer is folded into the caller's, so counters
	// accumulate even when no recorder is attached.
	runStart := time.Now()
	clock := func() float64 { return time.Since(runStart).Seconds() }
	cfg.Observer = probe.NewMulti(cfg.Observer, cfg.Metrics.Observer())

	// The per-worker constant tables are shared by every worker goroutine;
	// the key→shard map is derived from the tensor sizes alone, so every
	// worker and every shard server computes the identical assignment.
	tables := newWorkerTables(&cfg)
	smap, err := shard.New(tables.sizes, cfg.Shards, cfg.ShardPlacement)
	if err != nil {
		return nil, fmt.Errorf("emu: %w", err)
	}
	shards := smap.Shards()

	// Every pipe of every transport is built, shaped, metered and
	// fault-wrapped here and nowhere else: streamsPerPipe workers each (see
	// Config.Mux; a collective transport is the shared-pipe topology at one
	// shard), shaped to their aggregate so per-shard ingest is Workers×B on
	// every topology, matching the simulator's ShardUplink default.
	lockstep := cfg.Transport != "ps"
	streamsPerPipe, meterLabel := 1, "transport_worker"
	if cfg.sharedPipe() {
		streamsPerPipe = cfg.Workers
	}
	if lockstep {
		meterLabel = "transport_collective"
	}
	pipeBW := cfg.BandwidthBytesPerSec * float64(streamsPerPipe)
	type pipe struct {
		shard  int
		ids    []int    // workers carried, by stream
		client net.Conn // outermost fault/meter wrapper
		server net.Conn // far end
	}
	var pipes []pipe
	// fatalErr is the first abort cause and injected the first injector to
	// fire, as "W's pipe: kind" — recorded whether or not anyone observes the
	// run, so the error a faulted run ends in can name it.
	var fatalMu sync.Mutex
	var fatalErr error
	var injected string
	for s := 0; s < shards; s++ {
		for lo := 0; lo < cfg.Workers; lo += streamsPerPipe {
			a, b := transport.Pipe(pipeBW, pipeBW)
			// Meter inside the fault wrap, so only bytes that actually
			// reach the wire are counted.
			a = transport.Meter(a, cfg.Metrics, meterLabel)
			// A worker's fault spec wraps the client end of every pipe that
			// carries it, in ascending worker order so byte offsets stay
			// deterministic.
			ids := make([]int, streamsPerPipe)
			for i := range ids {
				w := lo + i
				ids[i] = w
				if spec, ok := cfg.Faults[w]; ok {
					a = spec.WrapObserved(a, func(kind string) {
						fatalMu.Lock()
						if injected == "" {
							injected = fmt.Sprintf("%d's pipe: %s", w, kind)
						}
						fatalMu.Unlock()
						if obs := cfg.Observer; obs != nil {
							obs.FaultInjected(w, kind, clock())
						}
					})
				}
			}
			pipes = append(pipes, pipe{shard: s, ids: ids, client: a, server: b})
		}
	}

	var board *planBoard // lockstep transports: worker 0's plans for the followers

	// abort unblocks every goroutine by closing all connections (a fabric's
	// demux loops fail its waiting peers when their pipe closes) and failing
	// the plan board, and records the first abort cause.
	var abortOnce sync.Once
	abort := func(cause error) {
		fatalMu.Lock()
		if fatalErr == nil && cause != nil {
			fatalErr = cause
		}
		fatalMu.Unlock()
		abortOnce.Do(func() {
			if board != nil {
				board.fail(cause)
			}
			for _, p := range pipes {
				p.client.Close()
				p.server.Close()
			}
		})
	}

	// Hand the pipe ends to whoever is on them: the workers themselves
	// through the fabric, or a MuxGroup facing a parameter server per shard
	// — the only transport branch of the run.
	var servers []*ps.Server
	var owners []io.Closer // the Fabric or MuxGroups holding the client ends
	serving := 0           // ServeMux calls in flight
	serveDone := make(chan error, len(pipes))
	engines := make([]liveEngine, cfg.Workers)
	if lockstep {
		fab, err := collective.Over(cfg.Transport, cfg.Workers, pipes[0].client, pipes[0].server)
		if err != nil {
			return nil, fmt.Errorf("emu: %w", err)
		}
		owners = append(owners, fab)
		board = newPlanBoard(cfg.Iterations)
		for w := range engines {
			engines[w] = &collectiveEngine{
				peer: fab.Peer(w), workers: cfg.Workers, name: cfg.Transport,
				opBound: waitBound, abort: abort,
			}
		}
	} else {
		// dropEverywhere removes workers from every shard's barrier: a worker
		// whose link to one shard failed cannot contribute a consistent model
		// update, so the survivors' mean must exclude it on all shards. A
		// pipe whose workers are all dropped carries nothing the run waits
		// for, so its client end is closed too: that ends a throttled write
		// which would otherwise drain at the straggler's rate.
		dropEverywhere := func(ws []int) {
			for _, srv := range servers {
				for _, w := range ws {
					srv.DropWorker(w)
				}
			}
			for _, p := range pipes {
				if !slices.ContainsFunc(p.ids, func(w int) bool { return !servers[0].IsDropped(w) }) {
					p.client.Close()
				}
			}
		}
		for s := 0; s < shards; s++ {
			srv := ps.NewServer(cfg.Workers)
			srv.SetMetrics(cfg.Metrics)
			switch cfg.Failure {
			case DropWorker:
				st := cfg.StragglerTimeout
				if st <= 0 {
					st = waitBound / 2
				}
				srv.SetStragglerPolicy(st, dropEverywhere)
				srv.OnWorkerFailure(func(w int, err error) { dropEverywhere([]int{w}) })
			case FailFast:
				srv.OnWorkerFailure(func(w int, err error) {
					abort(fmt.Errorf("emu: fail-fast: %w", err))
				})
			}
			servers = append(servers, srv)
		}
		links := make([][]ps.WorkerLink, cfg.Workers)
		for w := range links {
			links[w] = make([]ps.WorkerLink, shards)
		}
		for _, p := range pipes {
			g := ps.NewMuxGroup(p.client, streamsPerPipe, ps.MuxGroupOptions{Metrics: cfg.Metrics})
			owners = append(owners, g)
			for i, w := range p.ids {
				links[w][p.shard] = g.Worker(i)
			}
			serving++
			go func() { serveDone <- servers[p.shard].ServeMux(p.server, p.ids) }()
		}
		for w := range engines {
			engines[w] = &psEngine{links: links[w], of: smap.Of, metrics: cfg.Metrics, inline: cfg.Mux}
		}
		tables.lanes, tables.laneOf = shards, smap.Of
	}

	if cfg.Deadline > 0 {
		watchdog := time.AfterFunc(cfg.Deadline, func() {
			abort(fmt.Errorf("emu: run exceeded deadline %v (transport %s, policy %s)", cfg.Deadline, cfg.Transport, cfg.Failure))
		})
		defer watchdog.Stop()
	}

	res := &Result{}
	workerErrs := make([]error, cfg.Workers)
	phases := make([]phaseSlot, cfg.Workers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := range engines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			workerErrs[w] = runWorker(w, cfg, waitBound, engines[w], board, tables, res, &phases[w], clock)
			if lockstep && workerErrs[w] != nil {
				// Lockstep peers are blocked mid-exchange on this worker:
				// tear the wire down so they fail instead of hanging.
				abort(workerErrs[w])
			}
		}()
	}
	wg.Wait()
	res.Duration = time.Since(start)
	res.Phases = reducePhases(phases)

	// The owners hold the client-side conns: closing them is what delivers
	// the clean EOF that lets ServeMux return.
	for _, o := range owners {
		o.Close()
	}
	for _, p := range pipes {
		p.server.Close()
	}
	var serveErrs []error
	for ; serving > 0; serving-- {
		serveErrs = append(serveErrs, <-serveDone)
	}
	serveErr := errors.Join(serveErrs...)
	if len(servers) > 0 {
		// Every drop goes through dropEverywhere, so every shard server holds
		// the same dropped set: one server's, already ascending, is the run's.
		res.DroppedWorkers = servers[0].Dropped()
	}

	fatalMu.Lock()
	fatal, fired := fatalErr, injected
	fatalMu.Unlock()
	// Whatever error ends a faulted run names the first injector that fired.
	failed := func(err error) (*Result, error) {
		if fired != "" {
			err = fmt.Errorf("%w (fault injected on worker %s)", err, fired)
		}
		return nil, err
	}
	if fatal != nil {
		return failed(fatal)
	}
	if serveErr != nil {
		return failed(fmt.Errorf("emu: parameter server: %w", serveErr))
	}
	if len(res.DroppedWorkers) >= cfg.Workers {
		return failed(fmt.Errorf("emu: every worker was dropped (policy %s)", cfg.Failure))
	}
	for w, err := range workerErrs {
		if err == nil {
			continue
		}
		if cfg.Failure == DropWorker && slices.Contains(res.DroppedWorkers, w) {
			if w != 0 {
				continue // part of the configured degradation
			}
			// Losses, IterationTime and Tensor0RoundTrip are worker 0's own:
			// without it the run did not complete, it was cut short.
			err = fmt.Errorf("emu: worker 0, whose iterations the Result records, was dropped: %w", err)
		}
		return failed(err)
	}
	return res, nil
}

// workerTables holds the constant per-worker tables, built once per run
// and shared read-only across all worker goroutines — rebuilding them per
// worker was a measurable slice of cold-start allocation at 1000-worker
// scale.
type workerTables struct {
	sizes  []float64
	labels []string
	// payloadBw is the effective rate per payload byte on a shaped link,
	// zero on an unshaped one. A collective costs steps×chunk per tensor on
	// the wire, so what the schedulers plan against and the planned windows
	// are priced at is the link rate divided by the backend's total chunk
	// volume (1 on the PS wire) — the same scaling the simulator's bandwidth
	// monitor converges to.
	payloadBw float64
	// lanes and laneOf are the replay driver's dispatch lanes: one per PS
	// shard, routed by the key→shard map, or a collective's one serial lane
	// (laneOf nil), like the simulator's collective driver.
	lanes  int
	laneOf func(int) int
}

func newWorkerTables(cfg *Config) *workerTables {
	t := &workerTables{sizes: tensorSizes(cfg.Layers, cfg.Seed), lanes: 1}
	if cfg.Observer != nil {
		t.labels = pushLabels(len(t.sizes))
	}
	if bw := cfg.BandwidthBytesPerSec; bw > 0 {
		t.payloadBw = bw / drive.WireVolume(cfg.backend, cfg.Workers)
	}
	return t
}

// runWorker executes the synchronous SGD loop for one worker, dispatching
// the decided sends through the transport's liveEngine, and accumulates its
// phase times into ph. board is non-nil on a lockstep transport, where every
// worker must execute the *same* decision sequence (collective ops are
// synchronous and order-sensitive): worker 0 decides and publishes each
// iteration's plan there, and the rest execute it. On the PS wire it is nil
// and every worker decides for itself — the server aggregates per tensor.
func runWorker(w int, cfg Config, pullTimeout time.Duration, eng liveEngine, board *planBoard, tables *workerTables, res *Result, ph *phaseSlot, clock func() float64) error {
	m := nn.NewMLP(cfg.Layers, cfg.Seed)
	nTensors := m.NumTensors()
	shardStride := cfg.Workers * cfg.Batch
	sizes := tables.sizes

	// The observer is never attached to the replay driver: decision replay
	// runs on replay-relative times with a wireless Transmitter, so its
	// send events would be meaningless. The live events are emitted here —
	// at the real backward pass, the real wire sends (engine Dispatch),
	// and the real aggregated-gradient arrivals — on the run's wall clock.
	obs := cfg.Observer
	payloadBw := tables.payloadBw
	pp := pushParams{worker: w, sizes: sizes, labels: tables.labels, obs: obs, clock: clock}
	if payloadBw > 0 {
		if po, ok := obs.(probe.PlanObserver); ok {
			pp.planObs = po
			pp.predictBw = payloadBw
		}
	}
	eng.Bind(m, pp)

	// Followers skip the scheduler stack entirely and execute the board's
	// plan.
	decides := board == nil || w == 0

	var ev *evaluator
	if w == 0 {
		res.Losses = make([]float64, 0, cfg.Iterations)
		res.IterationTime = make([]time.Duration, 0, cfg.Iterations)
		res.Tensor0RoundTrip = make([]time.Duration, 0, cfg.Iterations)
		ev = startEvaluator(m, cfg.Dataset, ph)
		defer ev.stop()
	}

	params := strategy.Params{
		Sizes:   sizes,
		Seed:    cfg.Seed,
		Worker:  w,
		Profile: cfg.Profile,
	}
	if payloadBw > 0 {
		params.Bandwidth = func() float64 { return payloadBw }
	}

	col := &collector{}
	newDriver := func(s schedule.Scheduler) *drive.Driver {
		d := drive.New(s, col, tables.lanes, nTensors, tables.laneOf)
		col.drv = d
		if w == 0 {
			d.SetRecording(true)
		}
		return d
	}

	// Prophet without an explicit profile needs a measured one: the driver
	// stays nil through iteration 0 (which runs FIFO while profiling, like
	// the paper's profiling window) and is built from the measurement.
	var drv *drive.Driver
	if decides && (cfg.Policy != "prophet" || cfg.Profile != nil) {
		s, err := strategy.New(cfg.Policy, params)
		if err != nil {
			return fmt.Errorf("emu: worker %d: %w", w, err)
		}
		drv = newDriver(s)
	}
	var records []drive.Record

	// Per-iteration scratch, allocated once: the events slice is truncated
	// per pass, and x is re-pointed at each iteration's batch.
	events := make([]genEvent, 0, nTensors)
	x := new(tensor.Mat)

	for iter := 0; iter < cfg.Iterations; iter++ {
		iterStart := time.Now()
		if obs != nil {
			obs.BeginIteration(w, iter, clock())
		}
		lo := (iter*shardStride + w*cfg.Batch) % (cfg.Dataset.X.Rows - cfg.Batch + 1)
		batchLabels := cfg.Dataset.BatchInto(x, lo, lo+cfg.Batch)

		fwdStart := time.Now()
		logits := m.Forward(x)
		// Collect tensors in emission order with generation timestamps.
		events = events[:0]
		bwdStart := time.Now()
		m.Backward(logits, batchLabels, func(idx int) {
			events = append(events, genEvent{idx, time.Since(bwdStart)})
			if obs != nil {
				obs.Generated(w, idx, clock())
			}
		})
		computed := time.Now()

		var d *drive.Driver
		var profiling *drive.Driver
		var sends []wireSend
		if decides {
			d = drv
			if d == nil {
				profiling = newDriver(schedule.NewFIFO(sizes))
				d = profiling
			}
			var err error
			sends, err = decide(d, col, iter, events, nTensors)
			if err != nil {
				return fmt.Errorf("emu: worker %d iter %d: %w", w, iter, err)
			}
			if board != nil {
				board.publish(iter, sends)
			}
		} else {
			var err error
			sends, err = board.plan(iter)
			if err != nil {
				return fmt.Errorf("emu: worker %d iter %d: %w", w, iter, err)
			}
		}
		if w == 0 && iter == cfg.Iterations-1 {
			res.PushOrder = pushOrderOf(sends, nTensors)
		}

		// Execute the decided sends on the wire engine: each tensor's
		// bytes move when the scheduler completes it, so a tensor
		// completed early (priority strategies put tensor 0 first)
		// finishes its round trip early.
		dispatched := time.Now()
		if err := eng.Dispatch(iter, sends); err != nil {
			return fmt.Errorf("emu: worker %d iter %d: %w", w, iter, err)
		}
		// Collect in priority order: tensor 0's arrival is what would
		// gate the next forward pass.
		for idx := 0; idx < nTensors; idx++ {
			ackedAt, err := eng.Await(iter, idx, pullTimeout)
			if err != nil {
				return fmt.Errorf("emu: worker %d pull iter %d tensor %d (policy %s): %w",
					w, iter, idx, cfg.Failure, err)
			}
			if idx == 0 && w == 0 {
				res.Tensor0RoundTrip = append(res.Tensor0RoundTrip, ackedAt.Sub(bwdStart))
				if iter > 0 {
					// Step has not run, so the parameters are still
					// iteration iter−1's: evaluate them while the
					// remaining pulls are on the wire.
					ev.start()
				}
			}
		}
		pulled := time.Now()
		if w == 0 && iter > 0 {
			res.Losses = append(res.Losses, ev.join().loss)
		}
		stepStart := time.Now()
		m.Step(cfg.LR)
		if iter > 0 {
			ph.sum.Compute += computed.Sub(fwdStart)
			ph.sum.Wire += pulled.Sub(dispatched)
			ph.sum.Update += time.Since(stepStart)
			ph.iters++
		}
		if w == 0 && iter == cfg.Iterations-1 {
			// The last parameters have no pull leg left to hide in.
			ev.start()
			last := ev.join()
			res.Losses = append(res.Losses, last.loss)
			res.FinalAccuracy = last.accuracy
		}
		if d != nil {
			d.EndIteration(time.Since(iterStart).Seconds())
		}
		if obs != nil {
			obs.EndIteration(w, iter, clock())
		}

		if w == 0 {
			res.IterationTime = append(res.IterationTime, time.Since(iterStart))
		}

		// Build Prophet's scheduler after the profiling iteration.
		if profiling != nil {
			if w == 0 {
				records = append(records, profiling.Records()...)
			}
			prof, err := profileFromEvents(sizes, events)
			if err != nil {
				return fmt.Errorf("emu: worker %d: %w", w, err)
			}
			pp := params
			pp.Profile = prof
			s, err := strategy.New("prophet", pp)
			if err != nil {
				return fmt.Errorf("emu: worker %d: %w", w, err)
			}
			drv = newDriver(s)
		}
	}

	if w == 0 {
		if drv != nil {
			records = append(records, drv.Records()...)
		}
		res.Messages = records
		for idx := 0; idx < nTensors; idx++ {
			res.FinalParams = append(res.FinalParams, m.ParamData(idx)...)
		}
	}
	return nil
}

// evaluator is worker 0's evaluation helper: one goroutine per run that
// computes the full-dataset loss and accuracy of the MLP's parameters as they
// stand when start is called. It reads nothing but the parameters
// (nn.MLP.Evaluate), which only Step writes, so the training loop must join
// before its next Step; in between it may Await freely: that writes
// gradients, never parameters.
type evaluator struct {
	req  chan struct{}
	done chan evaluation // buffered: the helper never waits to hand a result over
	ph   *phaseSlot      // worker 0's, charged by join
}

type evaluation struct {
	loss, accuracy float64
	took           time.Duration
}

func startEvaluator(m *nn.MLP, ds *nn.Dataset, ph *phaseSlot) *evaluator {
	e := &evaluator{req: make(chan struct{}, 1), done: make(chan evaluation, 1), ph: ph}
	go func() {
		defer close(e.done)
		for range e.req {
			begin := time.Now()
			loss, acc := m.Evaluate(ds.X, ds.Labels)
			e.done <- evaluation{loss, acc, time.Since(begin)}
		}
	}()
	return e
}

// start asks for the evaluation of the current parameters.
func (e *evaluator) start() { e.req <- struct{}{} }

// join waits for the evaluation start asked for, charging the wait to worker
// 0's eval-wait phase and the evaluation itself to the helper's total.
func (e *evaluator) join() evaluation {
	begin := time.Now()
	r := <-e.done
	e.ph.sum.EvalWait += time.Since(begin)
	e.ph.eval += r.took
	return r
}

// stop ends the helper and waits for it to exit, dropping any result nobody
// joined: runWorker defers it, so the helper goes on every return path,
// including a failed pull with an evaluation in flight.
func (e *evaluator) stop() {
	close(e.req)
	for range e.done {
	}
}

// genEvent records one tensor's gradient becoming available during
// backward propagation.
type genEvent struct {
	idx int
	at  time.Duration
}

// wireSend is one decided sub-message mapped onto the wire protocol: the
// tensors whose pushes it completes, on one shard connection. A scheduler
// message may carry partial pieces of a tensor (P3 partitions,
// ByteScheduler credit slices); the live protocol pushes whole tensors, so
// a tensor ships with the send carrying its completing (Last) piece.
type wireSend struct {
	lane    int
	tensors []int
}

// collector is the decision-replay Transmitter: lanes are never busy and a
// send "completes" the moment it starts, so the driver unspools the
// scheduler's entire decision sequence synchronously. The recorded sends
// are then executed for real by the transport's liveEngine (Dispatch).
// Every send's tensors are cut from one buffer, tensors, so sends and their
// tensor lists are valid until the next reset and a warm replay allocates
// nothing.
type collector struct {
	drv     *drive.Driver
	sends   []wireSend
	tensors []int
}

func (c *collector) reset() {
	c.sends = c.sends[:0]
	c.tensors = c.tensors[:0]
}

// Busy implements drive.Transmitter: replay lanes are never busy.
func (c *collector) Busy(int) bool { return false }

// Start implements drive.Transmitter: it records the send and completes it
// immediately (the replay has no wire).
func (c *collector) Start(s *drive.Send) {
	from := len(c.tensors)
	for _, rg := range s.Ranges {
		if rg.Last {
			c.tensors = append(c.tensors, rg.Grad)
		}
	}
	to := len(c.tensors)
	c.sends = append(c.sends, wireSend{lane: s.Lane, tensors: c.tensors[from:to:to]})
	c.drv.Completed(s.Lane, 0)
}

// decide replays one iteration's gradient releases through the driver and
// returns the ordered wire sends. The live path's communication is slow
// relative to backward compute, so the whole backward pass forms one
// release burst: the scheduler sees every gradient generated, then drains.
func decide(d *drive.Driver, col *collector, iter int, events []genEvent, nTensors int) ([]wireSend, error) {
	if col.tensors == nil {
		col.tensors = make([]int, 0, nTensors) // every decision completes each tensor once
	}
	col.reset()
	d.BeginIteration(iter)
	var last float64
	for _, e := range events {
		last = e.at.Seconds()
		d.Generate(e.idx, last)
	}
	d.Pump(last)
	if len(col.tensors) != nTensors {
		return nil, fmt.Errorf("scheduler %s completed %d of %d gradients",
			d.Scheduler().Name(), len(col.tensors), nTensors)
	}
	return col.sends, nil
}

// pushOrderOf flattens the decided sends into the tensor completion order.
func pushOrderOf(sends []wireSend, nTensors int) []int {
	order := make([]int, 0, nTensors)
	for _, s := range sends {
		order = append(order, s.tensors...)
	}
	return order
}

// pushLabels renders the per-tensor span labels ("push[t7]") without fmt:
// the table is built once per worker, and at 1000+ workers Sprintf's
// reflection path was a measurable slice of construction time.
func pushLabels(n int) []string {
	labels := make([]string, n)
	buf := make([]byte, 0, 16)
	for idx := range labels {
		buf = append(buf[:0], "push[t"...)
		buf = strconv.AppendInt(buf, int64(idx), 10)
		buf = append(buf, ']')
		labels[idx] = string(buf)
	}
	return labels
}

// tensorSizes returns the model's per-tensor byte sizes (float64 elements),
// the input to the key→shard map.
func tensorSizes(layers []int, seed uint64) []float64 {
	m := nn.NewMLP(layers, seed)
	sizes := make([]float64, 0, m.NumTensors())
	for _, t := range m.Tensors() {
		sizes = append(sizes, float64(8*t.Elems))
	}
	return sizes
}

// profileFromEvents builds Prophet's input profile from measured
// generation times.
func profileFromEvents(sizes []float64, events []genEvent) (*core.Profile, error) {
	gen := make([]float64, len(sizes))
	for _, e := range events {
		gen[e.idx] = e.at.Seconds()
	}
	prof, err := core.NewProfile(gen, sizes, 1e-6)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	return prof, nil
}
