// Package allreduce models collective all-reduce training — the
// architecture the paper's related work contrasts with the PS design (PACE
// schedules all-reduce tensors preemptively; Horovod popularized the ring).
// It lets the experiments answer the natural reviewer question: how does
// PS + Prophet compare against a decentralized collective on the same
// workload?
//
// Ring cost model: a tensor of s bytes across W workers runs 2(W−1) steps,
// each moving s/W bytes on every link simultaneously, so the wall time on
// links of bandwidth B with per-message overhead c is
//
//	T(s) = 2(W−1) × (c + (s/W + ramp)/B)
//
// Small tensors are murdered by the 2(W−1) per-step overheads, which is why
// frameworks fuse tensors into a fusion buffer before reducing — the ring's
// analogue of Prophet's blocks, historically sized by a static threshold
// rather than the stepwise windows.
//
// Since the transport refactor, the package no longer hand-rolls that loop:
// the run is driven by the shared drive layer. A schedule.Scheduler (any
// registry strategy; "fusion" is Horovod's static threshold) decides block
// assembly; drive.Driver applies the fetch gate, byte offsets, and probe
// stream; and a collective Transmitter plays each decision as drive.Backend
// chunk steps ("ring" or "tree") on a netsim link. Workers run in lockstep (the ring is
// itself a barrier), so a single worker timeline with one serial link
// captures the system; forward segment i waits for the reduction covering
// tensor i (Eq. 3's gating, all-reduce flavoured).
package allreduce

import (
	"fmt"

	"prophet/internal/drive"
	"prophet/internal/metrics"
	"prophet/internal/model"
	"prophet/internal/netsim"
	"prophet/internal/probe"
	"prophet/internal/schedule"
	"prophet/internal/sim"
	"prophet/internal/stepwise"
)

// SchedulerFactory builds a per-worker strategy instance. It is an alias of
// the same function shape as cluster.SchedulerFactory, so factories built
// by cluster.ByNameTransport plug in without conversion.
type SchedulerFactory = func(worker int, eng *sim.Engine, uplink *netsim.Link) schedule.Scheduler

// Config describes one simulated collective all-reduce training run.
type Config struct {
	Model    *model.Model
	Hardware model.Hardware
	// Batch is the per-worker mini-batch size.
	Batch int
	// Workers is the ring size.
	Workers int
	// Agg is the gradient release bucketing (the stepwise source); the
	// default matches the cluster package's.
	Agg stepwise.Buckets
	// Link describes each inter-worker link; rings are homogeneous.
	Link netsim.LinkConfig
	// Backend names the collective transport: "ring" (default) or "tree".
	// The PS transport is the cluster package's path, not this one.
	Backend string
	// Scheduler builds the block-assembly strategy driving the collective
	// (required; cluster.ByNameTransport builds one from a registry name).
	Scheduler SchedulerFactory
	// Iterations to run (default 20).
	Iterations int
	// Jitter is the relative compute noise (default 0.02; negative = 0).
	Jitter float64
	// Seed drives randomness.
	Seed uint64
	// Observer taps the drive-layer probe stream (may be nil). An Observer
	// that also implements probe.StepObserver additionally receives the
	// per-chunk collective steps.
	Observer probe.Observer
	// RecordMessages enables the drive decision log (Result.Messages).
	RecordMessages bool
	// Predict attaches a drive.CollectiveCost model to the driver,
	// stamping decision Records with planned wire windows and announcing
	// them through probe.PlanObserver for the prediction audit. The model
	// plays the backend's chunk schedule against the link's ground-truth
	// trace read at decision time; prediction is passive.
	Predict bool
}

func (c *Config) setDefaults() error {
	if c.Model == nil {
		return fmt.Errorf("allreduce: Config.Model is nil")
	}
	if c.Batch <= 0 || c.Workers <= 1 {
		return fmt.Errorf("allreduce: need batch > 0 and workers > 1")
	}
	if c.Scheduler == nil {
		return fmt.Errorf("allreduce: Config.Scheduler is nil")
	}
	if c.Link.Trace == nil {
		c.Link = netsim.DefaultLinkConfig(netsim.Const(netsim.Gbps(10)))
	}
	if c.Backend == "" {
		c.Backend = "ring"
	}
	if c.Iterations == 0 {
		c.Iterations = 20
	}
	if len(c.Agg.Groups) == 0 {
		aggBytes := c.Model.TotalBytes() / 13
		if aggBytes < 4e6 {
			aggBytes = 4e6
		}
		c.Agg = stepwise.Aggregate(c.Model, aggBytes, 0)
	}
	if c.Hardware.FLOPS == 0 {
		c.Hardware = model.M60Like()
	}
	switch {
	case c.Jitter == 0:
		c.Jitter = 0.02
	case c.Jitter < 0:
		c.Jitter = 0
	}
	return nil
}

// Result reports a collective run.
type Result struct {
	Iters    metrics.IterationLog
	GPU      *metrics.IntervalSeries
	Duration float64
	Batch    int
	// Reductions counts collective operations (fused buffers) executed.
	Reductions int
	// SchedulerName and Backend echo the resolved strategy and transport.
	SchedulerName string
	Backend       string
	// Messages is the drive decision log (populated when RecordMessages).
	Messages []drive.Record
}

// Rate returns the per-worker steady-state samples/sec.
func (r *Result) Rate(warmup int) float64 { return r.Iters.SteadyRate(warmup, r.Batch) }

// collectiveTx plays one dispatched scheduler message as a full collective
// operation on the ring's serial link: Backend.ChunkBytes worth of chunk
// transfers back to back, each paying the link's per-message overhead (the
// strategy's engine Stall is serialized once, before the first chunk). The
// lane stays busy from dispatch to the last chunk's completion, so the
// drive layer's fetch gate and the probe span cover the whole operation.
type collectiveTx struct {
	eng     *sim.Engine
	link    *netsim.Link
	be      drive.Backend
	workers int
	stepObs probe.StepObserver

	active bool
	chunks []float64
	// completes holds the grads the in-flight message finishes, copied out
	// of the Send's recycled Ranges.
	completes []int
	label     string
	seq, iter int
	stall     float64
	step      int
	stepAt    float64

	stepDone func() // onStepDone, bound once
	// finish is the run's completion hook: mark reductions, then
	// Driver.Completed + Pump. Called outside Start, never reentrantly.
	finish func(completes []int, iter int, now float64)
}

// Busy implements drive.Transmitter.
func (t *collectiveTx) Busy(lane int) bool { return t.active }

// Start implements drive.Transmitter.
func (t *collectiveTx) Start(s *drive.Send) {
	t.active = true
	t.label, t.seq, t.iter = s.Msg.Label, s.Seq, s.Iter
	t.stall = s.Msg.Stall
	t.completes = t.completes[:0]
	for _, r := range s.Ranges {
		if r.Last {
			t.completes = append(t.completes, r.Grad)
		}
	}
	t.chunks = t.be.ChunkBytes(s.Msg.Bytes, t.workers, t.chunks[:0])
	t.step = 0
	if len(t.chunks) == 0 {
		// W=1 degenerate: no wire steps. Complete on a zero-delay event so
		// the driver's non-reentrant Pump is never re-entered from Start.
		t.eng.Schedule(0, func() { t.complete(t.eng.Now()) })
		return
	}
	t.playStep()
}

func (t *collectiveTx) playStep() {
	extra := 0.0
	if t.step == 0 {
		extra = t.stall
	}
	t.stepAt = t.eng.Now()
	t.link.SendExtra(t.chunks[t.step], extra, t.label, t.stepDone)
}

func (t *collectiveTx) onStepDone() {
	now := t.eng.Now()
	if t.stepObs != nil {
		t.stepObs.SendStep(0, 0, t.seq, t.step, len(t.chunks), t.chunks[t.step], t.stepAt, now)
	}
	t.step++
	if t.step < len(t.chunks) {
		t.playStep()
		return
	}
	t.complete(now)
}

func (t *collectiveTx) complete(now float64) {
	t.active = false
	t.finish(t.completes, t.iter, now)
}

// Run simulates synchronous collective all-reduce training: backward
// releases tensors in stepwise bursts; the scheduler assembles them into
// blocks; each block costs one collective operation played as backend chunk
// steps on the link; forward segment i waits for the operation covering
// tensor i.
func Run(cfg Config) (*Result, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	be, err := drive.BackendByName(cfg.Backend)
	if err != nil {
		return nil, err
	}
	if be.Name() == "ps" {
		return nil, fmt.Errorf("allreduce: transport %q is the cluster package's path", be.Name())
	}
	eng := sim.New()
	rng := sim.NewRand(cfg.Seed*1_000_003 + 17)
	m := cfg.Model
	n := m.NumGradients()

	res := &Result{Batch: cfg.Batch, Backend: be.Name()}
	gpu := &metrics.IntervalSeries{}
	res.GPU = gpu

	link := netsim.NewLink(eng, cfg.Link)
	sched := cfg.Scheduler(0, eng, link)
	res.SchedulerName = sched.Name()

	obs := cfg.Observer
	tx := &collectiveTx{eng: eng, link: link, be: be, workers: cfg.Workers}
	tx.stepDone = tx.onStepDone
	if so, ok := obs.(probe.StepObserver); ok {
		tx.stepObs = so
	}
	drv := drive.New(sched, tx, 1, n, nil)
	drv.SetRecording(cfg.RecordMessages)
	drv.SetObserver(0, obs)
	if cfg.Predict {
		drv.SetCostModel(drive.CollectiveCost(be, cfg.Workers, cfg.Link.SetupTime, cfg.Link.RampBytes,
			func() float64 { return cfg.Link.Trace.At(eng.Now()) }))
	}

	// releaseAt[i] lists tensors released when backward segment i ends.
	releaseAt := make([][]int, n)
	for _, grp := range cfg.Agg.Groups {
		releaseAt[grp[0]] = append([]int(nil), grp...)
	}

	reduced := make([]bool, n)
	iterStart := 0.0
	iter := 0
	fwdSeg := 0
	bwdSeg := -1
	computing := false
	inBackward := false

	var advanceForward func()
	var advanceBackward func()

	tx.finish = func(completes []int, sentIter int, now float64) {
		res.Reductions++
		for _, g := range completes {
			reduced[g] = true
			if obs != nil {
				// The reduced value is available on every worker the moment
				// the collective completes: the ring path's PullAcked.
				obs.PullAcked(0, g, sentIter, now)
			}
		}
		drv.Completed(0, now)
		advanceForward()
		drv.Pump(now)
	}

	finishIteration := func() {
		now := eng.Now()
		res.Iters.Add(iterStart, now)
		drv.EndIteration(now - iterStart)
		if obs != nil {
			obs.EndIteration(0, iter, now)
		}
		iterStart = now
		iter++
		if iter >= cfg.Iterations {
			return
		}
		if obs != nil {
			obs.BeginIteration(0, iter, now)
		}
		fwdSeg = 0
		inBackward = false
		advanceForward()
	}

	advanceBackward = func() {
		if bwdSeg < 0 {
			finishIteration()
			return
		}
		seg := bwdSeg
		computing = true
		gpu.Start(eng.Now())
		d := rng.Jitter(m.BwdTime(cfg.Hardware, m.Grads[seg], cfg.Batch), cfg.Jitter)
		eng.Schedule(d, func() {
			gpu.Stop(eng.Now())
			computing = false
			if rel := releaseAt[seg]; rel != nil {
				now := eng.Now()
				// Release in generation order: highest index first (the
				// backward pass produces gradients back to front).
				for i := len(rel) - 1; i >= 0; i-- {
					drv.Generate(rel[i], now)
				}
				drv.Pump(now)
			}
			bwdSeg--
			advanceBackward()
		})
	}

	advanceForward = func() {
		if inBackward || computing || iter >= cfg.Iterations {
			return
		}
		if fwdSeg >= n {
			// Forward done: reset reduction state and start backward. Every
			// forward segment gated on its reduction, so the previous
			// iteration's collectives have fully drained — the empty-queue
			// precondition of Driver.BeginIteration.
			inBackward = true
			for i := range reduced {
				reduced[i] = false
			}
			drv.BeginIteration(iter)
			bwdSeg = n - 1
			advanceBackward()
			return
		}
		if iter > 0 && !reduced[fwdSeg] {
			return // wait for the collective
		}
		seg := fwdSeg
		computing = true
		gpu.Start(eng.Now())
		d := rng.Jitter(m.FwdTime(cfg.Hardware, m.Grads[seg], cfg.Batch), cfg.Jitter)
		eng.Schedule(d, func() {
			gpu.Stop(eng.Now())
			computing = false
			fwdSeg++
			advanceForward()
		})
	}

	if obs != nil {
		obs.BeginIteration(0, 0, 0)
	}
	advanceForward()
	eng.Run()
	if iter < cfg.Iterations {
		return nil, fmt.Errorf("allreduce: stalled at iteration %d/%d (fwdSeg %d, scheduler %s, backend %s)",
			iter, cfg.Iterations, fwdSeg, res.SchedulerName, res.Backend)
	}
	res.Duration = eng.Now()
	if cfg.RecordMessages {
		res.Messages = append(res.Messages, drv.Records()...)
	}
	return res, nil
}
