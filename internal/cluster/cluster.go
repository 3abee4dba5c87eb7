// Package cluster is the DDNN training simulator: a BSP parameter-server
// cluster in which each worker alternates forward and backward propagation
// on its GPU while a communication scheduler decides how gradients travel
// to the PS (push) and updated parameters return (pull).
//
// The simulation reproduces the structure of Fig. 1 and Fig. 6 of the
// paper:
//
//   - backward propagation produces gradients back-to-front; the
//     aggregation layer releases them in stepwise bursts;
//   - pushes overlap backward (and forward) compute on a serial uplink
//     whose effective bandwidth follows f(s, B) (Eq. 10);
//   - the PS aggregates a gradient once every worker has pushed it, after
//     which workers pull the updated parameters on their downlinks;
//   - forward propagation of the next iteration computes layer i only
//     after layer i−1 finished and gradient i's pull completed (Eq. 3), so
//     late pulls stall the GPU — the wait time T_wait of Eq. 2.
//
// Everything a strategy can influence is delegated to a schedule.Scheduler,
// so FIFO, P3, ByteScheduler, and Prophet run on identical substrate.
//
// Config.Transport swaps the wire beneath that loop: the parameter server
// above ("ps"), or a ring/tree collective in which the last two bullets
// collapse into one — a gradient is back on every worker the moment the
// collective operation carrying it completes (see collective.go).
package cluster

import (
	"fmt"
	"sort"

	"prophet/internal/drive"
	"prophet/internal/metrics"
	"prophet/internal/model"
	"prophet/internal/netsim"
	"prophet/internal/probe"
	"prophet/internal/schedule"
	"prophet/internal/shard"
	"prophet/internal/sim"
	"prophet/internal/stepwise"
)

// Config describes one simulated training run.
type Config struct {
	Model    *model.Model
	Hardware model.Hardware
	// Batch is the per-worker mini-batch size.
	Batch int
	// Workers is the number of worker nodes (the PS is separate); on a
	// collective transport, the ring size.
	Workers int
	// Transport names the wire beneath the drive layer, resolved through
	// drive.BackendByName exactly as emu.Config.Transport is: "ps" (the
	// default) or a collective, "ring" or "tree". A collective is a lockstep
	// exchange — the ring is itself a barrier — so the run simulates one
	// timeline (worker 0) on one serial link, Uplink(0): rings are
	// homogeneous. What has no physical meaning there is rejected: Workers
	// < 2, PSShards > 1, ASP, Faults.
	Transport string
	// Agg is the gradient aggregation bucketing (stepwise source). If
	// empty, stepwise.DefaultAggregate(Model).
	Agg stepwise.Buckets
	// Uplink gives each worker's link configuration, used for its downlink
	// too. If nil, netsim.DefaultLinkConfig(Const(1.25 GB/s)) (10 Gbps) is
	// used.
	Uplink func(worker int) netsim.LinkConfig
	// PSShards partitions gradients (keys) across that many parameter-
	// server shard instances, each behind its own uplink/downlink pair per
	// worker (0 or 1 = the single PS of the paper's testbed). A block's
	// gradients may ship in parallel on different shard links, but no
	// shard starts a lower-priority message while a higher-priority one
	// still has unscheduled bytes — the scheduler's global priority order
	// is preserved across shards.
	PSShards int
	// ShardPlacement selects the key→shard map (default shard.RoundRobin).
	ShardPlacement shard.Placement
	// ShardUplink gives the per-shard link configuration, for the shard's
	// uplink and downlink alike. If nil, every shard of worker w uses
	// Uplink(w) — i.e. each shard link runs at the full single-PS speed,
	// scaling aggregate bandwidth with the shard count. Pass
	// netsim.Scale(trace, 1/N) links to model splitting one NIC across N
	// shards instead.
	ShardUplink func(worker, s int) netsim.LinkConfig
	// Scheduler builds the strategy instance for a worker. The uplink is
	// provided so strategies can attach bandwidth monitors.
	Scheduler func(worker int, eng *sim.Engine, uplink *netsim.Link) schedule.Scheduler
	// Iterations to run (default 20).
	Iterations int
	// Jitter is the relative stddev of compute-segment noise (default
	// 0.02). Set negative for exactly zero jitter.
	Jitter float64
	// Seed drives all randomness.
	Seed uint64
	// RecordLinks keeps every link's per-message transfer records
	// (message-level traces for cmd/prophet-run -out and diagnostics).
	RecordLinks bool
	// RecordMessages keeps worker 0's scheduler decision log (one
	// drive.Record per fetched message, in fetch order) in
	// Result.Messages — the cross-path mirror test compares it against the
	// live emulation's log.
	RecordMessages bool
	// ASP switches the parameter server from Bulk Synchronous Parallel to
	// Asynchronous Parallel (the paper's future-work direction 1): a
	// worker's pull is served from its own freshest push without waiting
	// for other workers' contributions, so stragglers no longer gate the
	// cluster — at the cost of gradient staleness (not modeled; this
	// simulator measures timing, not accuracy).
	ASP bool
	// Faults injects crash-stop worker failures (the degraded workers of
	// the paper's Sec. 7 discussion): each faulted worker halts at the
	// start of its AtIteration and pushes nothing further.
	Faults []WorkerFault
	// FaultPolicy selects how the cluster degrades when a fault fires
	// (default FaultFailFast).
	FaultPolicy FaultPolicy
	// Observer, when non-nil, receives the probe event stream from every
	// worker (times are simulated seconds); a collective operation is one
	// send on it. Observation is passive — a run with an Observer attached
	// produces bit-identical schedules to one without. The stream is the only record of when bytes moved: a run
	// that wants an uplink throughput timeline or the per-gradient
	// lifecycles (Figs. 2, 10, 11) attaches a probe.SpanRecorder here and
	// reads its Rate(worker) view or Grads() afterwards.
	//
	// An Observer that is a probe.PlanObserver (a predict.Auditor, alone or
	// in a probe.NewMulti) also switches prediction on: every worker's
	// driver gets the wire's cost model — drive.WireCost playing the
	// transport's chunk schedule, one step on the PS wire — stamping each
	// decision Record with its planned wire window and announcing it
	// through SendPlanned. The model reads the link's ground-truth trace at
	// decision time, so on a constant trace predictions are exact and on a
	// varying trace the error IS the drift the audit measures. Prediction
	// is passive too: schedules are bit-identical with it on or off.
	Observer probe.Observer

	// backend is Transport resolved, once, by setDefaults.
	backend drive.Backend
}

// WorkerFault is one crash-stop failure: Worker halts at the start of
// AtIteration (its in-flight pushes from earlier iterations still drain),
// and under FaultDrop the cluster detects the failure DetectDelay seconds
// later.
type WorkerFault struct {
	Worker      int
	AtIteration int
	DetectDelay float64
}

// FaultPolicy selects the simulated cluster's degradation strategy.
type FaultPolicy string

// Supported fault policies.
const (
	// FaultFailFast leaves the BSP barrier intact: a crashed worker stalls
	// the cluster, and Run returns a descriptive error instead of the
	// generic deadlock report.
	FaultFailFast FaultPolicy = "fail-fast"
	// FaultDrop removes the crashed worker from the aggregation barrier
	// DetectDelay seconds after the halt, renormalizing coverage over the
	// survivors so they finish without it.
	FaultDrop FaultPolicy = "drop-and-renormalize"
)

// faultFor returns the fault configured for worker w, if any.
func (c *Config) faultFor(w int) *WorkerFault {
	for i := range c.Faults {
		if c.Faults[i].Worker == w {
			return &c.Faults[i]
		}
	}
	return nil
}

func (c *Config) setDefaults() error {
	if c.Model == nil {
		return fmt.Errorf("cluster: Config.Model is nil")
	}
	if c.Batch <= 0 {
		return fmt.Errorf("cluster: batch %d must be positive", c.Batch)
	}
	if c.Workers <= 0 {
		return fmt.Errorf("cluster: workers %d must be positive", c.Workers)
	}
	if c.Scheduler == nil {
		return fmt.Errorf("cluster: Config.Scheduler is nil")
	}
	if c.Iterations == 0 {
		c.Iterations = 20
	}
	if c.Iterations < 0 {
		return fmt.Errorf("cluster: negative iterations")
	}
	if len(c.Agg.Groups) == 0 {
		c.Agg = stepwise.DefaultAggregate(c.Model)
	}
	if c.Hardware.FLOPS == 0 {
		c.Hardware = model.M60Like()
	}
	if c.Uplink == nil {
		c.Uplink = func(int) netsim.LinkConfig {
			return netsim.DefaultLinkConfig(netsim.Const(netsim.Gbps(10)))
		}
	}
	if c.PSShards == 0 {
		c.PSShards = 1
	}
	if c.PSShards < 0 {
		return fmt.Errorf("cluster: negative PSShards")
	}
	if c.Transport == "" {
		c.Transport = "ps"
	}
	var err error
	if c.backend, err = drive.BackendByName(c.Transport); err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	if c.Transport != "ps" {
		// What is left is physical, as in emu.Config.validate: the schedule
		// needs its peers, there is no server to shard or to answer one
		// worker ahead of the others, and nobody to renormalize a barrier
		// around a crashed peer.
		switch {
		case c.Workers < 2:
			return fmt.Errorf("cluster: transport %q needs peers (Workers %d)", c.Transport, c.Workers)
		case c.PSShards > 1:
			return fmt.Errorf("cluster: transport %q has no parameter server to shard (PSShards %d)", c.Transport, c.PSShards)
		case c.ASP:
			return fmt.Errorf("cluster: transport %q is a lockstep exchange; ASP needs a parameter server", c.Transport)
		case len(c.Faults) > 0:
			return fmt.Errorf("cluster: transport %q is a lockstep exchange with no barrier to renormalize (Faults)", c.Transport)
		}
	}
	if c.ShardPlacement == "" {
		c.ShardPlacement = shard.RoundRobin
	}
	if c.ShardUplink == nil {
		c.ShardUplink = func(w, _ int) netsim.LinkConfig { return c.Uplink(w) }
	}
	switch {
	case c.Jitter == 0:
		c.Jitter = 0.02
	case c.Jitter < 0:
		c.Jitter = 0
	}
	switch c.FaultPolicy {
	case FaultFailFast, FaultDrop:
	case "":
		c.FaultPolicy = FaultFailFast
	default:
		return fmt.Errorf("cluster: unknown fault policy %q", c.FaultPolicy)
	}
	for _, f := range c.Faults {
		if f.Worker < 0 || f.Worker >= c.Workers {
			return fmt.Errorf("cluster: fault for unknown worker %d", f.Worker)
		}
		if f.AtIteration < 0 || f.DetectDelay < 0 {
			return fmt.Errorf("cluster: fault for worker %d has negative iteration or delay", f.Worker)
		}
	}
	return nil
}

// Result carries everything the experiments need from one run.
type Result struct {
	// Iters records iteration boundaries: Iters.Starts[k] is the end of
	// the previous backward pass, Iters.Ends[k] this one's, so spans are
	// contiguous and SteadyRate measures true steady-state throughput.
	Iters metrics.IterationLog
	// GPU[w] records worker w's compute-busy intervals. A collective run
	// simulates one lockstep timeline, so it fills GPU[0] only.
	GPU []*metrics.IntervalSeries
	// Shards echoes the PS shard count, and ShardMap the key→shard
	// assignment used (zero and nil on a collective transport).
	Shards   int
	ShardMap *shard.Map
	// UpRecords and DownRecords are per-worker per-message link traces
	// (populated when RecordLinks is set). A collective run fills
	// UpRecords[0] with its one link's chunk steps and no DownRecords: it
	// has no downlink.
	UpRecords, DownRecords [][]netsim.TransferRecord
	// Messages is worker 0's scheduler decision log (RecordMessages).
	Messages []drive.Record
	// Sends counts the sends worker 0's driver started on its wire:
	// per-shard sub-messages on the PS wire, whole collective operations on
	// ring and tree.
	Sends int
	// Duration is the total simulated time.
	Duration float64
	// Batch and Workers echo the configuration.
	Batch, Workers int
	// SchedulerName echoes worker 0's strategy.
	SchedulerName string
	// Dropped lists workers removed from the barrier under FaultDrop,
	// ascending.
	Dropped []int
}

// Rate returns the per-worker steady-state training rate in samples/sec,
// skipping `warmup` iterations (the paper reports per-worker rates).
func (r *Result) Rate(warmup int) float64 {
	return r.Iters.SteadyRate(warmup, r.Batch)
}

// ClusterRate returns the aggregate samples/sec across all workers.
func (r *Result) ClusterRate(warmup int) float64 {
	return r.Rate(warmup) * float64(r.Workers)
}

// GPUUtil returns worker w's GPU utilization over the steady-state window
// (after `warmup` iterations).
func (r *Result) GPUUtil(w, warmup int) float64 {
	if warmup >= r.Iters.Count() {
		panic("cluster: warmup beyond run length")
	}
	from := r.Iters.Starts[warmup]
	return r.GPU[w].Utilization(from, r.Duration)
}

// Run executes the simulation and returns its result.
func Run(cfg Config) (*Result, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	eng := sim.New()
	res := &Result{Batch: cfg.Batch, Workers: cfg.Workers}

	// dead[w] marks worker w dropped from the barrier (FaultDrop), which
	// only a parameter server has.
	dead := make([]bool, cfg.Workers)
	var workers []*worker
	if cfg.Transport == "ps" {
		sizes := gradSizes(cfg.Model)
		smap, err := shard.New(sizes, cfg.PSShards, cfg.ShardPlacement)
		if err != nil {
			return nil, fmt.Errorf("cluster: %w", err)
		}
		ps := newParamServer(cfg.Workers, cfg.Model.NumGradients(), sizes)
		ps.asp, ps.dead = cfg.ASP, dead
		res.Shards, res.ShardMap = smap.Shards(), smap
		workers = make([]*worker, cfg.Workers)
		for w := range workers {
			workers[w] = newWorker(w, eng, &cfg, ps, smap)
		}
		ps.workersRef = workers
	} else {
		// Lockstep: worker 0's timeline is every worker's.
		workers = []*worker{newWorker(0, eng, &cfg, nil, nil)}
	}
	res.SchedulerName = workers[0].sched.Name()

	for _, w := range workers {
		w.startIteration()
	}
	eng.Run()

	var halted []int
	for _, w := range workers {
		if w.halted {
			halted = append(halted, w.id)
		}
	}
	if cfg.FaultPolicy == FaultFailFast && len(halted) > 0 {
		for _, w := range workers {
			if !w.halted && w.iter < cfg.Iterations {
				return nil, fmt.Errorf("cluster: fail-fast — worker %d crashed at iteration %d and stalled the BSP barrier (worker %d stopped at iteration %d/%d)",
					halted[0], cfg.faultFor(halted[0]).AtIteration, w.id, w.iter, cfg.Iterations)
			}
		}
	}
	for _, w := range workers {
		if w.halted || dead[w.id] {
			continue // crash-stop under a tolerant policy: expected shortfall
		}
		if w.iter < cfg.Iterations {
			return nil, fmt.Errorf("cluster: deadlock — worker %d stopped at iteration %d/%d (phase %v, fwdSeg %d, bwdSeg %d, %s)",
				w.id, w.iter, cfg.Iterations, w.phase, w.fwdSeg, w.bwdSeg, w.debugPulled())
		}
	}
	for w, d := range dead {
		if d {
			res.Dropped = append(res.Dropped, w)
		}
	}

	res.Duration = eng.Now()
	for _, w := range workers {
		res.GPU = append(res.GPU, &w.gpu)
		if cfg.RecordLinks {
			res.UpRecords = append(res.UpRecords, mergeRecords(w.up))
			if len(w.down) > 0 {
				res.DownRecords = append(res.DownRecords, mergeRecords(w.down))
			}
		}
	}
	res.Iters = workers[0].iterLog
	res.Sends = workers[0].sends
	if cfg.RecordMessages {
		res.Messages = workers[0].drv.Records()
	}
	return res, nil
}

// mergeRecords interleaves the per-shard link records of one direction
// into a single start-ordered trace, so Result.UpRecords/DownRecords keep
// their single-link shape regardless of the shard count.
func mergeRecords(links []*netsim.Link) []netsim.TransferRecord {
	if len(links) == 1 {
		return links[0].Records()
	}
	var out []netsim.TransferRecord
	for _, l := range links {
		out = append(out, l.Records()...)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].End < out[j].End
	})
	return out
}

func gradSizes(m *model.Model) []float64 {
	s := make([]float64, m.NumGradients())
	for i, g := range m.Grads {
		s[i] = g.Bytes()
	}
	return s
}
