package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"prophet/internal/probe"
	"prophet/internal/probe/attrib"
	"prophet/internal/sim"
)

// pass is one traced pass: the workload re-run with the program's public
// observer hooks attached, then every layer replayed from outside. A layer
// on the workload's path is replayed with the workload's own shapes; a
// layer off its path with the shapes of the layer's home workload, so that
// row is a reference, not an attribution (README.md lists which is which).
type pass struct {
	tr    *tracer
	seed  uint64
	slice time.Duration // time budget of one replay
	out   map[string]float64

	attempted, failed int
	profSeed          uint64 // next unused profiler jitter seed

	sim *simShapes
	// live shapes the nn, frame and mux replays; psLive the parameter
	// server replays; ring the collective ones; shaped the limiter's.
	live, psLive, ring, shaped *liveSpec
}

func (p *pass) set(name string, v float64) { p.out[name] = v }

// replay runs one layer's replay under its own span and counts it as an
// attempted op.
func (p *pass) replay(name string, root int, f func(parent int) error) {
	id := p.tr.begin("replay:"+name, root)
	err := f(id)
	p.tr.end(id, 1)
	p.attempted++
	if err != nil {
		p.failed++
		fmt.Fprintf(os.Stderr, "benchmark: replay %s failed: %v\n", name, err)
	}
}

func liveSpecOf(name string) *liveSpec {
	w, err := workloadByName(name)
	if err != nil || w.live == nil {
		panic("benchmark: no live workload " + name)
	}
	return w.live
}

// runTraced is the per-layer pass.
func runTraced(w workload, dir string, o options) (*result, error) {
	e, err := w.setUp(o, 0)
	if err != nil {
		return nil, err
	}
	shapes, err := newSimShapes(o.seed, 0)
	if err != nil {
		return nil, err
	}
	p := &pass{
		tr: newTracer(w.name), seed: o.seed, out: map[string]float64{}, sim: shapes,
		profSeed: o.seed<<40 + 1<<39,
		live:     liveSpecOf("live-mux-scale"), psLive: liveSpecOf("live-mux-scale"),
		ring: liveSpecOf("live-ring"), shaped: liveSpecOf("live-ps-shaped"),
	}
	if w.live != nil {
		p.live = w.live
		if w.live.transport == "" {
			p.psLive = w.live
		}
	}
	const replays = 15
	observeBudget := time.Duration(0.35 * o.seconds * float64(time.Second))
	p.slice = time.Duration(0.65 * o.seconds / replays * float64(time.Second))
	if o.quick {
		observeBudget, p.slice = 0, 0
	}
	root := p.tr.begin("trace:"+w.name, -1)

	// The workload itself, observed and unobserved in turn.
	own := p.observe(e, root, observeBudget)
	p.set("probe.trace_overhead_pct", 100*(own.observedP50/own.iterP50-1))
	p.set("attrib.gen_ms", 1e3*own.mean.Generation)
	p.set("attrib.prio_wait_ms", 1e3*own.mean.PriorityWait)
	p.set("attrib.bw_wait_ms", 1e3*own.mean.BandwidthWait)
	p.set("attrib.transmit_ms", 1e3*own.mean.Transmit)
	p.set("attrib.ack_ms", 1e3*own.mean.Ack)
	emu, emuEnv := own, e
	if w.live == nil {
		// The simulator has no live engine: the emu rows come from a short
		// run of their home workload.
		if emuEnv, err = p.live.setUp("live-mux-scale", o); err != nil {
			return nil, err
		}
		emu = p.observe(emuEnv, root, observeBudget/4)
	}
	p.set("emu.run_overhead_ms", emu.overheadMS)
	p.set("emu.goroutines_peak", float64(emu.goroutines))
	p.set("emu.sends_per_iter", emu.sendsPerIter)
	p.set("emu.wire_bytes_per_iter", emu.wireBytesPerIter)
	p.set("emu.t0_rtt_ms_ref_policy", emuEnv.refT0MS)

	p.replay("sim", root, p.replaySimEngine)
	p.replay("netsim", root, p.replayNetsim)
	p.replay("core", root, p.replayCore)
	p.replay("profiler", root, p.replayProfiler)
	p.replay("schedule", root, p.replaySchedule)
	p.replay("drive", root, p.replayDrive)
	p.replay("cluster", root, p.replayCluster)
	p.replay("allreduce", root, p.replayAllreduce)
	p.replay("nn", root, p.replayNN)
	p.replay("transport.frame", root, p.replayFrames)
	p.replay("transport.pipe", root, p.replayPipe)
	p.replay("transport.limiter", root, p.replayLimiter)
	p.replay("transport.mux", root, p.replayMux)
	p.replay("ps", root, p.replayPS)
	p.replay("collective", root, p.replayCollective)
	p.clusterSelf()

	// What the replays do not explain of an iteration of the live engine:
	// dispatch, barrier skew and, on shaped links, the pull leg.
	wire := p.out["ps.batch_round_us_mux"] / 1e3
	if p.live.transport != "" {
		wire = p.out["collective.allreduce_ms_ring"]
	}
	if p.live.bandwidth > 0 {
		bytes := 0
		for _, n := range p.live.tensorElems() {
			bytes += 8 * n
		}
		wire += 1e3 * float64(bytes) / p.live.bandwidth
	}
	p.set("emu.self_ms_per_iter", emu.iterP50-p.out["nn.fwd_bwd_step_ms"]-p.out["nn.loss_eval_ms"]-wire)

	p.tr.end(root, 1)
	path, err := p.tr.write(filepath.Join(dir, "out"))
	if err != nil {
		return nil, err
	}
	fmt.Printf("  %d spans written to %s\n", len(p.tr.spans), path)

	res := &result{Attempted: p.attempted, Failed: p.failed, Correct: p.failed == 0, Metrics: map[string]metric{}}
	for name, v := range p.out {
		res.Metrics[name] = metric{Value: v}
	}
	return res, nil
}

// observation is what re-running a workload with the probe hooks attached
// yields, next to the same ops run with nothing attached.
type observation struct {
	iterP50, observedP50 float64 // ms per iteration, unobserved / observed
	overheadMS           float64 // median per-op wall not covered by iterations
	goroutines           int     // peak during the unobserved ops
	sendsPerIter         float64
	wireBytesPerIter     float64
	mean                 attrib.Components // worker 0, iterations ≥ 1
}

// observe alternates unobserved and observed ops of e for budget (one pair
// at least). Failed ops and attribution residuals above 1e-9 count as
// failures.
func (p *pass) observe(e *env, root int, budget time.Duration) observation {
	var plain, observed, overhead []float64
	var o observation
	var sends, wire, iters float64
	var sum attrib.Components
	pairs, analyzed := 0, 0
	deadline := time.Now().Add(budget)
	for pairs == 0 || time.Now().Before(deadline) {
		pairs++
		p.attempted += 2

		runPlain := func() {
			id := p.tr.begin("op.unobserved", root)
			stop := sampleGoroutines(&o.goroutines)
			s, err := e.op(nil, nil)
			stop()
			p.tr.end(id, e.itersPerOp)
			if err != nil {
				p.failed++
				fmt.Fprintln(os.Stderr, "benchmark: unobserved op failed:", err)
				return
			}
			plain = append(plain, s.iterMS...)
			overhead = append(overhead, s.overheadMS)
		}
		// Which of the two runs first alternates, so that neither always
		// inherits the other's warm caches.
		if pairs%2 == 1 {
			runPlain()
		}
		rec, met := probe.NewSpanRecorder(), probe.NewMetrics()
		id := p.tr.begin("op.observed", root)
		start := p.tr.now()
		s, err := e.op(rec, met)
		p.tr.end(id, e.itersPerOp)
		if pairs%2 == 0 {
			runPlain()
		}
		if err != nil {
			p.failed++
			fmt.Fprintln(os.Stderr, "benchmark: observed op failed:", err)
			continue
		}
		observed = append(observed, s.iterMS...)
		rep := attrib.Analyze(rec, 3)
		if r := rep.MaxResidual(); r > 1e-9 {
			p.failed++
			fmt.Fprintf(os.Stderr, "benchmark: attribution components miss completion by %g\n", r)
		}
		m := rep.Mean(0, 1)
		sum.Generation += m.Generation
		sum.PriorityWait += m.PriorityWait
		sum.BandwidthWait += m.BandwidthWait
		sum.Transmit += m.Transmit
		sum.Ack += m.Ack
		analyzed++
		iters += float64(e.itersPerOp)
		sends += float64(met.Counter("probe_sends").Value())
		wire += float64(met.Counter("transport_worker_tx_bytes").Value() + met.Counter("transport_collective_tx_bytes").Value())
		// Worker 0's wire sends become child spans of the observed op. The
		// live recorder's clock starts with the op; the simulator's spans
		// are in simulated seconds and stay out of the host-time trace.
		if e.liveClock {
			for _, sp := range rec.Spans() {
				if sp.Worker == 0 {
					p.tr.add("send:"+sp.Label, id, start+sp.Start, start+sp.End)
				}
			}
		}
	}
	o.iterP50, o.observedP50, o.overheadMS = sim.Median(plain), sim.Median(observed), sim.Median(overhead)
	if iters > 0 {
		n := float64(analyzed)
		o.sendsPerIter, o.wireBytesPerIter = sends/iters, wire/iters
		o.mean = attrib.Components{
			Generation: sum.Generation / n, PriorityWait: sum.PriorityWait / n,
			BandwidthWait: sum.BandwidthWait / n, Transmit: sum.Transmit / n, Ack: sum.Ack / n,
		}
	}
	return o
}

// sampleGoroutines polls the goroutine count every 200 µs until stop is
// called, raising *peak. stop waits for the sampler to exit.
func sampleGoroutines(peak *int) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(200 * time.Microsecond)
		defer tick.Stop()
		for {
			if n := runtime.NumGoroutine(); n > *peak {
				*peak = n
			}
			select {
			case <-done:
				return
			case <-tick.C:
			}
		}
	}()
	return func() { close(done); wg.Wait() }
}
