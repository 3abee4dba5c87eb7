// Command prophet-run runs one training job under one push schedule on one
// transport — simulated (-path sim: the discrete-event cluster on a model
// from the zoo) or live (-path emu: real data-parallel SGD on a real MLP over
// real pipes) — and accounts for it the same way on both paths. One
// probe.SpanRecorder is always attached and the summary block is read from
// it. -out writes the run's whole account as one JSON document: the flags,
// that summary, worker 0's timeline, every gradient's lifecycle, the stall
// attribution (the Fig. 11 decomposition), the prediction audit and a
// traceEvents array, which makes the file a trace-event JSON object that
// chrome://tracing and Perfetto open as is. A strategy × transport ×
// executor comparison diffs two documents as data.
//
// Usage:
//
//	prophet-run -model resnet50 -policy prophet -bandwidth 3000 -iters 12
//	prophet-run -policy p3 -transport ring -out run.json
//	prophet-run -path emu -workers 4 -transport ring -out run.json && jq .attribution run.json
//	prophet-run -path emu -mux -workers 1000 -shards 4 -bandwidth 0 -iters 2
//	prophet-run -path emu -debug-addr 127.0.0.1:6060  # /metrics, /predict
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"prophet/internal/cluster"
	"prophet/internal/drive"
	"prophet/internal/emu"
	"prophet/internal/metrics"
	"prophet/internal/model"
	"prophet/internal/netsim"
	"prophet/internal/nn"
	"prophet/internal/probe"
	"prophet/internal/probe/predict"
	"prophet/internal/profiler"
	"prophet/internal/shard"
	"prophet/internal/stepwise"
	"prophet/internal/strategy"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// job is the parsed command line: every flag, defined once.
type job struct {
	path, policy, transport string
	workers, batch, iters   int
	seed                    uint64
	shards                  int
	placement               string
	bandwidth               float64 // Mbps per worker link; 0 = unshaped (emu only)

	model             string  // sim
	partition, credit float64 // sim, MB
	splitNIC          bool    // sim
	hidden            int     // emu
	mux               bool    // emu

	out       string // the run's account, one JSON document
	debugAddr string
}

// account is what an executor adds to the recorder's contents: the clock
// facts the document needs, what only one executor keeps, and the report
// lines only it can print.
type account struct {
	what string  // what was trained, for the header
	end  float64 // the run's last instant on the recorder's clock
	bin  float64 // timeline bin width on that clock
	// gpu is worker 0's compute-busy series and down its downlink payload
	// series; nil where the executor has none (emu; down also on a
	// collective), and the timeline then omits the series.
	gpu  *metrics.IntervalSeries
	down *metrics.RateSeries
	// tracks are the trace events only the simulator has: compute intervals
	// and downlink pulls, drawn beside the recorder's spans.
	tracks []traceEvent
	phases *emu.PhaseTimes // emu only
	tail   string          // the report lines only this executor prints, after the shared block
}

// run is the whole command: parse, attach the observers, execute on one
// path, print one report, write the document.
func run(args []string, out io.Writer) error {
	var j job
	fs := flag.NewFlagSet("prophet-run", flag.ExitOnError) // as the global flag set behaves
	fs.StringVar(&j.path, "path", "sim", "executor: sim (discrete-event simulator) | emu (live emulation)")
	fs.StringVar(&j.policy, "policy", "prophet", "scheduling strategy: "+strings.Join(strategy.Names(), "|"))
	fs.StringVar(&j.transport, "transport", "ps", "wire under the schedule: "+strings.Join(drive.BackendNames(), "|")+" (ring/tree replace the PS with a collective)")
	fs.IntVar(&j.workers, "workers", 3, "data-parallel workers")
	fs.IntVar(&j.batch, "batch", 64, "per-worker mini-batch size")
	fs.IntVar(&j.iters, "iters", 12, "training iterations")
	fs.Uint64Var(&j.seed, "seed", 1, "seed")
	fs.IntVar(&j.shards, "shards", 1, "parameter server shards (key-sharded multi-PS)")
	fs.StringVar(&j.placement, "placement", "size-balanced", "key→shard placement: round-robin|size-balanced")
	fs.Float64Var(&j.bandwidth, "bandwidth", 0, "per-worker link bandwidth in Mbps (default 3000 on sim, 32 on emu; 0 = unshaped, emu only)")
	fs.StringVar(&j.model, "model", "resnet50", "sim: model, "+strings.Join(model.Names(), "|"))
	fs.Float64Var(&j.partition, "partition", 4, "sim: P3 partition size in MB")
	fs.Float64Var(&j.credit, "credit", 4, "sim: ByteScheduler credit in MB")
	fs.BoolVar(&j.splitNIC, "split-nic", false, "sim: scale each shard link to 1/shards of the bandwidth (one NIC split across shards) instead of full speed per shard")
	fs.IntVar(&j.hidden, "hidden", 128, "emu: hidden layer width of the MLP")
	fs.BoolVar(&j.mux, "mux", false, "emu: put all workers on one shared pipe per shard instead of a pipe each (use for -workers ≥ 100)")
	fs.StringVar(&j.out, "out", "", "the run's account to this file: one JSON document (timeline, gradients, stall attribution, prediction audit, traceEvents) that trace viewers open as is")
	fs.StringVar(&j.debugAddr, "debug-addr", "", "serve live metrics as JSON on this address (e.g. 127.0.0.1:6060/metrics, and /predict on a shaped link) and dump them after the run")
	_ = fs.Parse(args) // ExitOnError: Parse does not return on a bad flag

	// The path picks the executor and the link speed its model is sized for.
	execute, mbps := simulate, 3000.0
	if j.path == "emu" {
		execute, mbps = emulate, 32 // 4 MB/s: slow enough that send order shows on a small MLP
	} else if j.path != "sim" {
		return fmt.Errorf("unknown -path %q: want sim or emu", j.path)
	}
	// "Unset" is whether the flag was given, not a sentinel value: a negative
	// rate is a typo, not a request for the default.
	given := false
	fs.Visit(func(f *flag.Flag) { given = given || f.Name == "bandwidth" })
	if !given {
		j.bandwidth = mbps
	} else if j.bandwidth < 0 {
		return fmt.Errorf("-bandwidth %g: a link rate in Mbps cannot be negative", j.bandwidth)
	}
	if err := strategy.Check(j.policy); err != nil {
		return err
	}
	if j.iters < 1 {
		return fmt.Errorf("-iters %d: a run needs at least one iteration", j.iters)
	}
	// Zero means "the default" in strategy.Params, and the flags' default is
	// already 4: a non-positive size is a typo, not a request for 4 MB.
	if j.partition <= 0 {
		return fmt.Errorf("-partition %g: a partition size in MB must be positive", j.partition)
	}
	if j.credit <= 0 {
		return fmt.Errorf("-credit %g: a credit in MB must be positive", j.credit)
	}

	// The recorder is the run's account and is always attached. The metrics
	// registry exists only when asked for. The auditor listens when the
	// document or /predict has a reader for it and the wire has a rate to
	// predict from; attaching it is what makes either path predict.
	rec := probe.NewSpanRecorder()
	rec.SetIterationHint(j.iters)
	obs := probe.Observer(rec)
	var m *probe.Metrics
	if j.debugAddr != "" {
		m = probe.NewMetrics()
	}
	var aud *predict.Auditor
	if (j.out != "" || j.debugAddr != "") && j.bandwidth > 0 {
		aud = predict.NewAuditor(predict.Options{Metrics: m})
		obs = probe.NewMulti(rec, aud)
	}
	if j.debugAddr != "" {
		ln, err := net.Listen("tcp", j.debugAddr)
		if err != nil {
			return err
		}
		defer ln.Close()
		mux := http.NewServeMux()
		mux.Handle("/metrics", m.Handler())
		endpoints := "/metrics"
		if aud != nil {
			mux.Handle("/predict", aud.Handler())
			endpoints += " and /predict"
		}
		go http.Serve(ln, mux) //nolint:errcheck — dies with the process
		fmt.Fprintf(out, "serving %s on http://%s\n", endpoints, ln.Addr())
	}

	acct, err := execute(j, rec, obs, m)
	if err != nil {
		return err
	}
	var audit *predict.Report
	if aud != nil {
		aud.Flush()
		if audit = aud.Report(); audit.Planned == 0 {
			return fmt.Errorf("prediction audit: no planned send windows at -bandwidth %g", j.bandwidth)
		}
	}

	link := "unshaped links"
	if j.bandwidth > 0 {
		link = fmt.Sprintf("%g Mbps/link", j.bandwidth)
	}
	fmt.Fprintf(out, "%s over %s on %s: batch %d, %d workers, %d iterations, %s\n",
		j.policy, j.transport, acct.what, j.batch, j.workers, j.iters, link)
	sum := summarize(rec, acct.end)
	fmt.Fprintf(out, "  iteration time:  %7.1f ms average\n", 1e3*sum.iterTime)
	fmt.Fprintf(out, "  tensor-0 trip:   %7.1f ms average, generated → acked\n", 1e3*sum.tensor0Trip)
	fmt.Fprintf(out, "  uplink payload:  %7.1f MB/s average\n", sum.uplinkBps/1e6)
	fmt.Fprint(out, acct.tail)

	if j.out != "" {
		doc, err := newDocument(fs, rec, acct, sum, audit)
		if err != nil {
			return err
		}
		if err := os.WriteFile(j.out, doc, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s\n", j.out)
	}
	if m != nil {
		fmt.Fprintln(out, "  metrics:")
		return m.WriteJSON(out)
	}
	return nil
}

// warmup is how many leading iterations the steady-state figures skip: the
// first two (pipeline fill on the simulator; the FIFO profiling iteration
// under -policy prophet on the live path), or none in a run too short to
// have anything left.
func warmup(iters int) int {
	if iters <= 2 {
		return 0
	}
	return 2
}

// summary is the shared report block: worker 0's figures over the window
// from its first post-warm-up iteration to the run's end, read from the
// recorder alone so they mean the same thing on both executors. A recorder
// that saw no iteration — no finished run leaves one — summarises to zeros.
type summary struct {
	iterTime    float64 // mean iteration duration, seconds
	tensor0Trip float64 // mean gradient-0 generated → acked, seconds (attrib's completion time)
	uplinkBps   float64 // uplink payload bytes per second of the window
}

func summarize(rec *probe.SpanRecorder, end float64) summary {
	var s summary
	log := rec.Iterations(0)
	if log == nil || log.Count() == 0 {
		return s
	}
	skip := warmup(log.Count())
	for _, d := range log.Durations()[skip:] {
		s.iterTime += d
	}
	s.iterTime /= float64(log.Count() - skip)
	trips := 0
	for _, g := range rec.Grads() {
		if g.Worker == 0 && g.Grad == 0 && g.Iter >= skip && g.HasAcked {
			s.tensor0Trip += g.Acked - g.Generated
			trips++
		}
	}
	if trips > 0 {
		s.tensor0Trip /= float64(trips)
	}
	if up := rec.Rate(0); up != nil {
		s.uplinkBps = up.Throughput(log.Starts[skip], end)
	}
	return s
}

// simulate runs the job on the discrete-event cluster. -out asks it for
// per-message link records, which add what only the PS wire has: the
// downlink track and series.
func simulate(j job, _ *probe.SpanRecorder, obs probe.Observer, m *probe.Metrics) (account, error) {
	if j.bandwidth == 0 {
		return account{}, fmt.Errorf("-bandwidth 0 (unshaped) has no meaning on -path sim: a simulated link needs a rate")
	}
	base, err := model.ByName(j.model)
	if err != nil {
		return account{}, err
	}
	wire := model.WithWireFactor(base, 2)
	agg := stepwise.DefaultAggregate(wire)
	opt := cluster.Options{Partition: j.partition * 1e6, Credit: j.credit * 1e6, Seed: j.seed}
	if j.policy == "prophet" {
		prof, err := profiler.Run(profiler.Config{Model: wire, Batch: j.batch, Agg: agg, Seed: j.seed * 97})
		if err != nil {
			return account{}, err
		}
		opt.Profile = prof.Profile()
	}
	factory, err := cluster.ByNameTransport(j.policy, j.transport, j.workers, wire, opt)
	if err != nil {
		return account{}, err
	}
	uplink := netsim.DefaultLinkConfig(netsim.Const(netsim.Goodput(netsim.Mbps(j.bandwidth))))
	cfg := cluster.Config{
		Model:          wire,
		Batch:          j.batch,
		Workers:        j.workers,
		Transport:      j.transport,
		Agg:            agg,
		Uplink:         func(int) netsim.LinkConfig { return uplink },
		Scheduler:      factory,
		Iterations:     j.iters,
		Seed:           j.seed,
		PSShards:       j.shards,
		ShardPlacement: shard.Placement(j.placement),
		RecordLinks:    j.out != "",
		Observer:       probe.NewMulti(obs, m.Observer()),
	}
	if j.splitNIC && j.shards > 1 {
		split := uplink
		split.Trace = netsim.Scale(uplink.Trace, 1/float64(j.shards))
		cfg.ShardUplink = func(int, int) netsim.LinkConfig { return split }
	}
	res, err := cluster.Run(cfg)
	if err != nil {
		return account{}, err
	}

	acct := account{what: base.Name + " (simulated)", end: res.Duration, bin: 0.05, gpu: res.GPU[0], tracks: simTracks(res)}
	if len(res.DownRecords) > 0 {
		acct.down = &metrics.RateSeries{}
		for _, r := range res.DownRecords[0] {
			acct.down.Add(r.Start, r.End, r.Bytes)
		}
	}
	var tail strings.Builder
	if res.Shards > 1 {
		mode := "full-speed shard links"
		if j.splitNIC {
			mode = "NIC split across shards"
		}
		fmt.Fprintf(&tail, "  PS shards:       %7d (%s placement, %s; load imbalance %.3f)\n",
			res.Shards, j.placement, mode, res.ShardMap.Imbalance())
	}
	skip := warmup(j.iters)
	fmt.Fprintf(&tail, "  training rate:   %8.2f samples/s per worker (%8.2f aggregate)\n",
		res.Rate(skip), res.ClusterRate(skip))
	fmt.Fprintf(&tail, "  GPU utilization: %7.1f%%\n", 100*res.GPUUtil(0, skip))
	if j.transport != "ps" {
		fmt.Fprintf(&tail, "  collective ops:  %7d (%.1f per iteration)\n",
			res.Sends, float64(res.Sends)/float64(j.iters))
	}
	fmt.Fprintf(&tail, "  simulated time:  %7.2f s for %d iterations\n", res.Duration, j.iters)
	acct.tail = tail.String()
	return acct, nil
}

// emulate runs the job on the live path; times are wall seconds since the
// run started.
func emulate(j job, rec *probe.SpanRecorder, obs probe.Observer, m *probe.Metrics) (account, error) {
	res, err := emu.Run(emu.Config{
		Workers:              j.workers,
		Layers:               []int{16, j.hidden, j.hidden, 4},
		Dataset:              nn.Blobs(2048, 16, 4, j.seed),
		Batch:                j.batch,
		Iterations:           j.iters,
		LR:                   0.1,
		Policy:               j.policy,
		BandwidthBytesPerSec: netsim.Mbps(j.bandwidth),
		Seed:                 j.seed,
		Shards:               j.shards,
		ShardPlacement:       shard.Placement(j.placement),
		Mux:                  j.mux,
		Transport:            j.transport,
		Metrics:              m,
		Observer:             obs,
	})
	if err != nil {
		return account{}, err
	}
	log := rec.Iterations(0)
	wire := fmt.Sprintf("%d PS shard(s), per-worker pipes", j.shards)
	if j.transport != "ps" {
		wire = "peers on one shared pipe"
	} else if j.mux {
		wire = fmt.Sprintf("%d PS shard(s), one shared pipe each", j.shards)
	}
	var tail strings.Builder
	fmt.Fprintf(&tail, "  loss:            %7.4f → %.4f, accuracy %.1f%%\n"+
		"  push order:      %v in the last iteration\n"+
		"  wall time:       %7.2f s for %d iterations\n",
		res.Losses[0], res.Losses[len(res.Losses)-1], 100*res.FinalAccuracy,
		res.PushOrder, res.Duration.Seconds(), j.iters)
	// One row per phase of the worker loop, per iteration after the first:
	// the mean across workers, and the max that the barrier hides. A
	// one-iteration run has no such iteration, so it says that instead.
	if j.iters < 2 {
		tail.WriteString("  phases:          none timed: they exclude iteration 0, the only one\n")
	} else {
		ph := res.Phases
		for _, row := range []struct {
			name      string
			mean, max time.Duration
			note      string
		}{
			{"compute", ph.Mean.Compute, ph.Max.Compute, " across workers, per iteration after the first"},
			{"wire", ph.Mean.Wire, ph.Max.Wire, ""},
			{"update", ph.Mean.Update, ph.Max.Update, ""},
			{"eval-wait", ph.Mean.EvalWait, ph.Max.EvalWait, fmt.Sprintf(" (worker 0; its helper evaluates %.2f ms)", 1e3*ph.Eval.Seconds())},
		} {
			fmt.Fprintf(&tail, "  %-17s%7.2f ms mean, %7.2f ms max%s\n", "phase "+row.name+":", 1e3*row.mean.Seconds(), 1e3*row.max.Seconds(), row.note)
		}
	}
	return account{
		what:   fmt.Sprintf("a 16-%d-%d-4 MLP (live: %s)", j.hidden, j.hidden, wire),
		end:    log.Ends[log.Count()-1],
		bin:    0.005,
		phases: &res.Phases,
		tail:   tail.String(),
	}, nil
}
