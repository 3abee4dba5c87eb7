// Command prophet-trace runs one training job — simulated or live-emulated —
// and exports its timelines: a Chrome trace-event JSON, a CSV of GPU
// utilization and network throughput, a CSV of per-gradient transfers, and a
// stall-attribution report decomposing each gradient's completion time into
// generation / priority-wait / bandwidth-wait / transmit / ack (Fig. 11).
//
// Usage:
//
//	prophet-trace -model resnet50 -policy prophet -out trace.json
//	prophet-trace -policy bytescheduler -csv timeline.csv -transfers log.csv
//	prophet-trace -path emu -policy prophet -out live.json -attrib report.txt
//	prophet-trace -policy prophet -audit audit.txt   # predicted vs actual
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"prophet/internal/cluster"
	"prophet/internal/drive"
	"prophet/internal/emu"
	"prophet/internal/metrics"
	"prophet/internal/model"
	"prophet/internal/netsim"
	"prophet/internal/nn"
	"prophet/internal/probe"
	"prophet/internal/probe/attrib"
	"prophet/internal/probe/predict"
	"prophet/internal/profiler"
	"prophet/internal/stepwise"
	"prophet/internal/strategy"
	"prophet/internal/trace"
)

func main() {
	policyUsage := "scheduling strategy: " + strings.Join(strategy.Names(), "|")
	var (
		path      = flag.String("path", "sim", "execution path: sim (discrete-event simulator) | emu (live emulation)")
		modelName = flag.String("model", "resnet50", "model (sim path)")
		batch     = flag.Int("batch", 64, "batch size")
		workers   = flag.Int("workers", 3, "workers")
		bandwidth = flag.Float64("bandwidth", 3000, "per-worker Mbps")
		policy    = flag.String("policy", "prophet", policyUsage)
		iters     = flag.Int("iters", 6, "iterations")
		seed      = flag.Uint64("seed", 1, "seed")
		hidden    = flag.Int("hidden", 64, "hidden layer width (emu path)")
		mux       = flag.Bool("mux", false, "emu path: share one multiplexed connection per shard across all workers")
		topK      = flag.Int("topk", 3, "blocking gradients listed per iteration in the attribution report")
		transport = flag.String("transport", "ps", "transport backend: "+strings.Join(drive.BackendNames(), "|")+" (both paths; ring/tree run the collective)")
		outJSON   = flag.String("out", "", "Chrome trace JSON output path")
		outCSV    = flag.String("csv", "", "timeline CSV output path (GPU util + throughput)")
		outXfer   = flag.String("transfers", "", "per-gradient transfer CSV output path")
		outAttrib = flag.String("attrib", "", "stall-attribution report output path")
		outAudit  = flag.String("audit", "", "prediction-audit report output path (predicted vs actual windows, drift scores)")
	)
	flag.Parse()
	if *outJSON == "" && *outCSV == "" && *outXfer == "" && *outAttrib == "" && *outAudit == "" {
		fmt.Fprintln(os.Stderr, "nothing to do: pass -out, -csv, -transfers, -attrib, or -audit")
		os.Exit(1)
	}

	if err := strategy.Check(*policy); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	switch *path {
	case "sim":
		runSim(simConfig{
			model: *modelName, batch: *batch, workers: *workers,
			bandwidth: *bandwidth, policy: *policy, iters: *iters, seed: *seed,
			transport: *transport,
		}, outputs{json: *outJSON, csv: *outCSV, xfer: *outXfer, attrib: *outAttrib, audit: *outAudit, topK: *topK})
	case "emu":
		runEmu(emuConfig{
			batch: *batch, workers: *workers, hidden: *hidden,
			bandwidth: *bandwidth, policy: *policy, iters: *iters, seed: *seed,
			mux: *mux, transport: *transport,
		}, outputs{json: *outJSON, csv: *outCSV, xfer: *outXfer, attrib: *outAttrib, audit: *outAudit, topK: *topK})
	default:
		fmt.Fprintf(os.Stderr, "unknown -path %q: want sim or emu\n", *path)
		os.Exit(1)
	}
}

type simConfig struct {
	model          string
	batch, workers int
	bandwidth      float64
	policy         string
	iters          int
	seed           uint64
	transport      string
}

type emuConfig struct {
	batch, workers, hidden int
	bandwidth              float64
	policy                 string
	iters                  int
	seed                   uint64
	mux                    bool
	transport              string
}

type outputs struct {
	json, csv, xfer, attrib, audit string
	topK                           int
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

func writeFile(path string, fn func(*os.File) error) {
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	if err := fn(f); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s\n", path)
}

// export writes every requested output from the probe recorder — the one
// record all three executors share. gpu is worker 0's compute-busy series
// when the executor has one (the simulators), down its downlink payload
// series when the executor models one (the PS simulator); either may be
// nil and its CSV column is then omitted. end is the run's last timestamp,
// bin the CSV bin width in the executor's clock. The CSV and the transfer
// log cover worker 0, like the figures they feed.
func export(rec *probe.SpanRecorder, gpu *metrics.IntervalSeries, down *metrics.RateSeries, end, bin float64, out outputs) {
	if out.json != "" {
		writeFile(out.json, func(f *os.File) error {
			return trace.WriteChromeTrace(f, trace.ChromeTraceSpans(rec))
		})
	}
	if out.csv != "" {
		writeFile(out.csv, func(f *os.File) error {
			up := rec.Rate(0)
			if up == nil {
				return fmt.Errorf("no transfers recorded for worker 0")
			}
			headers := []string{"time_s"}
			var cols [][]float64
			if gpu != nil {
				headers = append(headers, "gpu_util")
				cols = append(cols, gpu.Timeline(0, end, bin))
			}
			headers = append(headers, "uplink_Bps")
			cols = append(cols, up.Timeline(0, end, bin))
			if down != nil {
				headers = append(headers, "downlink_Bps")
				cols = append(cols, down.Timeline(0, end, bin))
			}
			return trace.WriteCSV(f, bin, headers, cols...)
		})
	}
	if out.xfer != "" {
		writeFile(out.xfer, func(f *os.File) error {
			return trace.WriteTransferCSV(f, rec.Transfers(0))
		})
	}
	writeAttrib(rec, out)
	writeAudit(rec, out)
}

// runSim drives the discrete-event simulator. Exports come from the probe
// recorder like on every path; the PS wire's link recordings add what only
// it has — the message-level Chrome trace (compute, push and pull tracks)
// and the downlink CSV column.
func runSim(cfg simConfig, out outputs) {
	base, err := model.ByName(cfg.model)
	if err != nil {
		fatal(err)
	}
	wire := model.WithWireFactor(base, 2)
	aggBytes := wire.TotalBytes() / 13
	if aggBytes < 4e6 {
		aggBytes = 4e6
	}
	agg := stepwise.Aggregate(wire, aggBytes, 0)
	link := netsim.DefaultLinkConfig(netsim.Const(netsim.Goodput(netsim.Mbps(cfg.bandwidth))))

	opt := cluster.Options{Partition: 4e6, Credit: 4e6, Seed: cfg.seed}
	if cfg.policy == "prophet" {
		prof, err := profiler.Run(profiler.Config{Model: wire, Batch: cfg.batch, Agg: agg, Seed: cfg.seed * 97})
		if err != nil {
			fatal(err)
		}
		opt.Profile = prof.Profile()
	}
	factory, err := cluster.ByNameTransport(cfg.policy, cfg.transport, cfg.workers, wire, opt)
	if err != nil {
		fatal(err)
	}
	rec := probe.NewSpanRecorder()
	const bin = 0.05

	res, err := cluster.Run(cluster.Config{
		Model:       wire,
		Batch:       cfg.batch,
		Workers:     cfg.workers,
		Transport:   cfg.transport,
		Agg:         agg,
		Uplink:      func(int) netsim.LinkConfig { return link },
		Scheduler:   factory,
		Iterations:  cfg.iters,
		Seed:        cfg.seed,
		RecordLinks: true,
		Observer:    rec,
		Predict:     out.audit != "",
	})
	if err != nil {
		fatal(err)
	}
	var down *metrics.RateSeries
	if len(res.DownRecords) > 0 {
		// A run with a pull leg: the message-level trace and the downlink
		// column come from its link records.
		if out.json != "" {
			writeFile(out.json, func(f *os.File) error {
				return trace.WriteChromeTrace(f, trace.ChromeTrace(res))
			})
			out.json = "" // written from the link records; export skips its span-based one
		}
		down = &metrics.RateSeries{}
		for _, r := range res.DownRecords[0] {
			down.Add(r.Start, r.End, r.Bytes)
		}
	}
	export(rec, res.GPU[0], down, res.Duration, bin, out)
}

// runEmu drives the live emulation (times are wall seconds).
func runEmu(cfg emuConfig, out outputs) {
	rec := probe.NewSpanRecorder()
	rec.SetIterationHint(cfg.iters)
	// -bandwidth stays in Mbps for CLI symmetry with the sim path; the
	// emulation's shaper wants bytes/sec.
	_, err := emu.Run(emu.Config{
		Workers:              cfg.workers,
		Layers:               []int{16, cfg.hidden, cfg.hidden, 4},
		Dataset:              nn.Blobs(2048, 16, 4, cfg.seed),
		Batch:                cfg.batch,
		Iterations:           cfg.iters,
		LR:                   0.1,
		Policy:               cfg.policy,
		BandwidthBytesPerSec: cfg.bandwidth * 1e6 / 8,
		Seed:                 cfg.seed,
		Mux:                  cfg.mux,
		Transport:            cfg.transport,
		Observer:             rec,
		Predict:              out.audit != "",
	})
	if err != nil {
		fatal(err)
	}
	end := 0.0
	if log := rec.Iterations(0); log != nil && log.Count() > 0 {
		end = log.Ends[log.Count()-1]
	}
	export(rec, nil, nil, end, 0.005, out)
}

func writeAttrib(rec *probe.SpanRecorder, out outputs) {
	if out.attrib == "" {
		return
	}
	writeFile(out.attrib, func(f *os.File) error {
		attrib.Analyze(rec, out.topK).Render(f)
		return nil
	})
}

// writeAudit replays the recorded stream through the prediction auditor and
// renders the predicted-vs-actual table. On the emu path the planned windows
// come from the engines' dispatch-time projections; on the sim paths from
// the drive layer's cost model.
func writeAudit(rec *probe.SpanRecorder, out outputs) {
	if out.audit == "" {
		return
	}
	writeFile(out.audit, func(f *os.File) error {
		rep := predict.Audit(rec, predict.Options{})
		if rep.Planned == 0 {
			return fmt.Errorf("no planned windows recorded: prediction not armed on this path")
		}
		rep.Render(f)
		return nil
	})
}
