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

	"prophet/internal/allreduce"
	"prophet/internal/cluster"
	"prophet/internal/drive"
	"prophet/internal/emu"
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

// runSim drives the discrete-event simulator. The Chrome trace and CSV come
// from the simulator's own link recordings; the attribution report comes
// from the probe recorder, the same component the live path uses.
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

	opt := cluster.Options{Partition: 4e6, Credit: 4e6, Seed: cfg.seed}
	if cfg.policy == "prophet" {
		prof, err := profiler.Run(profiler.Config{Model: wire, Batch: cfg.batch, Agg: agg, Seed: cfg.seed * 97})
		if err != nil {
			fatal(err)
		}
		opt.Profile = prof.Profile()
	}
	if cfg.transport != "" && cfg.transport != "ps" {
		runSimCollective(cfg, wire, agg, opt, out)
		return
	}
	factory, err := cluster.ByName(cfg.policy, wire, opt)
	if err != nil {
		fatal(err)
	}

	rec := probe.NewSpanRecorder()
	res, err := cluster.Run(cluster.Config{
		Model:   wire,
		Batch:   cfg.batch,
		Workers: cfg.workers,
		Agg:     agg,
		Uplink: func(int) netsim.LinkConfig {
			return netsim.DefaultLinkConfig(netsim.Const(netsim.Goodput(netsim.Mbps(cfg.bandwidth))))
		},
		Scheduler:    factory,
		Iterations:   cfg.iters,
		Seed:         cfg.seed,
		RecordLinks:  true,
		LogTransfers: true,
		Observer:     rec,
		Predict:      out.audit != "",
	})
	if err != nil {
		fatal(err)
	}

	if out.json != "" {
		writeFile(out.json, func(f *os.File) error {
			return trace.WriteChromeTrace(f, trace.ChromeTrace(res))
		})
	}
	if out.csv != "" {
		writeFile(out.csv, func(f *os.File) error {
			const bin = 0.05
			gpu := res.GPU[0].Timeline(0, res.Duration, bin)
			up := res.Up[0].Timeline(0, res.Duration, bin)
			down := res.Down[0].Timeline(0, res.Duration, bin)
			return trace.WriteCSV(f, bin,
				[]string{"time_s", "gpu_util", "uplink_Bps", "downlink_Bps"}, gpu, up, down)
		})
	}
	if out.xfer != "" {
		writeFile(out.xfer, func(f *os.File) error {
			return trace.WriteTransferCSV(f, res.Transfers)
		})
	}
	writeAttrib(rec, out)
	writeAudit(rec, out)
}

// runSimCollective drives the collective path (ring/tree over the drive
// layer). Every export comes from the probe recorder, exactly like the live
// path — the collective transmitter feeds the same event stream.
func runSimCollective(cfg simConfig, wire *model.Model, agg stepwise.Buckets, opt cluster.Options, out outputs) {
	factory, err := cluster.ByNameTransport(cfg.policy, cfg.transport, cfg.workers, wire, opt)
	if err != nil {
		fatal(err)
	}
	rec := probe.NewSpanRecorder()
	res, err := allreduce.Run(allreduce.Config{
		Model:      wire,
		Batch:      cfg.batch,
		Workers:    cfg.workers,
		Agg:        agg,
		Link:       netsim.DefaultLinkConfig(netsim.Const(netsim.Goodput(netsim.Mbps(cfg.bandwidth)))),
		Backend:    cfg.transport,
		Scheduler:  factory,
		Iterations: cfg.iters,
		Seed:       cfg.seed,
		Observer:   rec,
		Predict:    out.audit != "",
	})
	if err != nil {
		fatal(err)
	}
	if out.json != "" {
		writeFile(out.json, func(f *os.File) error {
			return trace.WriteChromeTrace(f, trace.ChromeTraceSpans(rec))
		})
	}
	if out.csv != "" {
		writeFile(out.csv, func(f *os.File) error {
			const bin = 0.05
			gpu := res.GPU.Timeline(0, res.Duration, bin)
			rate := rec.Rate(0)
			if rate == nil {
				return fmt.Errorf("no transfers recorded")
			}
			return trace.WriteCSV(f, bin,
				[]string{"time_s", "gpu_util", "uplink_Bps"}, gpu, rate.Timeline(0, res.Duration, bin))
		})
	}
	if out.xfer != "" {
		writeFile(out.xfer, func(f *os.File) error {
			return trace.WriteTransferCSV(f, rec.Transfers())
		})
	}
	writeAttrib(rec, out)
	writeAudit(rec, out)
}

// runEmu drives the live emulation. Every export comes from the probe
// recorder: the same event stream both executors emit.
func runEmu(cfg emuConfig, out outputs) {
	rec := probe.NewSpanRecorder()
	rec.SetIterationHint(cfg.iters)
	// ≤ one completing send per tensor per iteration; the MLP below has
	// 2×(layers−1) = 6 tensors.
	rec.SetVolumeHint(cfg.iters*6, cfg.workers)
	// -bandwidth stays in Mbps for CLI symmetry with the sim path; the
	// emulation's shaper wants bytes/sec.
	res, err := emu.Run(emu.Config{
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
	_ = res

	if out.json != "" {
		writeFile(out.json, func(f *os.File) error {
			return trace.WriteChromeTrace(f, trace.ChromeTraceSpans(rec))
		})
	}
	if out.csv != "" {
		writeFile(out.csv, func(f *os.File) error {
			const bin = 0.005
			end := 0.0
			if log := rec.Iterations(0); log != nil && log.Count() > 0 {
				end = log.Ends[log.Count()-1]
			}
			rate := rec.Rate(0)
			if rate == nil {
				return fmt.Errorf("no transfers recorded for worker 0")
			}
			return trace.WriteCSV(f, bin,
				[]string{"time_s", "uplink_Bps"}, rate.Timeline(0, end, bin))
		})
	}
	if out.xfer != "" {
		writeFile(out.xfer, func(f *os.File) error {
			return trace.WriteTransferCSV(f, rec.Transfers())
		})
	}
	writeAttrib(rec, out)
	writeAudit(rec, out)
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
