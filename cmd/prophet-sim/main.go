// Command prophet-sim runs one simulated DDNN training job and reports its
// training rate, GPU utilization, and network throughput.
//
// Usage:
//
//	prophet-sim -model resnet50 -batch 64 -workers 3 -bandwidth 3000 \
//	            -policy prophet -iters 12
//	prophet-sim -debug-addr 127.0.0.1:6060 -audit   # /metrics + /predict JSON
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"

	"prophet/internal/cluster"
	"prophet/internal/drive"
	"prophet/internal/model"
	"prophet/internal/netsim"
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

// run is the whole command: one cluster.Run on the transport -transport
// names, reported by one print block.
func run(args []string, out io.Writer) error {
	policyUsage := "scheduling strategy: " + strings.Join(strategy.Names(), "|")
	fs := flag.NewFlagSet("prophet-sim", flag.ExitOnError) // as the global flag set behaves
	var (
		modelName = fs.String("model", "resnet50", "model: resnet18|resnet50|resnet152|inception-v3|vgg19|alexnet")
		batch     = fs.Int("batch", 64, "per-worker mini-batch size")
		workers   = fs.Int("workers", 3, "number of worker nodes")
		bandwidth = fs.Float64("bandwidth", 3000, "per-worker bandwidth limit in Mbps")
		policy    = fs.String("policy", "prophet", policyUsage)
		iters     = fs.Int("iters", 12, "training iterations")
		seed      = fs.Uint64("seed", 1, "simulation seed")
		partition = fs.Float64("partition", 4, "P3 partition size in MB")
		credit    = fs.Float64("credit", 4, "ByteScheduler credit in MB")
		shards    = fs.Int("shards", 1, "parameter server shards (key-sharded multi-PS)")
		placement = fs.String("placement", "size-balanced", "key→shard placement: round-robin|size-balanced")
		splitNIC  = fs.Bool("split-nic", false, "scale each shard link to 1/shards of the bandwidth (one NIC split across shards) instead of full speed per shard")
		transport = fs.String("transport", "ps", "transport backend: "+strings.Join(drive.BackendNames(), "|"))
		audit     = fs.Bool("audit", false, "score predicted vs actual send windows and print the prediction-audit table (served on /predict with -debug-addr)")
		debugAddr = fs.String("debug-addr", "", "serve live metrics as JSON on this address (e.g. 127.0.0.1:6060/metrics, /predict with -audit) and dump them after the run")
	)
	_ = fs.Parse(args) // ExitOnError: Parse does not return on a bad flag

	// Same observability surface as prophet-emu: a probe.Metrics registry
	// behind -debug-addr (nil keeps the unobserved fast path), plus the
	// prediction auditor behind -audit.
	var m *probe.Metrics
	if *debugAddr != "" {
		m = probe.NewMetrics()
	}
	var aud *predict.Auditor
	if *audit {
		aud = predict.NewAuditor(predict.Options{Metrics: m})
	}
	if *debugAddr != "" {
		ln, err := net.Listen("tcp", *debugAddr)
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

	base, err := model.ByName(*modelName)
	if err != nil {
		return err
	}
	wire := model.WithWireFactor(base, 2)
	aggBytes := wire.TotalBytes() / 13
	if aggBytes < 4e6 {
		aggBytes = 4e6
	}
	agg := stepwise.Aggregate(wire, aggBytes, 0)

	if err := strategy.Check(*policy); err != nil {
		return err
	}
	opt := cluster.Options{
		Partition: *partition * 1e6,
		Credit:    *credit * 1e6,
		Seed:      *seed,
	}
	if *policy == "prophet" {
		prof, err := profiler.Run(profiler.Config{Model: wire, Batch: *batch, Agg: agg, Seed: *seed * 97})
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "profiled %d iterations: %d stepwise blocks, backward %.0f ms, cost %.1f s\n",
			prof.Iterations, len(prof.Blocks), 1e3*prof.Gen[0], prof.WallTime)
		opt.Profile = prof.Profile()
	}
	uplink := func(int) netsim.LinkConfig {
		return netsim.DefaultLinkConfig(netsim.Const(netsim.Goodput(netsim.Mbps(*bandwidth))))
	}

	factory, err := cluster.ByNameTransport(*policy, *transport, *workers, wire, opt)
	if err != nil {
		return err
	}
	// The uplink payload line is read from the probe stream, the only record
	// of when bytes moved.
	rec := probe.NewSpanRecorder()
	cfg := cluster.Config{
		Model:          wire,
		Batch:          *batch,
		Workers:        *workers,
		Transport:      *transport,
		Agg:            agg,
		Uplink:         uplink,
		Scheduler:      factory,
		Iterations:     *iters,
		Seed:           *seed,
		PSShards:       *shards,
		ShardPlacement: shard.Placement(*placement),
		Observer:       probe.NewMulti(rec, observers(m, aud)),
		Predict:        *audit,
	}
	if *splitNIC && *shards > 1 {
		cfg.ShardUplink = func(w, _ int) netsim.LinkConfig {
			lc := uplink(w)
			lc.Trace = netsim.Scale(lc.Trace, 1/float64(*shards))
			return lc
		}
		cfg.ShardDownlink = cfg.ShardUplink
	}
	res, err := cluster.Run(cfg)
	if err != nil {
		return err
	}

	warmup := 2
	if *iters <= warmup {
		warmup = 0
	}
	fmt.Fprintf(out, "%s over %s on %s: batch %d, %d workers, %.0f Mbps/link\n",
		res.SchedulerName, *transport, base.Name, *batch, *workers, *bandwidth)
	if res.Shards > 1 {
		mode := "full-speed shard links"
		if *splitNIC {
			mode = "NIC split across shards"
		}
		fmt.Fprintf(out, "  PS shards:       %7d (%s placement, %s; load imbalance %.3f)\n",
			res.Shards, *placement, mode, res.ShardMap.Imbalance())
	}
	fmt.Fprintf(out, "  training rate:   %8.2f samples/s per worker (%8.2f aggregate)\n",
		res.Rate(warmup), res.ClusterRate(warmup))
	fmt.Fprintf(out, "  GPU utilization: %7.1f%%\n", 100*res.GPUUtil(0, warmup))
	fmt.Fprintf(out, "  uplink payload:  %7.1f MB/s average\n",
		rec.Rate(0).Throughput(res.Iters.Starts[warmup], res.Duration)/1e6)
	if *transport != "ps" {
		fmt.Fprintf(out, "  collective ops:  %7d (%.1f per iteration)\n",
			res.Sends, float64(res.Sends)/float64(*iters))
	}
	fmt.Fprintf(out, "  simulated time:  %7.2f s for %d iterations\n", res.Duration, *iters)
	return finishObservability(out, m, aud)
}

// observers fans the simulation's event stream out to the sinks that were
// requested; nil in, nil out so the unobserved fast path survives.
func observers(m *probe.Metrics, aud *predict.Auditor) probe.Observer {
	var list []probe.Observer
	if o := m.Observer(); o != nil {
		list = append(list, o)
	}
	if aud != nil {
		list = append(list, aud)
	}
	return probe.NewMulti(list...)
}

// finishObservability prints the end-of-run audit table and metrics dump,
// mirroring prophet-emu's epilogue.
func finishObservability(out io.Writer, m *probe.Metrics, aud *predict.Auditor) error {
	if aud != nil {
		aud.Flush()
		fmt.Fprintln(out, "  prediction audit (planned vs observed send windows):")
		aud.Report().Render(out)
	}
	if m != nil {
		fmt.Fprintln(out, "  metrics:")
		return m.WriteJSON(out)
	}
	return nil
}
