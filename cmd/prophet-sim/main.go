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
	"net"
	"net/http"
	"os"
	"strings"

	"prophet/internal/allreduce"
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
	policyUsage := "scheduling strategy: " + strings.Join(strategy.Names(), "|")
	var (
		modelName = flag.String("model", "resnet50", "model: resnet18|resnet50|resnet152|inception-v3|vgg19|alexnet")
		batch     = flag.Int("batch", 64, "per-worker mini-batch size")
		workers   = flag.Int("workers", 3, "number of worker nodes")
		bandwidth = flag.Float64("bandwidth", 3000, "per-worker bandwidth limit in Mbps")
		policy    = flag.String("policy", "prophet", policyUsage)
		iters     = flag.Int("iters", 12, "training iterations")
		seed      = flag.Uint64("seed", 1, "simulation seed")
		partition = flag.Float64("partition", 4, "P3 partition size in MB")
		credit    = flag.Float64("credit", 4, "ByteScheduler credit in MB")
		shards    = flag.Int("shards", 1, "parameter server shards (key-sharded multi-PS)")
		placement = flag.String("placement", "size-balanced", "key→shard placement: round-robin|size-balanced")
		splitNIC  = flag.Bool("split-nic", false, "scale each shard link to 1/shards of the bandwidth (one NIC split across shards) instead of full speed per shard")
		transport = flag.String("transport", "ps", "transport backend: "+strings.Join(drive.BackendNames(), "|"))
		audit     = flag.Bool("audit", false, "score predicted vs actual send windows and print the prediction-audit table (served on /predict with -debug-addr)")
		debugAddr = flag.String("debug-addr", "", "serve live metrics as JSON on this address (e.g. 127.0.0.1:6060/metrics, /predict with -audit) and dump them after the run")
	)
	flag.Parse()

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
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
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
		fmt.Printf("serving %s on http://%s\n", endpoints, ln.Addr())
	}

	base, err := model.ByName(*modelName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	wire := model.WithWireFactor(base, 2)
	aggBytes := wire.TotalBytes() / 13
	if aggBytes < 4e6 {
		aggBytes = 4e6
	}
	agg := stepwise.Aggregate(wire, aggBytes, 0)

	if err := strategy.Check(*policy); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	opt := cluster.Options{
		Partition: *partition * 1e6,
		Credit:    *credit * 1e6,
		Seed:      *seed,
	}
	if *policy == "prophet" {
		prof, err := profiler.Run(profiler.Config{Model: wire, Batch: *batch, Agg: agg, Seed: *seed * 97})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("profiled %d iterations: %d stepwise blocks, backward %.0f ms, cost %.1f s\n",
			prof.Iterations, len(prof.Blocks), 1e3*prof.Gen[0], prof.WallTime)
		opt.Profile = prof.Profile()
	}
	uplink := func(int) netsim.LinkConfig {
		return netsim.DefaultLinkConfig(netsim.Const(netsim.Goodput(netsim.Mbps(*bandwidth))))
	}

	if *transport != "ps" {
		// Collective path: the strategy schedules ring/tree chunk blocks
		// through the same drive layer; sharding is a PS concept.
		if *shards != 1 {
			fmt.Fprintf(os.Stderr, "prophet-sim: -shards is a PS option (transport %s)\n", *transport)
			os.Exit(1)
		}
		factory, err := cluster.ByNameTransport(*policy, *transport, *workers, wire, opt)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		res, err := allreduce.Run(allreduce.Config{
			Model:      wire,
			Batch:      *batch,
			Workers:    *workers,
			Agg:        agg,
			Link:       uplink(0),
			Backend:    *transport,
			Scheduler:  factory,
			Iterations: *iters,
			Seed:       *seed,
			Observer:   observers(m, aud),
			Predict:    *audit,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		warmup := 2
		if *iters <= warmup {
			warmup = 0
		}
		fmt.Printf("%s over %s on %s: batch %d, %d workers, %.0f Mbps/link\n",
			res.SchedulerName, res.Backend, base.Name, *batch, *workers, *bandwidth)
		fmt.Printf("  training rate:   %8.2f samples/s per worker (%8.2f aggregate)\n",
			res.Rate(warmup), res.Rate(warmup)*float64(*workers))
		fmt.Printf("  GPU utilization: %7.1f%%\n", 100*res.GPU.BusyBetween(0, res.Duration)/res.Duration)
		fmt.Printf("  collective ops:  %7d (%.1f per iteration)\n",
			res.Reductions, float64(res.Reductions)/float64(*iters))
		fmt.Printf("  simulated time:  %7.2f s for %d iterations\n", res.Duration, *iters)
		finishObservability(m, aud)
		return
	}

	factory, err := cluster.ByName(*policy, wire, opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	// The uplink payload line is read from the probe stream, the only record
	// of when bytes moved.
	rec := probe.NewSpanRecorder()
	cfg := cluster.Config{
		Model:          wire,
		Batch:          *batch,
		Workers:        *workers,
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
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	warmup := 2
	if *iters <= warmup {
		warmup = 0
	}
	fmt.Printf("%s on %s: batch %d, %d workers, %.0f Mbps/worker\n",
		res.SchedulerName, base.Name, *batch, *workers, *bandwidth)
	if res.Shards > 1 {
		mode := "full-speed shard links"
		if *splitNIC {
			mode = "NIC split across shards"
		}
		fmt.Printf("  PS shards:       %7d (%s placement, %s; load imbalance %.3f)\n",
			res.Shards, *placement, mode, res.ShardMap.Imbalance())
	}
	fmt.Printf("  training rate:   %8.2f samples/s per worker (%8.2f aggregate)\n",
		res.Rate(warmup), res.ClusterRate(warmup))
	fmt.Printf("  GPU utilization: %7.1f%%\n", 100*res.GPUUtil(0, warmup))
	fmt.Printf("  uplink payload:  %7.1f MB/s average\n",
		rec.Rate(0).Throughput(res.Iters.Starts[warmup], res.Duration)/1e6)
	fmt.Printf("  simulated time:  %7.2f s for %d iterations\n", res.Duration, *iters)
	finishObservability(m, aud)
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
func finishObservability(m *probe.Metrics, aud *predict.Auditor) {
	if aud != nil {
		aud.Flush()
		fmt.Println("  prediction audit (planned vs observed send windows):")
		aud.Report().Render(os.Stdout)
	}
	if m != nil {
		fmt.Println("  metrics:")
		if err := m.WriteJSON(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}
