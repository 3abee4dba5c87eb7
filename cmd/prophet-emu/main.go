// Command prophet-emu runs the live emulation: real data-parallel SGD on a
// real MLP over a real concurrent wire — a sharded parameter server (a pipe
// per worker, or one shared pipe per shard) or a peer-to-peer ring/tree
// collective — under a chosen push schedule. Losses are identical across
// schedules (deterministic synchronous aggregation); tensor-0 latency and
// wall time differ.
//
// Usage:
//
//	prophet-emu -workers 3 -policy prophet -bandwidth 4e6 -iters 15
//	prophet-emu -workers 4 -transport ring -attrib          # live collective
//	prophet-emu -debug-addr 127.0.0.1:6060 -iters 200   # live /metrics JSON
//	prophet-emu -audit -debug-addr 127.0.0.1:6060       # live /predict audit
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"

	"prophet/internal/drive"
	"prophet/internal/emu"
	"prophet/internal/nn"
	"prophet/internal/probe"
	"prophet/internal/probe/attrib"
	"prophet/internal/probe/predict"
	"prophet/internal/shard"
	"prophet/internal/strategy"
)

func main() {
	var (
		workers   = flag.Int("workers", 3, "data-parallel workers")
		policy    = flag.String("policy", "prophet", "scheduling strategy: "+strings.Join(strategy.Names(), "|"))
		bandwidth = flag.Float64("bandwidth", 4e6, "per-worker link shaping in bytes/sec (0 = unshaped)")
		iters     = flag.Int("iters", 15, "SGD iterations")
		batch     = flag.Int("batch", 64, "per-worker batch size")
		hidden    = flag.Int("hidden", 128, "hidden layer width")
		seed      = flag.Uint64("seed", 21, "seed")
		shards    = flag.Int("shards", 1, "parameter server shards (key-sharded multi-PS)")
		placement = flag.String("placement", "size-balanced", "key→shard placement: round-robin|size-balanced")
		mux       = flag.Bool("mux", false, "put all workers on one shared pipe per shard instead of a pipe each (use for -workers ≥ 100)")
		transport = flag.String("transport", "ps", "wire transport: "+strings.Join(drive.BackendNames(), "|")+" (ring/tree replace the PS with a peer-to-peer collective)")
		report    = flag.Bool("attrib", false, "print the stall-attribution report (generation/priority/bandwidth/transmit/ack decomposition)")
		audit     = flag.Bool("audit", false, "score predicted vs actual send windows and print the prediction-audit table (served live on /predict with -debug-addr)")
		debugAddr = flag.String("debug-addr", "", "serve live metrics as JSON on this address (e.g. 127.0.0.1:6060/metrics, /predict with -audit) and dump them after the run")
	)
	flag.Parse()

	// The registry and auditor exist only when requested: nil keeps the
	// emulation on its unobserved fast path.
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

	var rec *probe.SpanRecorder
	if *report {
		rec = probe.NewSpanRecorder()
		rec.SetIterationHint(*iters)
	}

	ds := nn.Blobs(2048, 16, 4, *seed)
	res, err := emu.Run(emu.Config{
		Workers:              *workers,
		Layers:               []int{16, *hidden, *hidden, 4},
		Dataset:              ds,
		Batch:                *batch,
		Iterations:           *iters,
		LR:                   0.1,
		Policy:               *policy,
		BandwidthBytesPerSec: *bandwidth,
		Seed:                 *seed,
		Shards:               *shards,
		ShardPlacement:       shard.Placement(*placement),
		Mux:                  *mux,
		Transport:            *transport,
		Metrics:              m,
		Observer:             observers(rec, aud),
		Predict:              *audit,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	wire := "PS, per-worker pipes"
	switch {
	case *transport != "" && *transport != "ps":
		wire = "live " + *transport + " collective"
	case *mux:
		wire = "PS, shared pipes"
	}
	fmt.Printf("policy %s: %d workers, %d iterations, %.1f MB/s links, %d PS shard(s), %s\n",
		*policy, *workers, *iters, *bandwidth/1e6, *shards, wire)
	fmt.Printf("  loss %.4f → %.4f, accuracy %.1f%%\n",
		res.Losses[0], res.Losses[len(res.Losses)-1], 100*res.FinalAccuracy)
	var rtt float64
	for _, d := range res.Tensor0RoundTrip {
		rtt += d.Seconds()
	}
	rtt /= float64(len(res.Tensor0RoundTrip))
	fmt.Printf("  tensor-0 round trip %.1f ms average, wall time %s\n",
		1e3*rtt, res.Duration.Round(1e6))
	fmt.Printf("  push order (last iteration): %v\n", res.PushOrder)

	if rec != nil {
		fmt.Println("  stall attribution (a zero ack column marks collective ops: no pull leg):")
		attrib.Analyze(rec, 3).Render(os.Stdout)
	}

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

// observers fans the emulation's event stream out to whichever sinks were
// requested, keeping the unobserved fast path intact: typed-nil pointers
// must reach the emulation as a nil interface, not a non-nil interface
// wrapping a nil pointer.
func observers(rec *probe.SpanRecorder, aud *predict.Auditor) probe.Observer {
	var list []probe.Observer
	if rec != nil {
		list = append(list, rec)
	}
	if aud != nil {
		list = append(list, aud)
	}
	return probe.NewMulti(list...)
}
