// Package experiments regenerates every table and figure of the paper's
// evaluation (Sec. 2 motivation and Sec. 5) on the simulated cluster. Each
// experiment returns a typed result that renders the same rows or series
// the paper reports, alongside the paper's own numbers where it states
// them, so EXPERIMENTS.md can record paper-vs-measured directly.
//
// Shared setup mirrors the paper's testbed through the substitutions in
// DESIGN.md §2: g3.8xlarge-like workers (2 GPUs behind one NIC → wire
// factor 2), a single PS whose NIC is never the bottleneck except where an
// experiment shares it explicitly, EC2-like TCP goodput, and the BytePS
// default configurations for the baselines (P3 partition 4 MB,
// ByteScheduler credit 4 MB).
package experiments

import (
	"fmt"
	"io"
	"sort"

	"prophet/internal/cluster"
	"prophet/internal/model"
	"prophet/internal/netsim"
	"prophet/internal/probe"
	"prophet/internal/profiler"
	"prophet/internal/schedule"
	"prophet/internal/stepwise"
	"prophet/internal/strategy"
)

// Config holds the global experiment knobs.
type Config struct {
	// Iterations per simulated run (default 12).
	Iterations int
	// Warmup iterations excluded from steady-state metrics (default 2).
	Warmup int
	// Seed drives all randomness (default 1).
	Seed uint64
	// Jobs bounds how many independent simulations of one experiment's
	// sweep run concurrently. <= 1 runs serially (the default). Results are
	// bit-identical at any Jobs value: every run owns its own sim.Engine
	// and seed, and sweep results are collected by index.
	Jobs int
}

func (c Config) withDefaults() (Config, error) {
	if c.Iterations == 0 {
		c.Iterations = 12
	}
	if c.Iterations < 0 {
		return c, fmt.Errorf("experiments: negative Iterations %d", c.Iterations)
	}
	if c.Warmup == 0 {
		c.Warmup = 2
	}
	if c.Warmup < 0 {
		return c, fmt.Errorf("experiments: negative Warmup %d", c.Warmup)
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Iterations <= c.Warmup {
		return c, fmt.Errorf("experiments: Iterations (%d) must exceed Warmup (%d): no steady-state iterations would remain",
			c.Iterations, c.Warmup)
	}
	if c.Jobs < 1 {
		c.Jobs = 1
	}
	return c, nil
}

// Result is a rendered experiment outcome.
type Result interface {
	// Render writes a human-readable reproduction of the table/figure.
	Render(w io.Writer)
}

// Spec describes one registered experiment.
type Spec struct {
	// ID is the registry key ("fig2" ... "table3", "sec53-hetero", ...).
	ID string
	// Paper says which table/figure of the paper this regenerates.
	Paper string
	// Desc is a one-line description.
	Desc string
	// Run executes the experiment.
	Run func(Config) (Result, error)
}

// entry registers a typed runner under its id. It is the one place an unset
// Config is given its defaults: every runner below receives a Config that
// withDefaults has already filled in and validated.
func entry[R Result](id, paper, desc string, run func(Config) (R, error)) Spec {
	return Spec{ID: id, Paper: paper, Desc: desc, Run: func(c Config) (Result, error) {
		c, err := c.withDefaults()
		if err != nil {
			return nil, err
		}
		res, err := run(c)
		if err != nil {
			return nil, err // not run's nil R, which a Result would hold as non-nil
		}
		return res, nil
	}}
}

// registry holds every experiment in presentation order. A row is the only
// place an experiment's id is written.
var registry = []Spec{
	entry("fig2", "Fig. 2", "GPU util and network throughput over time, default MXNet, ResNet152", fig2),
	entry("fig3a", "Fig. 3(a)", "P3 training-rate collapse as partitions shrink", fig3a),
	entry("fig3b", "Fig. 3(b)", "ByteScheduler rate fluctuation under credit auto-tuning", fig3b),
	entry("fig4", "Fig. 4", "Stepwise pattern of gradient generation times", fig4),
	entry("fig5", "Fig. 5", "Illustrative schedule comparison on the Sec. 2.3 example", fig5),
	entry("fig8", "Fig. 8", "Training rate, models x batch sizes, Prophet vs ByteScheduler", fig8),
	entry("fig9", "Fig. 9", "GPU utilization over time, ResNet50", fig9),
	entry("fig10", "Fig. 10", "Network throughput over time, ResNet50", fig10),
	entry("fig11", "Fig. 11", "Per-gradient transfer start/end times", fig11),
	entry("table2", "Table 2", "ResNet50 rate under bandwidth limits 1-10 Gbps", table2),
	entry("table3", "Table 3", "Batch-size sweep, ResNet18/50", table3),
	entry("fig12", "Fig. 12", "Scalability from 2 to 8 workers", fig12),
	entry("fig13", "Fig. 13", "Profiling overhead on early GPU utilization", fig13),
	entry("sec53-bandwidth", "Sec. 5.3", "ResNet18 under 3 vs 10 Gbps, MXNet/P3/Prophet", sec53Bandwidth),
	entry("sec53-hetero", "Sec. 5.3", "One worker limited to 500 Mbps", sec53Hetero),
	entry("sec54-profiling", "Sec. 5.4", "Profiling wall-time overhead", sec54Profiling),
	entry("ablation-blocks", "DESIGN §5", "Window-fitted blocks vs fixed credit (what the stepwise pattern buys)", ablationBlocks),
	entry("ablation-monitor", "DESIGN §5", "Bandwidth monitor vs stale estimate under varying bandwidth", ablationMonitor),
	entry("ablation-profile", "DESIGN §5", "Plan quality vs profiling length", ablationProfile),
	entry("ablation-overhead", "DESIGN §5", "Per-message overhead on/off (why small partitions lose)", ablationOverhead),
	entry("ext-asp", "Sec. 7 (1)", "Future work: the stepwise pattern and Prophet under ASP", extASP),
	entry("ext-hardware", "Sec. 7 (2)", "Future work: p3-class (V100) instances", extHardware),
	entry("ext-shapes", "extension", "Prophet's benefit vs tensor-size distribution (synthetic workloads)", extShapes),
	entry("ext-transformer", "extension", "Schedulers on a BERT-base-like encoder (embedding-first)", extTransformer),
	entry("ext-allreduce", "extension", "PS+Prophet vs ring all-reduce with and without fusion", extAllReduce),
	entry("ext-fault", "Sec. 7", "Schedulers under injected link faults: straggler drop-and-renormalize vs fail-fast", extFault),
	entry("ext-shard", "extension", "Key-sharded multi-PS: FIFO/ByteScheduler/Prophet at 1/2/4 shards", extShard),
	entry("ext-strategies", "extension", "Every registry strategy (incl. TicTac) on one configuration", extStrategies),
	entry("ext-attrib", "extension", "Stall attribution: completion-time decomposition per strategy", extAttrib),
	entry("ext-transport", "extension", "Pluggable transports under the drive layer: PS vs ring vs tree, with attribution", extTransport),
	entry("ext-live-transport", "extension", "Live wire engines over real sockets: PS (dedicated/mux) vs ring/tree collective, with attribution", extLiveTransport),
	entry("ext-predict", "extension", "Prediction audit: planned-vs-observed residuals, drift under bandwidth shifts and faults", extPredict),
}

// All returns every registered experiment, in presentation order. The slice
// is the registry itself: callers must not modify it.
func All() []Spec { return registry }

// ByID returns the experiment with the given id.
func ByID(id string) (Spec, error) {
	ids := make([]string, len(registry))
	for i, s := range registry {
		if s.ID == id {
			return s, nil
		}
		ids[i] = s.ID
	}
	sort.Strings(ids)
	return Spec{}, fmt.Errorf("experiments: unknown id %q (known: %v)", id, ids)
}

// WireFactor is the per-node traffic multiplier (2 GPU processes behind one
// NIC; DESIGN.md §2).
const WireFactor = 2

// setup bundles the per-(model, batch) preparation shared by experiments.
type setup struct {
	wire  *model.Model
	hw    model.Hardware // zero: the cluster's default (M60-like)
	batch int
	agg   stepwise.Buckets
	prof  *profiler.Result
}

// prepare profiles the given model at the given batch size.
func prepare(base *model.Model, batch int, seed uint64) (*setup, error) {
	wire := model.WithWireFactor(base, WireFactor)
	return prepareWithHardware(wire, batch, seed, model.M60Like())
}

// prepareWithHardware profiles an already-wire-scaled model on explicit
// hardware; every run of the returned setup computes on that hardware too.
func prepareWithHardware(wire *model.Model, batch int, seed uint64, hw model.Hardware) (*setup, error) {
	agg := stepwise.DefaultAggregate(wire)
	prof, err := profiler.Run(profiler.Config{
		Model:    wire,
		Hardware: hw,
		Batch:    batch,
		Agg:      agg,
		Seed:     seed * 97,
	})
	if err != nil {
		return nil, err
	}
	return &setup{wire: wire, hw: hw, batch: batch, agg: agg, prof: prof}, nil
}

// linkMbps builds a per-worker link config at the given nominal line rate in
// Mbps (the paper's "bandwidth limit"), applying the EC2 goodput factor.
func linkMbps(mbps float64) func(int) netsim.LinkConfig {
	return func(int) netsim.LinkConfig {
		return netsim.DefaultLinkConfig(netsim.Const(netsim.Goodput(netsim.Mbps(mbps))))
	}
}

// heteroLink is the Sec. 5.3 heterogeneous cluster: 3 Gbps workers with
// worker 1 limited to 500 Mbps.
func heteroLink(w int) netsim.LinkConfig {
	if w == 1 {
		return linkMbps(500)(w)
	}
	return linkMbps(3000)(w)
}

// sharedPSLink models the Fig. 8 regime: a single PS with a 10 Gbps NIC
// serving all workers, so each worker's effective share is 10/W Gbps.
func sharedPSLink(workers int) func(int) netsim.LinkConfig {
	share := netsim.Goodput(netsim.Gbps(10)) / float64(workers)
	return func(int) netsim.LinkConfig {
		return netsim.DefaultLinkConfig(netsim.Const(share))
	}
}

// strategies, at the paper's testbed parameters (Sec. 5.1: 4 MB P3
// partition and ByteScheduler credit)

func (s *setup) fifo() cluster.SchedulerFactory { return cluster.FIFOFactory(s.wire) }

func (s *setup) p3() cluster.SchedulerFactory {
	return cluster.P3Factory(s.wire, strategy.DefaultPartition)
}

func (s *setup) p3At(partition float64) cluster.SchedulerFactory {
	return cluster.P3Factory(s.wire, partition)
}

func (s *setup) byteScheduler() cluster.SchedulerFactory {
	return cluster.ByteSchedulerFactory(s.wire, strategy.DefaultCredit)
}

func (s *setup) tunedByteScheduler(seed uint64) cluster.SchedulerFactory {
	return cluster.TunedByteSchedulerFactory(s.wire, seed)
}

func (s *setup) prophet() cluster.SchedulerFactory {
	return cluster.ProphetFactory(schedule.NewPlanner(s.prof.Profile(), false))
}

// config is the cluster configuration every simulated run starts from; an
// experiment that differs sets its one or two extra fields on the result.
func (s *setup) config(cfg Config, factory cluster.SchedulerFactory, link func(int) netsim.LinkConfig, workers int) cluster.Config {
	return cluster.Config{
		Model:      s.wire,
		Hardware:   s.hw,
		Batch:      s.batch,
		Workers:    workers,
		Agg:        s.agg,
		Uplink:     link,
		Scheduler:  factory,
		Iterations: cfg.Iterations,
		Seed:       cfg.Seed,
	}
}

// run executes one simulation.
func (s *setup) run(cfg Config, factory cluster.SchedulerFactory, link func(int) netsim.LinkConfig, workers int) (*cluster.Result, error) {
	return cluster.Run(s.config(cfg, factory, link, workers))
}

// runRecorded is run with a probe.SpanRecorder attached: the uplink
// throughput timeline (Figs. 2, 10) is read from the recorder's Rate view,
// and the per-gradient wait and transfer (Fig. 11) from attrib.Analyze.
func (s *setup) runRecorded(cfg Config, factory cluster.SchedulerFactory, link func(int) netsim.LinkConfig, workers int) (*cluster.Result, *probe.SpanRecorder, error) {
	c := s.config(cfg, factory, link, workers)
	rec := probe.NewSpanRecorder()
	c.Observer = rec
	res, err := cluster.Run(c)
	return res, rec, err
}

// rate is run + steady-state rate extraction.
func (s *setup) rate(cfg Config, factory cluster.SchedulerFactory, link func(int) netsim.LinkConfig, workers int) (float64, error) {
	return rateOf(cfg, s.config(cfg, factory, link, workers))
}

// rateOf runs c and extracts its steady-state rate.
func rateOf(cfg Config, c cluster.Config) (float64, error) {
	res, err := cluster.Run(c)
	if err != nil {
		return 0, err
	}
	return res.Rate(cfg.Warmup), nil
}

func pct(new, old float64) float64 { return 100 * (new/old - 1) }

// sparkline renders a numeric series as a compact unicode bar chart.
func sparkline(xs []float64, lo, hi float64) string {
	if len(xs) == 0 {
		return ""
	}
	bars := []rune("▁▂▃▄▅▆▇█")
	if hi <= lo {
		hi = lo + 1
	}
	out := make([]rune, len(xs))
	for i, x := range xs {
		f := (x - lo) / (hi - lo)
		if f < 0 {
			f = 0
		}
		if f > 1 {
			f = 1
		}
		idx := int(f * float64(len(bars)-1))
		out[i] = bars[idx]
	}
	return string(out)
}
