package main

import (
	"fmt"
	"math"
	"time"

	"prophet/internal/allreduce"
	"prophet/internal/cluster"
	"prophet/internal/core"
	"prophet/internal/emu"
	"prophet/internal/model"
	"prophet/internal/netsim"
	"prophet/internal/nn"
	"prophet/internal/probe"
	"prophet/internal/profiler"
	"prophet/internal/schedule"
	"prophet/internal/sim"
	"prophet/internal/stepwise"
)

// workload is one fixed set of inputs. Every workload is a closed loop of
// BSP training: a worker's next iteration starts only after its pulls (or
// collective ops) of the previous one completed. Workers are goroutines of
// this one process; all traffic is in-process (transport.Pipe = net.Pipe +
// token bucket, no kernel sockets).
type workload struct {
	name string
	// live is nil for the simulator workload.
	live *liveSpec
}

var workloads = []workload{
	{name: "sim-sweep"},
	{name: "live-ps-shaped", live: &liveSpec{
		workers: 4, layers: []int{16, 128, 128, 4}, batch: 64, block: 15,
		policy: "prophet", refPolicy: "fifo", bandwidth: 4e6, shards: 1,
	}},
	{name: "live-mux-scale", live: &liveSpec{
		workers: 64, layers: []int{16, 32, 32, 4}, batch: 16, block: 100,
		policy: "fifo", refPolicy: "p3", shards: 4, mux: true,
	}},
	{name: "live-ring", live: &liveSpec{
		workers: 32, layers: []int{16, 32, 32, 4}, batch: 16, block: 10,
		policy: "fifo", refPolicy: "p3", shards: 1, transport: "ring",
	}},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// env is a workload after set-up: everything before the first timed op.
type env struct {
	// itersPerOp is the number of training iterations one op runs.
	itersPerOp int
	// op runs one operation and checks its output. obs and met are nil on
	// the untraced pass.
	op func(obs probe.Observer, met *probe.Metrics) (opSample, error)
	// t0SimMS is sim-sweep's simulated tensor-0 round trip (deterministic
	// per seed, so measured once in set-up).
	t0SimMS float64
	// refT0MS is the median tensor-0 round trip of the set-up run under
	// the reference policy (live workloads).
	refT0MS float64
	// gainPct is 100·(Rate_prophet/Rate_fifo − 1), simulated (sim-sweep).
	gainPct float64
	// liveClock marks probe timestamps as host seconds since the op began
	// (the live engine); the simulator's are simulated seconds.
	liveClock bool
	// observed returns what the golden file stores for this workload.
	observed func(g *golden)
}

// opSample is what one op contributes to the end-to-end metrics.
type opSample struct {
	iterMS []float64
	t0MS   []float64
	// overheadMS is the op's wall time not covered by its iterations
	// (per-Run set-up and tear-down).
	overheadMS float64
}

// setUp builds a workload's env. decoy > 0 perturbs only the keys of
// process-wide caches, not what they return, so that repeated set-ups in
// one process all take the cold path and all yield the same env.
func (w workload) setUp(o options, decoy int) (*env, error) {
	if w.live != nil {
		return w.live.setUp(w.name, o)
	}
	return setUpSim(o, decoy)
}

// ---- sim-sweep ----

const (
	simBatch       = 64
	simPSWorkers   = 3
	simRingWorkers = 8
	simIters       = 8
	simWarmup      = 2
	// simProfileSeed is the profiler's jitter seed (the experiments'
	// seed·97 at their default seed 1). The profile is an input of the
	// cell like the model and stays fixed; --seed varies the simulated
	// run's jitter. Profile noise flips Algorithm 1 between two plan
	// shapes, which would make every simulated metric bimodal over seeds.
	simProfileSeed = 97
	// simT0Iters is the length of the set-up run that samples the
	// simulated tensor-0 round trip: long enough for a steady median.
	simT0Iters = 64
)

// simShapes is the evaluation cell ext-transport runs: ResNet50 at wire
// factor 2, batch 64, 3 Gbps goodput links, Agg = TotalBytes/13.
type simShapes struct {
	model *model.Model
	agg   stepwise.Buckets
	prof  *core.Profile
	link  netsim.LinkConfig
	seed  uint64
}

func newSimShapes(seed uint64, decoy int) (*simShapes, error) {
	m := model.WithWireFactor(model.ResNet50(), 2)
	agg := stepwise.Aggregate(m, m.TotalBytes()/13, 0)
	// profiler.Run memoizes per config, keyed by content. The model's name
	// is part of the key but not of the result, so a decoy name makes the
	// call a cache miss with the same profile.
	named := *m
	if decoy > 0 {
		named.Name = fmt.Sprintf("%s#%d", m.Name, decoy)
	}
	prof, err := profiler.Run(profiler.Config{Model: &named, Batch: simBatch, Agg: agg, Seed: simProfileSeed})
	if err != nil {
		return nil, err
	}
	return &simShapes{
		model: m, agg: agg, prof: prof.Profile(), seed: seed,
		link: netsim.DefaultLinkConfig(netsim.Const(netsim.Goodput(netsim.Gbps(3)))),
	}, nil
}

func (s *simShapes) sizes() []float64 {
	out := make([]float64, s.model.NumGradients())
	for i, g := range s.model.Grads {
		out[i] = g.Bytes()
	}
	return out
}

// runPS runs the parameter-server half of the cell. engOut, when non-nil,
// receives the run's engine through the Scheduler factory.
func (s *simShapes) runPS(policy string, tweak func(*cluster.Config), engOut **sim.Engine) (*cluster.Result, error) {
	factory, err := cluster.ByNameTransport(policy, "ps", simPSWorkers, s.model, cluster.Options{Seed: s.seed, Profile: s.prof})
	if err != nil {
		return nil, err
	}
	cfg := cluster.Config{
		Model: s.model, Batch: simBatch, Workers: simPSWorkers, Agg: s.agg,
		Uplink:    func(int) netsim.LinkConfig { return s.link },
		Scheduler: factory, Iterations: simIters, Seed: s.seed,
	}
	if engOut != nil {
		cfg.Scheduler = func(w int, eng *sim.Engine, up *netsim.Link) schedule.Scheduler {
			*engOut = eng
			return factory(w, eng, up)
		}
	}
	if tweak != nil {
		tweak(&cfg)
	}
	return cluster.Run(cfg)
}

// runRing runs the collective half: same model and strategy, ring of 8.
func (s *simShapes) runRing(tweak func(*allreduce.Config)) (*allreduce.Result, error) {
	factory, err := cluster.ByNameTransport("prophet", "ring", simRingWorkers, s.model, cluster.Options{Seed: s.seed, Profile: s.prof})
	if err != nil {
		return nil, err
	}
	cfg := allreduce.Config{
		Model: s.model, Batch: simBatch, Workers: simRingWorkers, Agg: s.agg,
		Link: s.link, Backend: "ring", Scheduler: factory, Iterations: simIters, Seed: s.seed,
	}
	if tweak != nil {
		tweak(&cfg)
	}
	return allreduce.Run(cfg)
}

func setUpSim(o options, decoy int) (*env, error) {
	s, err := newSimShapes(o.seed, decoy)
	if err != nil {
		return nil, err
	}
	fifo, err := s.runPS("fifo", nil, nil)
	if err != nil {
		return nil, err
	}
	// Reference run of both halves with the decision log on: the timed ops
	// leave the log off (as BenchmarkCluster_Iteration does), so the Record
	// counts are checked here.
	ps, err := s.runPS("prophet", func(c *cluster.Config) { c.RecordMessages = true }, nil)
	if err != nil {
		return nil, err
	}
	ring, err := s.runRing(func(c *allreduce.Config) { c.RecordMessages = true })
	if err != nil {
		return nil, err
	}
	got := simGolden{
		PS:       simHalf{ps.Rate(simWarmup), ps.Duration, len(ps.Messages)},
		Ring:     simHalf{ring.Rate(simWarmup), ring.Duration, len(ring.Messages)},
		FifoRate: fifo.Rate(simWarmup),
	}
	want := got
	if g := goldenFor(o); g != nil {
		want = g.Sim
		if got != want {
			return nil, fmt.Errorf("sim-sweep: set-up run %+v differs from golden %+v", got, want)
		}
	}

	rec := probe.NewSpanRecorder()
	if _, err := s.runPS("prophet", func(c *cluster.Config) { c.Iterations = simT0Iters; c.Observer = rec }, nil); err != nil {
		return nil, err
	}
	var t0 []float64
	for _, g := range rec.Grads() {
		if g.Worker == 0 && g.Grad == 0 && g.HasAcked && g.Iter >= simWarmup {
			t0 = append(t0, 1e3*(g.Acked-g.Generated))
		}
	}
	if len(t0) == 0 {
		return nil, fmt.Errorf("sim-sweep: no tensor-0 round trips observed")
	}

	e := &env{
		itersPerOp: 2 * simIters,
		t0SimMS:    sim.Median(t0),
		gainPct:    100 * (got.PS.Rate/got.FifoRate - 1),
		observed:   func(g *golden) { g.Sim = got },
	}
	e.op = func(obs probe.Observer, _ *probe.Metrics) (opSample, error) {
		start := time.Now()
		ps, err := s.runPS("prophet", func(c *cluster.Config) { c.Observer = obs }, nil)
		if err != nil {
			return opSample{}, err
		}
		// One recorder cannot hold both halves (same worker and iteration
		// numbers): the caller's observes the PS half, a second one makes
		// the ring half pay the same observation cost.
		var ringObs probe.Observer
		if obs != nil {
			ringObs = probe.NewSpanRecorder()
		}
		ring, err := s.runRing(func(c *allreduce.Config) { c.Observer = ringObs })
		if err != nil {
			return opSample{}, err
		}
		wall := time.Since(start)
		if ps.Rate(simWarmup) != want.PS.Rate || ps.Duration != want.PS.Duration ||
			ring.Rate(simWarmup) != want.Ring.Rate || ring.Duration != want.Ring.Duration {
			return opSample{}, fmt.Errorf("sim-sweep: op output (ps %v/%v, ring %v/%v) differs from expected %+v",
				ps.Rate(simWarmup), ps.Duration, ring.Rate(simWarmup), ring.Duration, want)
		}
		return opSample{iterMS: []float64{ms(wall) / float64(2*simIters)}}, nil
	}
	// Warm-up op: heap growth and free lists settle before timing.
	if _, err := e.op(nil, nil); err != nil {
		return nil, err
	}
	return e, nil
}

// ---- live workloads ----

// liveSpec is one emu.Run configuration. The dataset, model
// initialisation and tuner streams all derive from the seed.
type liveSpec struct {
	workers   int
	layers    []int
	batch     int
	block     int // iterations per emu.Run
	policy    string
	refPolicy string // the other schedule of the invariance check
	bandwidth float64
	shards    int
	mux       bool
	transport string
}

// checkIters is the length of the two set-up runs whose FinalParams must
// be bit-identical (schedule invariance); they double as the warm-up that
// fills the buffer pools.
const checkIters = 4

func (l *liveSpec) config(ds *nn.Dataset, seed uint64, policy string, iters int) emu.Config {
	return emu.Config{
		Workers: l.workers, Layers: l.layers, Dataset: ds, Batch: l.batch,
		Iterations: iters, LR: 0.1, Policy: policy, BandwidthBytesPerSec: l.bandwidth,
		Seed: seed, Shards: l.shards, Mux: l.mux, Transport: l.transport,
	}
}

// tensorElems lists the model's per-tensor element counts, priority order.
func (l *liveSpec) tensorElems() []int {
	m := nn.NewMLP(l.layers, 1)
	out := make([]int, 0, m.NumTensors())
	for _, t := range m.Tensors() {
		out = append(out, t.Elems)
	}
	return out
}

func (l *liveSpec) setUp(name string, o options) (*env, error) {
	block, check := l.block, checkIters
	if o.quick {
		block, check = 3, 2
	}
	ds := nn.Blobs(2048, l.layers[0], l.layers[len(l.layers)-1], o.seed)
	own, err := emu.Run(l.config(ds, o.seed, l.policy, check))
	if err != nil {
		return nil, fmt.Errorf("%s: set-up run under %s: %w", name, l.policy, err)
	}
	ref, err := emu.Run(l.config(ds, o.seed, l.refPolicy, check))
	if err != nil {
		return nil, fmt.Errorf("%s: set-up run under %s: %w", name, l.refPolicy, err)
	}
	if len(own.FinalParams) == 0 || len(own.FinalParams) != len(ref.FinalParams) {
		return nil, fmt.Errorf("%s: FinalParams lengths %d vs %d", name, len(own.FinalParams), len(ref.FinalParams))
	}
	for i := range own.FinalParams {
		if math.Float64bits(own.FinalParams[i]) != math.Float64bits(ref.FinalParams[i]) {
			return nil, fmt.Errorf("%s: schedule invariance broken: param %d is %v under %s, %v under %s",
				name, i, own.FinalParams[i], l.policy, ref.FinalParams[i], l.refPolicy)
		}
	}

	// want is the expected loss trajectory of a block: the golden one at
	// the golden seed; otherwise the set-up run's, extended by the first
	// block (every block restarts from the same seed, so all must agree).
	want := append([]float64(nil), own.Losses...)
	if g := goldenFor(o); g != nil {
		want = g.Live[name]
		if len(want) < block {
			return nil, fmt.Errorf("%s: golden trajectory has %d losses, block needs %d", name, len(want), block)
		}
		if err := sameLosses(own.Losses, want); err != nil {
			return nil, fmt.Errorf("%s: set-up run: %w", name, err)
		}
	}

	e := &env{itersPerOp: block, liveClock: true, refT0MS: sim.Median(durationsMS(ref.Tensor0RoundTrip[1:]))}
	e.observed = func(g *golden) { g.Live[name] = append([]float64(nil), want...) }
	cfg := l.config(ds, o.seed, l.policy, block)
	e.op = func(obs probe.Observer, met *probe.Metrics) (opSample, error) {
		c := cfg
		c.Observer, c.Metrics = obs, met
		start := time.Now()
		res, err := emu.Run(c)
		wall := time.Since(start)
		if err != nil {
			return opSample{}, err
		}
		if len(res.Losses) != block || len(res.IterationTime) != block || len(res.Tensor0RoundTrip) != block {
			return opSample{}, fmt.Errorf("%s: block returned %d losses, %d iteration times, %d round trips, want %d each",
				name, len(res.Losses), len(res.IterationTime), len(res.Tensor0RoundTrip), block)
		}
		if len(want) < block {
			want = append(want, res.Losses[len(want):]...)
		}
		if err := sameLosses(res.Losses, want); err != nil {
			return opSample{}, fmt.Errorf("%s: %w", name, err)
		}
		var sum time.Duration
		for _, d := range res.IterationTime {
			sum += d
		}
		// Iteration 0 of a block is its warm-up (prophet's profiling
		// iteration, cold pipes and pools): it counts in iters_per_s, not
		// in the per-iteration samples.
		return opSample{
			iterMS:     durationsMS(res.IterationTime[1:]),
			t0MS:       durationsMS(res.Tensor0RoundTrip[1:]),
			overheadMS: ms(wall - sum),
		}, nil
	}
	return e, nil
}

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// sameLosses compares a trajectory with the expected one to rel. 1e-9.
func sameLosses(got, want []float64) error {
	for i, g := range got {
		if i >= len(want) {
			break
		}
		if d := math.Abs(g - want[i]); d > 1e-9*math.Max(math.Abs(want[i]), 1e-300) {
			return fmt.Errorf("loss after iteration %d is %v, expected %v", i, g, want[i])
		}
	}
	return nil
}
