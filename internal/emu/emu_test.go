package emu

import (
	"sort"
	"strings"
	"testing"
	"time"

	"prophet/internal/nn"
	"prophet/internal/probe"
	"prophet/internal/strategy"
)

func baseConfig() Config {
	return Config{
		Workers:    2,
		Layers:     []int{8, 16, 4},
		Dataset:    nn.Blobs(256, 8, 4, 11),
		Batch:      32,
		Iterations: 6,
		LR:         0.1,
		Seed:       5,
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	bad := []Config{
		{},
		{Workers: 1},
		{Workers: 1, Layers: []int{4, 2}},
		{Workers: 1, Layers: []int{4, 2}, Dataset: nn.Blobs(10, 4, 2, 1)},
		func() Config {
			c := baseConfig()
			c.Policy = "magic"
			return c
		}(),
		func() Config {
			c := baseConfig()
			c.Layers = []int{9, 4} // feature mismatch
			return c
		}(),
	}
	for i, cfg := range bad {
		if _, err := Run(cfg); err == nil {
			t.Fatalf("case %d: expected error", i)
		}
	}

	// Three inputs used to pass validate and panic on a worker goroutine,
	// where no caller can recover: a batch one row past the dataset (integer
	// divide by zero picking the window), one far past it (Batch out of
	// range), and a zero layer width (tensor.NewMat). Each is an error now,
	// naming the field.
	for _, c := range []struct {
		field string
		set   func(*Config)
	}{
		{"Batch", func(c *Config) { c.Batch = c.Dataset.X.Rows + 1 }},
		{"Batch", func(c *Config) { c.Batch = 20 * c.Dataset.X.Rows }},
		{"Layers[1]", func(c *Config) { c.Layers = []int{8, 0, 4} }},
		// And two more: a label past the model's classes (tensor: label 4
		// out of range) and fewer labels than rows (index out of range).
		{"Dataset.Labels", func(c *Config) { c.Dataset = nn.Blobs(256, 8, 5, 1) }},
		{"Dataset.Labels", func(c *Config) { c.Dataset = &nn.Dataset{X: c.Dataset.X, Labels: c.Dataset.Labels[:200]} }},
	} {
		cfg := baseConfig()
		c.set(&cfg)
		if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("%s out of range: error %v, want one naming the field", c.field, err)
		}
	}
}

func TestTrainingConvergesUnderFIFO(t *testing.T) {
	cfg := baseConfig()
	cfg.Iterations = 12
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Losses) != cfg.Iterations {
		t.Fatalf("got %d losses", len(res.Losses))
	}
	if res.Losses[len(res.Losses)-1] >= res.Losses[0] {
		t.Fatalf("loss did not decrease: %v -> %v", res.Losses[0], res.Losses[len(res.Losses)-1])
	}
}

func TestAllPoliciesIdenticalTrajectory(t *testing.T) {
	// Synchronous SGD with deterministic aggregation: the push order must
	// not change the math, only the timing. On the parameter server that is
	// the server's fixed worker order; on a collective it is per-tensor
	// segmentation — a tensor is cut and summed the same way whatever send or
	// fused group carries it. The collective model is sized so that the
	// policies cut different groups: 2 132 elements against the 2 039 a W=4
	// group holds, with a 1 536-element tensor in the middle.
	for _, tc := range []struct {
		transport string
		workers   int
		layers    []int
	}{
		{"ps", 2, []int{8, 16, 4}},
		{"ring", 4, []int{8, 48, 32, 4}},
		{"tree", 4, []int{8, 48, 32, 4}},
	} {
		t.Run(tc.transport, func(t *testing.T) {
			var ref *Result
			for _, p := range strategy.Names() {
				cfg := baseConfig()
				cfg.Policy = p
				cfg.Transport = tc.transport
				cfg.Workers = tc.workers
				cfg.Layers = tc.layers
				res, err := Run(cfg)
				if err != nil {
					t.Fatalf("%s: %v", p, err)
				}
				if ref == nil {
					ref = res
					continue
				}
				if len(res.FinalParams) != len(ref.FinalParams) || len(res.Losses) != len(ref.Losses) {
					t.Fatalf("%s: %d params and %d losses, want %d and %d",
						p, len(res.FinalParams), len(res.Losses), len(ref.FinalParams), len(ref.Losses))
				}
				for j := range ref.FinalParams {
					if res.FinalParams[j] != ref.FinalParams[j] {
						t.Fatalf("%s diverged at param %d: %v vs %v", p, j, res.FinalParams[j], ref.FinalParams[j])
					}
				}
				for j := range ref.Losses {
					if res.Losses[j] != ref.Losses[j] {
						t.Fatalf("%s loss diverged at iteration %d", p, j)
					}
				}
			}
		})
	}
}

func TestPushOrderReflectsPolicy(t *testing.T) {
	fifoCfg := baseConfig()
	fifoCfg.Policy = "fifo"
	fifoRes, err := Run(fifoCfg)
	if err != nil {
		t.Fatal(err)
	}
	// FIFO pushes in emission order: bias/weight of the LAST layer first.
	n := len(fifoRes.PushOrder)
	if n == 0 {
		t.Fatal("no push order recorded")
	}
	if fifoRes.PushOrder[0] != n-1 {
		t.Fatalf("FIFO first push = tensor %d, want %d (last layer bias)", fifoRes.PushOrder[0], n-1)
	}

	// p3's whole-tensor push order under the default 4 MB partition is
	// ascending by tensor index.
	prioCfg := baseConfig()
	prioCfg.Policy = "p3"
	prioRes, err := Run(prioCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !sort.IntsAreSorted(prioRes.PushOrder) {
		t.Fatalf("p3 push order not sorted: %v", prioRes.PushOrder)
	}
}

func TestProphetPushOrderCoversAllTensors(t *testing.T) {
	cfg := baseConfig()
	cfg.Policy = "prophet"
	cfg.BandwidthBytesPerSec = 20e6
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, idx := range res.PushOrder {
		if seen[idx] {
			t.Fatalf("tensor %d pushed twice: %v", idx, res.PushOrder)
		}
		seen[idx] = true
	}
	// Layers {8,16,4} → 2 dense layers → 4 tensors.
	if len(seen) != 4 {
		t.Fatalf("push order covers %d tensors: %v", len(seen), res.PushOrder)
	}
}

// TestProphetPartitionedTensorsPushOnce pins the cross-unit dedup in
// pushOrder: a tensor bigger than the 64 KB partition is split into spans
// that can straddle two plan units, but the wire protocol pushes whole
// tensors — a repeat push is a protocol error that used to kill the run.
func TestProphetPartitionedTensorsPushOnce(t *testing.T) {
	cfg := baseConfig()
	cfg.Policy = "prophet"
	cfg.Layers = []int{64, 256, 8} // 64x256 weight = 131 KB, partitioned
	cfg.Dataset = nn.Blobs(256, 64, 8, 11)
	cfg.Iterations = 3
	cfg.BandwidthBytesPerSec = 20e6
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, idx := range res.PushOrder {
		if seen[idx] {
			t.Fatalf("tensor %d pushed twice: %v", idx, res.PushOrder)
		}
		seen[idx] = true
	}
	if len(seen) != 4 {
		t.Fatalf("push order covers %d tensors: %v", len(seen), res.PushOrder)
	}
}

func TestTensor0RoundTripRecorded(t *testing.T) {
	cfg := baseConfig()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tensor0RoundTrip) != cfg.Iterations {
		t.Fatalf("got %d round trips", len(res.Tensor0RoundTrip))
	}
	for i, d := range res.Tensor0RoundTrip {
		if d <= 0 {
			t.Fatalf("round trip %d = %v", i, d)
		}
	}
}

// TestPhasesAccountForTheIteration: every phase is a non-negative slice of
// an iteration, so the max across workers is at least the mean, and the
// phase means — disjoint intervals inside each worker's own
// BeginIteration–EndIteration spans — sum to no more than the mean, across
// workers, of each worker's mean iteration after the first. Worker 0's
// helper evaluated in every iteration counted.
func TestPhasesAccountForTheIteration(t *testing.T) {
	cfg := baseConfig()
	cfg.Workers = 4
	cfg.Layers = []int{8, 32, 32, 4}
	cfg.Dataset = nn.Blobs(2048, 8, 4, 3)
	cfg.Policy = "prophet"
	cfg.BandwidthBytesPerSec = 4e6
	rec := probe.NewSpanRecorder()
	cfg.Observer = rec
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pt := res.Phases
	mean := []time.Duration{pt.Mean.Compute, pt.Mean.Wire, pt.Mean.Update, pt.Mean.EvalWait}
	max := []time.Duration{pt.Max.Compute, pt.Max.Wire, pt.Max.Update, pt.Max.EvalWait}
	var sum time.Duration
	for p, name := range []string{"compute", "wire", "update", "eval-wait"} {
		if mean[p] < 0 || max[p] < mean[p] {
			t.Errorf("%s: mean %v, max %v", name, mean[p], max[p])
		}
		sum += mean[p]
	}
	var iter float64 // seconds
	for w := 0; w < cfg.Workers; w++ {
		ds := rec.Iterations(w).Durations()[1:]
		var own float64
		for _, d := range ds {
			own += d
		}
		iter += own / float64(len(ds))
	}
	if iter := time.Duration(iter / float64(cfg.Workers) * float64(time.Second)); sum > iter {
		t.Errorf("phase means sum to %v, more than the mean iteration %v (%+v)", sum, iter, pt)
	}
	if pt.Mean.Compute <= 0 || pt.Mean.Wire <= 0 || pt.Eval <= 0 {
		t.Errorf("compute, wire or the helper's evaluation not measured: %+v", pt)
	}
}

func TestShapedBandwidthSlowsTraining(t *testing.T) {
	fast := baseConfig()
	fast.Iterations = 3
	fastRes, err := Run(fast)
	if err != nil {
		t.Fatal(err)
	}
	slow := baseConfig()
	slow.Iterations = 3
	slow.BandwidthBytesPerSec = 300e3 // 0.3 MB/s
	slow.Layers = []int{8, 1024, 4}   // ~13k params ≈ 107 KB per direction
	fastBig := slow
	fastBig.BandwidthBytesPerSec = 0
	slowRes, err := Run(slow)
	if err != nil {
		t.Fatal(err)
	}
	fastBigRes, err := Run(fastBig)
	if err != nil {
		t.Fatal(err)
	}
	_ = fastRes
	// ~320 KB through 0.3 MB/s adds most of a second of pure shaping; the
	// unshaped run has none of it. Compare with an absolute margin so
	// compute slowdowns (e.g. under -race) cannot flake the test.
	if slowRes.Duration < fastBigRes.Duration+300*time.Millisecond {
		t.Fatalf("shaping had too little effect: %v vs %v", slowRes.Duration, fastBigRes.Duration)
	}
}

func TestMoreWorkersStillConverge(t *testing.T) {
	cfg := baseConfig()
	cfg.Workers = 4
	cfg.Iterations = 10
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalAccuracy < 0.5 {
		t.Fatalf("accuracy %v too low", res.FinalAccuracy)
	}
}
