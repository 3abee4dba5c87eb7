package profiler

import (
	"math"
	"testing"

	"prophet/internal/model"
	"prophet/internal/sim"
	"prophet/internal/stepwise"
)

func testConfig(t *testing.T) Config {
	t.Helper()
	m := model.ResNet50()
	return Config{
		Model: m,
		Batch: 64,
		Agg:   stepwise.Aggregate(m, 8e6, 0),
		Seed:  1,
	}
}

func TestRunDefaults(t *testing.T) {
	cfg := testConfig(t)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 50 {
		t.Fatalf("default iterations = %d, want 50", res.Iterations)
	}
	if len(res.Gen) != cfg.Model.NumGradients() {
		t.Fatalf("Gen length %d", len(res.Gen))
	}
	if res.WallTime <= 0 {
		t.Fatal("WallTime should be positive")
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	cases := []Config{
		{},                                   // nil model
		{Model: model.ResNet18()},            // zero batch
		{Model: model.ResNet18(), Batch: 32}, // empty agg
		{Model: model.ResNet18(), Batch: 32, Agg: stepwise.Buckets{Groups: [][]int{{0}}}, Iterations: -1}, // negative iters
	}
	for i, cfg := range cases {
		if _, err := Run(cfg); err == nil {
			t.Fatalf("case %d: expected error", i)
		}
	}
}

func TestGenIsNonIncreasingInIndex(t *testing.T) {
	res, err := Run(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	// Backward runs high index → low index, so c(i) grows as i shrinks.
	for i := 1; i < len(res.Gen); i++ {
		if res.Gen[i-1] < res.Gen[i]-1e-9 {
			t.Fatalf("c(%d)=%v < c(%d)=%v", i-1, res.Gen[i-1], i, res.Gen[i])
		}
	}
}

func TestDetectedBlocksMatchAggregation(t *testing.T) {
	cfg := testConfig(t)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Blocks) != cfg.Agg.NumGroups() {
		t.Fatalf("detected %d blocks, aggregation has %d groups",
			len(res.Blocks), cfg.Agg.NumGroups())
	}
}

func TestProfileRoundTripsToCore(t *testing.T) {
	res, err := Run(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	prof := res.Profile()
	if prof.N() != len(res.Gen) {
		t.Fatal("profile size mismatch")
	}
	if prof.BackwardEnd() != res.Gen[0] {
		t.Fatal("backward end mismatch")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	a, err := Run(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Gen {
		if a.Gen[i] != b.Gen[i] {
			t.Fatalf("nondeterministic at gradient %d", i)
		}
	}
}

func TestSeedChangesJitteredTimes(t *testing.T) {
	cfg := testConfig(t)
	a, _ := Run(cfg)
	cfg.Seed = 99
	b, _ := Run(cfg)
	same := true
	for i := range a.Gen {
		if a.Gen[i] != b.Gen[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical profiles")
	}
}

func TestAveragingReducesJitter(t *testing.T) {
	cfg := testConfig(t)
	cfg.Jitter = 0.1
	cfg.Iterations = 100
	many, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Noise-free reference.
	ref := BackwardRelease(cfg.Model, model.M60Like(), cfg.Batch, cfg.Agg, 0, nil)
	c0 := ref[0]
	if math.Abs(many.Gen[0]-c0)/c0 > 0.03 {
		t.Fatalf("averaged c(0)=%v deviates from noise-free %v", many.Gen[0], c0)
	}
}

func TestWallTimeScalesWithIterations(t *testing.T) {
	cfg := testConfig(t)
	cfg.Iterations = 10
	a, _ := Run(cfg)
	cfg.Iterations = 20
	b, _ := Run(cfg)
	if b.WallTime < 1.8*a.WallTime {
		t.Fatalf("wall time did not scale: %v → %v", a.WallTime, b.WallTime)
	}
}

func TestProfilingOverheadOrdering(t *testing.T) {
	// Sec. 5.4: profiling cost ordering Inception-v3 (bs32) < ResNet50
	// (bs64) < ResNet152 (bs32)... in paper seconds 7 < 9.5 < 24.7. Our
	// cost model must reproduce the ordering between the ResNets and keep
	// Inception cheapest per-sample-cost rank.
	run := func(m *model.Model, batch int) float64 {
		res, err := Run(Config{
			Model: m, Batch: batch,
			Agg:  stepwise.Aggregate(m, 8e6, 0),
			Seed: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.WallTime
	}
	rn50 := run(model.ResNet50(), 64)
	rn152 := run(model.ResNet152(), 32)
	if !(rn50 < rn152) {
		t.Fatalf("profiling overhead ordering broken: rn50=%v rn152=%v", rn50, rn152)
	}
}

func TestBackwardReleaseMatchesBuckets(t *testing.T) {
	m := model.ResNet18()
	agg := stepwise.Aggregate(m, 4e6, 0)
	gen := BackwardRelease(m, model.M60Like(), 32, agg, 0, nil)
	// All members of a bucket share a release time.
	for _, grp := range agg.Groups {
		for _, g := range grp {
			if gen[g] != gen[grp[0]] {
				t.Fatalf("bucket member %d released at %v, head at %v", g, gen[g], gen[grp[0]])
			}
		}
	}
}

func TestBackwardReleaseJitterChangesTimes(t *testing.T) {
	m := model.ResNet18()
	agg := stepwise.Aggregate(m, 4e6, 0)
	hw := model.M60Like()
	a := BackwardRelease(m, hw, 32, agg, 0.1, sim.NewRand(1))
	b := BackwardRelease(m, hw, 32, agg, 0, nil)
	if a[0] == b[0] {
		t.Fatal("jitter had no effect")
	}
}

func cacheCfg(m *model.Model, batch int, seed uint64) Config {
	return Config{
		Model: m,
		Batch: batch,
		Agg:   stepwise.Aggregate(m, 2<<20, 0),
		Seed:  seed,
	}
}

func TestCacheReturnsIdenticalResults(t *testing.T) {
	cfg := cacheCfg(model.ResNet18(), 32, 11)
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("Run returned the same *Result pointer; callers must get their own struct")
	}
	if len(a.Gen) != len(b.Gen) || a.WallTime != b.WallTime {
		t.Fatal("cached result differs from original")
	}
	for i := range a.Gen {
		if a.Gen[i] != b.Gen[i] || a.Bytes[i] != b.Bytes[i] {
			t.Fatalf("gradient %d: cached result differs", i)
		}
	}
}

// TestCacheKeyDiscriminates: every input a profile depends on moves it, and
// the model's identity does not — two independently built models with the
// same content profile identically.
func TestCacheKeyDiscriminates(t *testing.T) {
	m := model.ResNet18()
	run := func(cfg Config) *Result {
		t.Helper()
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	same := func(a, b *Result) bool {
		if a.WallTime != b.WallTime || len(a.Gen) != len(b.Gen) {
			return false
		}
		for i := range a.Gen {
			if a.Gen[i] != b.Gen[i] {
				return false
			}
		}
		return true
	}
	base := run(cacheCfg(m, 32, 11))

	variants := map[string]func(*Config){
		"batch":      func(c *Config) { c.Batch = 64 },
		"seed":       func(c *Config) { c.Seed = 12 },
		"iterations": func(c *Config) { c.Iterations = 10 },
		"jitter":     func(c *Config) { c.Jitter = 0.05 },
		"hardware":   func(c *Config) { c.Hardware = model.V100Like() },
		"model":      func(c *Config) { c.Model = model.ResNet50() },
		"agg":        func(c *Config) { c.Agg = stepwise.Aggregate(c.Model, 8<<20, 0) },
	}
	for name, mut := range variants {
		c := cacheCfg(m, 32, 11)
		mut(&c)
		if same(run(c), base) {
			t.Errorf("changing %s did not change Gen or WallTime", name)
		}
	}

	if !same(run(cacheCfg(model.ResNet18(), 32, 11)), base) {
		t.Error("content-identical configs profiled differently")
	}
}
