// Package profiler implements Prophet's Training Job Profiler (Sec. 4.2):
// it pre-runs a training job for a configurable number of iterations
// (the paper uses 50) and records the gradient information Algorithm 1
// needs — per-gradient generation times c(i), sizes s(i), the detected
// stepwise blocks, and the transfer windows A(i).
//
// In the paper the profiler instruments real MXNet iterations; here it
// replays the same per-layer backward cost model the cluster simulator
// uses, including run-to-run compute jitter, and averages the observed
// release times across iterations.
package profiler

import (
	"fmt"

	"prophet/internal/core"
	"prophet/internal/model"
	"prophet/internal/sim"
	"prophet/internal/stepwise"
)

// Config parameterizes a profiling run.
type Config struct {
	Model    *model.Model
	Hardware model.Hardware
	// Batch is the per-worker mini-batch size.
	Batch int
	// Agg is the aggregation bucketing that produces the stepwise pattern.
	Agg stepwise.Buckets
	// Iterations is how many iterations to profile (default 50).
	Iterations int
	// Jitter is the relative stddev of per-segment compute noise
	// (default 0.03).
	Jitter float64
	// Seed drives the jitter stream.
	Seed uint64
}

func (c *Config) setDefaults() error {
	if c.Model == nil {
		return fmt.Errorf("profiler: Config.Model is nil")
	}
	if c.Batch <= 0 {
		return fmt.Errorf("profiler: batch %d must be positive", c.Batch)
	}
	if len(c.Agg.Groups) == 0 {
		return fmt.Errorf("profiler: Config.Agg is empty")
	}
	if c.Iterations == 0 {
		c.Iterations = 50
	}
	if c.Iterations < 0 {
		return fmt.Errorf("profiler: negative iterations")
	}
	if c.Jitter == 0 {
		c.Jitter = 0.03
	}
	if c.Hardware.FLOPS == 0 {
		c.Hardware = model.M60Like()
	}
	return nil
}

// Result is the profiler's output, consumable by core.Assemble via Profile.
type Result struct {
	// Gen[i] is the mean release time of gradient i relative to the start
	// of backward propagation.
	Gen []float64
	// Bytes[i] is the gradient's wire size.
	Bytes []float64
	// Blocks is the detected stepwise structure (generation order).
	Blocks []stepwise.Block
	// Intervals[i] is the transfer window A(i) derived from Blocks.
	Intervals []float64
	// Iterations is how many iterations were measured.
	Iterations int
	// WallTime is the simulated time the profiling run occupied
	// (fwd+bwd compute of all profiled iterations) — the paper's Sec. 5.4
	// profiling-overhead metric.
	WallTime float64
}

// Profile converts the result into the core package's input type.
func (r *Result) Profile() *core.Profile {
	return &core.Profile{Gen: r.Gen, Bytes: r.Bytes, Intervals: r.Intervals}
}

// BackwardRelease simulates one backward pass and returns the per-gradient
// release times (relative to backward start) under the given aggregation
// bucketing. rng adds relative compute jitter when non-nil. The cluster
// simulator uses the identical model, so profiled times match executed
// times up to jitter.
func BackwardRelease(m *model.Model, hw model.Hardware, batch int, agg stepwise.Buckets, jitter float64, rng *sim.Rand) []float64 {
	n := m.NumGradients()
	raw := make([]float64, n)
	acc := 0.0
	for i := n - 1; i >= 0; i-- {
		d := m.BwdTime(hw, m.Grads[i], batch)
		if rng != nil {
			d = rng.Jitter(d, jitter)
		}
		acc += d
		raw[i] = acc
	}
	return agg.ReleaseTimes(raw)
}

// Run profiles the job and returns the aggregated result. Profiling is
// pure and cheap (about a millisecond for the largest zoo model), so every
// call computes afresh: two calls with the same config return equal,
// independently owned results.
func Run(cfg Config) (*Result, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	m := cfg.Model
	n := m.NumGradients()
	rng := sim.NewRand(cfg.Seed)

	mean := make([]float64, n)
	var wall float64
	for it := 0; it < cfg.Iterations; it++ {
		gen := BackwardRelease(m, cfg.Hardware, cfg.Batch, cfg.Agg, cfg.Jitter, rng)
		for i, g := range gen {
			mean[i] += g
		}
		// Wall time of a profiled iteration: forward + backward compute.
		var fwd float64
		for _, g := range m.Grads {
			fwd += rng.Jitter(m.FwdTime(cfg.Hardware, g, cfg.Batch), cfg.Jitter)
		}
		wall += fwd + gen[0]
	}
	for i := range mean {
		mean[i] /= float64(cfg.Iterations)
	}

	bytes := make([]float64, n)
	for i, g := range m.Grads {
		bytes[i] = g.Bytes()
	}

	// Detect blocks with a gap threshold below the smallest inter-release
	// step. Averaging over iterations leaves members of one release burst
	// (nearly) coincident while genuine steps stay separated by at least a
	// bucket's backward compute time, so half the smallest step cleanly
	// splits the two populations.
	gap := smallestPositiveGap(mean) / 2
	blocks := stepwise.DetectBlocks(mean, gap)
	return &Result{
		Gen:        mean,
		Bytes:      bytes,
		Blocks:     blocks,
		Intervals:  stepwise.BlockIntervals(blocks, n),
		Iterations: cfg.Iterations,
		WallTime:   wall,
	}, nil
}

// smallestPositiveGap returns the smallest positive step in the release
// sequence (generation order), ignoring sub-microsecond residue.
func smallestPositiveGap(gen []float64) float64 {
	min := 0.0
	for i := len(gen) - 2; i >= 0; i-- {
		if d := gen[i] - gen[i+1]; d > 1e-7 && (min == 0 || d < min) {
			min = d
		}
	}
	if min == 0 {
		return 1e-6
	}
	return min
}
