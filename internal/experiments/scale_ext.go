package experiments

import (
	"fmt"
	"io"
	"reflect"
	"time"

	"prophet/internal/emu"
	"prophet/internal/experiments/runner"
	"prophet/internal/nn"
	"prophet/internal/shard"
)

// ExtScaleResult probes the deployment scale the paper's 3-worker testbed
// never approaches: hundreds of data-parallel workers against a sharded
// parameter server on a single host, made feasible by multiplexing every
// worker onto one shared connection per shard (tagged frames, one logical
// stream per worker — the transport added for this extension).
//
// The experiment has two halves. The equivalence half runs every policy at
// a small scale over both transports and checks that the scheduler
// decision stream and the training trajectory are bit-identical — the mux
// sits below the decision layer, so any divergence is a transport bug.
// The sweep half trains real models at growing worker counts over the
// shared connections and records wall time, which stays near-linear in
// worker count because the goroutine and connection cost is per-shard, not
// per-worker.
type ExtScaleResult struct {
	Shards int
	// PolicyRows records the transport-equivalence check per policy.
	PolicyRows []ExtScalePolicyRow
	// SweepRows records the live mux runs at growing worker counts.
	SweepRows []ExtScaleSweepRow
	// AllMatch reports every policy passed both equivalence checks.
	AllMatch bool
}

// ExtScalePolicyRow is one policy's muxed-vs-dedicated comparison.
type ExtScalePolicyRow struct {
	Policy string
	// DecisionsMatch: the drive.Record logs are bit-identical.
	DecisionsMatch bool
	// TrajectoryMatch: final parameters are bit-identical.
	TrajectoryMatch bool
}

// ExtScaleSweepRow is one worker-count point of the mux sweep.
type ExtScaleSweepRow struct {
	Workers   int
	Duration  time.Duration
	FinalLoss float64
}

// Render implements Result.
func (r *ExtScaleResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Extension — shared-connection scale-out (%d PS shards, multiplexed transport)\n", r.Shards)
	fmt.Fprintf(w, "  transport equivalence (muxed vs dedicated connections, all policies):\n")
	fmt.Fprintf(w, "  %-20s %10s %12s\n", "policy", "decisions", "trajectory")
	for _, row := range r.PolicyRows {
		fmt.Fprintf(w, "  %-20s %10v %12v\n", row.Policy, row.DecisionsMatch, row.TrajectoryMatch)
	}
	fmt.Fprintf(w, "  live mux sweep (fifo, 2 iterations):\n")
	for _, row := range r.SweepRows {
		fmt.Fprintf(w, "    %5d workers  wall %10s  final loss %.4f\n",
			row.Workers, row.Duration.Round(time.Millisecond), row.FinalLoss)
	}
	fmt.Fprintf(w, "  all policies bit-identical across transports: %v\n", r.AllMatch)
	fmt.Fprintf(w, "  the mux carries scheduling below the decision layer: per-stream frames\n")
	fmt.Fprintf(w, "  interleave on the shared wire, but decision logs and trajectories are\n")
	fmt.Fprintf(w, "  unchanged, and connection cost per shard is constant in worker count\n")
}

// extScale runs the extension.
func extScale(cfg Config) (*ExtScaleResult, error) {
	const shards = 2
	out := &ExtScaleResult{Shards: shards, AllMatch: true}

	// Equivalence half: 3 workers, 2 shards, 4 iterations (inside the
	// credit auto-tuner's deterministic window), an explicit Prophet
	// profile so no wall-clock measurement feeds the planner.
	layers := []int{16, 64, 4}
	base := emu.Config{
		Workers:        3,
		Layers:         layers,
		Dataset:        nn.Blobs(512, 16, 4, cfg.Seed),
		Batch:          16,
		Iterations:     4,
		LR:             0.1,
		Seed:           cfg.Seed,
		Shards:         shards,
		ShardPlacement: shard.SizeBalanced,
	}
	var err error
	if base.Profile, err = mlpProfile(layers, cfg.Seed); err != nil {
		return nil, fmt.Errorf("ext-scale: %w", err)
	}
	policies := []string{"fifo", "p3", "bytescheduler", "prophet"}
	polRows, err := runner.Map(cfg.Jobs, policies, func(_ int, pol string) (ExtScalePolicyRow, error) {
		row := ExtScalePolicyRow{Policy: pol}
		c := base
		c.Policy = pol
		ref, err := emu.Run(c)
		if err != nil {
			return row, fmt.Errorf("ext-scale: %s dedicated: %w", pol, err)
		}
		c.Mux = true
		muxed, err := emu.Run(c)
		if err != nil {
			return row, fmt.Errorf("ext-scale: %s muxed: %w", pol, err)
		}
		row.DecisionsMatch = reflect.DeepEqual(ref.Messages, muxed.Messages)
		row.TrajectoryMatch = reflect.DeepEqual(ref.FinalParams, muxed.FinalParams)
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	out.PolicyRows = polRows
	for _, row := range polRows {
		if !row.DecisionsMatch || !row.TrajectoryMatch {
			out.AllMatch = false
		}
	}

	// Sweep half: worker counts the dedicated transport would answer with
	// thousands of goroutines. Serial on purpose — wall times are the
	// payload, so the points must not contend with each other.
	counts := []int{16, 64, 256}
	if cfg.Quick {
		counts = []int{16, 64}
	}
	for _, workers := range counts {
		c := emu.Config{
			Workers:        workers,
			Layers:         layers,
			Dataset:        nn.Blobs(512, 16, 4, cfg.Seed),
			Batch:          4,
			Iterations:     2,
			LR:             0.1,
			Policy:         "fifo",
			Seed:           cfg.Seed,
			Shards:         shards,
			ShardPlacement: shard.SizeBalanced,
			Mux:            true,
		}
		res, err := emu.Run(c)
		if err != nil {
			return nil, fmt.Errorf("ext-scale: sweep at %d workers: %w", workers, err)
		}
		out.SweepRows = append(out.SweepRows, ExtScaleSweepRow{
			Workers: workers, Duration: res.Duration, FinalLoss: finalLoss(res),
		})
	}
	if !out.AllMatch {
		return nil, fmt.Errorf("ext-scale: a policy's decision stream or trajectory diverged across transports")
	}
	return out, nil
}
