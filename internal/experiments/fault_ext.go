package experiments

import (
	"fmt"
	"io"
	"time"

	"prophet/internal/cluster"
	"prophet/internal/emu"
	"prophet/internal/fault"
	"prophet/internal/model"
	"prophet/internal/nn"
)

// ExtFaultResult probes the open frontier the paper's Sec. 7 names:
// stragglers and degraded workers. The live emulation injects a seeded
// slow-link straggler on one worker and compares the push schedulers under
// the drop-worker degradation policy; a second injection (connection drop
// mid-push) demonstrates fail-fast semantics. The discrete-event simulator
// mirrors the scenario with a crash-stop fault, showing the surviving
// cluster's rate after the barrier renormalizes.
type ExtFaultResult struct {
	// Rows compares push schedulers in the live emulation with worker 1
	// throttled to a straggler link under the drop-worker policy.
	Rows []ExtFaultRow
	// FailFastErr is the (descriptive) error from the fail-fast run with a
	// mid-push connection drop — the run must fail, not hang.
	FailFastErr string
	// SimHealthyRate and SimDropRate are the simulator's per-worker rates
	// without faults and with worker 1 crash-stopping mid-run under
	// drop-and-renormalize; SimDropped lists the casualties.
	SimHealthyRate, SimDropRate float64
	SimDropped                  []int
	// SimFailFastErr is the simulator's error under the fail-fast policy
	// for the same crash.
	SimFailFastErr string
}

// ExtFaultRow is one live-emulation run under a straggler fault.
type ExtFaultRow struct {
	Policy    string
	Duration  time.Duration
	FinalLoss float64
	Dropped   []int
}

// Render implements Result.
func (r *ExtFaultResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Extension — fault tolerance (paper Sec. 7: stragglers and degraded workers)\n")
	fmt.Fprintf(w, "  live emulation, 3 workers, worker 1 throttled to a straggler link,\n")
	fmt.Fprintf(w, "  drop-worker policy (mean renormalized over survivors):\n")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "    %-8s  wall %8s  final loss %.4f  dropped %v\n",
			row.Policy, row.Duration.Round(time.Millisecond), row.FinalLoss, row.Dropped)
	}
	fmt.Fprintf(w, "  fail-fast policy, connection drop mid-push:\n")
	fmt.Fprintf(w, "    error: %s\n", r.FailFastErr)
	fmt.Fprintf(w, "  simulator, ResNet50 bs64, worker 1 crash-stops mid-run:\n")
	fmt.Fprintf(w, "    drop-and-renormalize: %6.2f samples/s (healthy %6.2f), dropped %v\n",
		r.SimDropRate, r.SimHealthyRate, r.SimDropped)
	fmt.Fprintf(w, "    fail-fast: %s\n", r.SimFailFastErr)
	fmt.Fprintf(w, "  a straggler no longer hangs the live path: it is either dropped within\n")
	fmt.Fprintf(w, "  the straggler timeout or the run fails fast with a descriptive error\n")
}

// extFault runs the extension.
func extFault(cfg Config) (*ExtFaultResult, error) {
	out := &ExtFaultResult{}

	// Live emulation: worker 1's uplink throttled hard enough that the
	// straggler timer fires long before the healthy workers' pull timeout.
	// The model must outweigh the throttle's token-bucket burst (4 KB) or
	// the straggler never actually lags: ~10 KB of gradients per iteration
	// against an 8 KB/s link leaves worker 1 seconds behind.
	//
	// The straggler timer sits between two clocks. It must outlast a healthy
	// worker descheduled on a loaded box: at 100 ms, worker 0 lost that race
	// in 4 of 12 full evaluations at -j 8 on 2 cores and was dropped with
	// worker 1. It must also fire before worker 1's first throttled write
	// lands (~500 ms in, under p3's small partitions), or worker 1's
	// gradient joins that round's mean and the losses move.
	ds := nn.Blobs(512, 16, 4, cfg.Seed)
	base := emu.Config{
		Workers:          3,
		Layers:           []int{16, 64, 4},
		Dataset:          ds,
		Batch:            16,
		Iterations:       4,
		LR:               0.1,
		Seed:             cfg.Seed,
		Faults:           map[int]fault.Spec{1: fault.Throttle(8 << 10)},
		Failure:          emu.DropWorker,
		PullTimeout:      5 * time.Second,
		StragglerTimeout: 300 * time.Millisecond,
		Deadline:         30 * time.Second,
	}
	for _, pol := range []string{"fifo", "p3", "bytescheduler", "prophet"} {
		c := base
		c.Policy = pol
		res, err := emu.Run(c)
		if err != nil {
			return nil, fmt.Errorf("ext-fault: %s under straggler: %w", pol, err)
		}
		out.Rows = append(out.Rows, ExtFaultRow{
			Policy:    pol,
			Duration:  res.Duration,
			FinalLoss: finalLoss(res),
			Dropped:   res.DroppedWorkers,
		})
	}

	// Fail-fast: worker 1's connection drops mid-push; the run must fail
	// with a descriptive error, never hang.
	ff := base
	ff.Policy = "fifo"
	ff.Faults = map[int]fault.Spec{1: fault.DropAt(600)}
	ff.Failure = emu.FailFast
	ff.PullTimeout = 2 * time.Second
	if _, err := emu.Run(ff); err != nil {
		out.FailFastErr = err.Error()
	} else {
		return nil, fmt.Errorf("ext-fault: fail-fast run with a dropped link succeeded; want error")
	}

	// Simulator: the same story with a crash-stop fault.
	s, err := prepare(model.ResNet50(), 64, cfg.Seed)
	if err != nil {
		return nil, err
	}
	healthy := s.config(cfg, s.prophet(), linkMbps(3000), 3)
	if out.SimHealthyRate, err = rateOf(cfg, healthy); err != nil {
		return nil, err
	}
	simCfg := func(pol cluster.FaultPolicy) cluster.Config {
		c := healthy
		c.Faults = []cluster.WorkerFault{{Worker: 1, AtIteration: cfg.Iterations / 2, DetectDelay: 0.25}}
		c.FaultPolicy = pol
		return c
	}
	dres, err := cluster.Run(simCfg(cluster.FaultDrop))
	if err != nil {
		return nil, err
	}
	out.SimDropRate = dres.Rate(cfg.Warmup)
	out.SimDropped = dres.Dropped
	if _, err := cluster.Run(simCfg(cluster.FaultFailFast)); err != nil {
		out.SimFailFastErr = err.Error()
	} else {
		return nil, fmt.Errorf("ext-fault: simulator fail-fast run with a crashed worker succeeded; want error")
	}
	return out, nil
}

// finalLoss is the last iteration's training loss, 0 for a run that
// recorded none.
func finalLoss(res *emu.Result) float64 {
	if n := len(res.Losses); n > 0 {
		return res.Losses[n-1]
	}
	return 0
}
