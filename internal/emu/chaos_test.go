package emu

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"prophet/internal/fault"
	"prophet/internal/nn"
	"prophet/internal/probe"
	"prophet/internal/transport"
)

// Byte offsets on the faulted worker's client→server stream. The stream
// opens with a push frame, so lenHighByte — the last byte of the first
// header — is the high byte of its length prefix; midIteration lies inside
// iteration 0's ~11 KB of pushes, well past the first frame.
const (
	lenHighByte  = transport.MuxHeaderSize - 1
	midIteration = 32 * transport.MuxHeaderSize
)

// chaosConfig is a small-but-not-tiny job: ~11 KB of gradients per
// iteration, enough to overflow the throttle injector's 4 KB token-bucket
// burst so a straggler link genuinely lags.
func chaosConfig(t *testing.T) Config {
	t.Helper()
	return Config{
		Workers:    3,
		Layers:     []int{16, 64, 4},
		Dataset:    nn.Blobs(256, 16, 4, 7),
		Batch:      16,
		Iterations: 3,
		LR:         0.1,
		Policy:     "fifo",
		Seed:       7,
		Deadline:   30 * time.Second,
	}
}

// TestChaosStragglerDropped: a throttled worker is detected by the
// straggler policy, dropped, and the survivors finish training. Across
// shards it is dropped by every shard server, and reported once.
func TestChaosStragglerDropped(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cfg := chaosConfig(t)
			cfg.Shards = shards
			cfg.Faults = map[int]fault.Spec{1: fault.Throttle(16 << 10)}
			cfg.Failure = DropWorker
			cfg.PullTimeout = 10 * time.Second
			cfg.StragglerTimeout = 50 * time.Millisecond
			cfg.Metrics = probe.NewMetrics()
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.DroppedWorkers) != 1 || res.DroppedWorkers[0] != 1 {
				t.Fatalf("dropped %v, want [1]", res.DroppedWorkers)
			}
			if n := cfg.Metrics.Counter("ps_server_dropped_workers").Value(); n != int64(shards) {
				t.Fatalf("%d shard servers dropped a worker, want all %d", n, shards)
			}
			if len(res.Losses) != cfg.Iterations {
				t.Fatalf("worker 0 recorded %d losses, want %d", len(res.Losses), cfg.Iterations)
			}
		})
	}
}

// TestChaosDroppedStragglerReleasesRun: once the straggler policy drops a
// throttled worker, the run ends with the survivors' last iteration. The
// dropped worker's throttled write, still waiting for its tokens, must not
// hold emu.Run until it drains at the straggler's 8 KB/s.
func TestChaosDroppedStragglerReleasesRun(t *testing.T) {
	cfg := chaosConfig(t)
	cfg.Faults = map[int]fault.Spec{1: fault.Throttle(8 << 10)}
	cfg.Failure = DropWorker
	cfg.PullTimeout = 5 * time.Second
	cfg.StragglerTimeout = 300 * time.Millisecond
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.DroppedWorkers) != 1 || res.DroppedWorkers[0] != 1 {
		t.Fatalf("dropped %v, want [1]", res.DroppedWorkers)
	}
	var iters time.Duration
	for _, d := range res.IterationTime {
		iters += d
	}
	// What the run spends outside worker 0's iterations is wiring and
	// teardown: a few milliseconds, allowed 150 ms on a loaded machine.
	const slack = 150 * time.Millisecond
	if tail := res.Duration - iters; tail > slack {
		t.Errorf("run took %v, %v beyond worker 0's iterations (slack %v): the dropped straggler held it",
			res.Duration, tail, slack)
	}
}

// TestChaosDroppedWorkerZeroFails: the Result's per-iteration fields are
// worker 0's, so when the straggler policy drops worker 0 itself the run
// must not "complete" with fewer entries than Iterations — it used to return
// a nil error and zero losses. It fails, and the error names worker 0.
func TestChaosDroppedWorkerZeroFails(t *testing.T) {
	cfg := chaosConfig(t)
	cfg.Faults = map[int]fault.Spec{0: fault.Throttle(16 << 10)}
	cfg.Failure = DropWorker
	cfg.PullTimeout = 10 * time.Second
	cfg.StragglerTimeout = 50 * time.Millisecond
	res, err := Run(cfg)
	if err == nil {
		t.Fatalf("run without worker 0 completed: dropped %v, %d of %d losses",
			res.DroppedWorkers, len(res.Losses), cfg.Iterations)
	}
	if !strings.Contains(err.Error(), "worker 0") || !strings.Contains(err.Error(), "dropped") {
		t.Fatalf("error does not say worker 0 was dropped: %v", err)
	}
}

// topologies are the two PS pipe layouts. Byte-offset injectors wrap a
// worker's private pipe or the pipe it shares, and the failure contract is
// the same on both — except that a tripped injector on a shared pipe
// perturbs every worker on it.
var topologies = []struct {
	name string
	mux  bool
}{{"per-worker", false}, {"shared", true}}

// TestChaosDropFailFast: a connection cut mid-push under fail-fast produces
// a descriptive error quickly — never a hang, and never a rejection of the
// fault spec up front.
func TestChaosDropFailFast(t *testing.T) {
	for _, topo := range topologies {
		t.Run(topo.name, func(t *testing.T) {
			cfg := chaosConfig(t)
			cfg.Mux = topo.mux
			cfg.Faults = map[int]fault.Spec{1: fault.DropAt(midIteration)}
			cfg.Failure = FailFast
			cfg.PullTimeout = 2 * time.Second
			start := time.Now()
			_, err := Run(cfg)
			if err == nil {
				t.Fatal("run with a dropped link succeeded under fail-fast")
			}
			if strings.Contains(err.Error(), "fault injection") {
				t.Fatalf("drop fault rejected at validation (%v), want it to run", err)
			}
			if want := "fault injected on worker 1's pipe: drop"; !strings.Contains(err.Error(), want) {
				t.Fatalf("error %q does not name the injector (%s)", err, want)
			}
			if elapsed := time.Since(start); elapsed > 10*time.Second {
				t.Fatalf("fail-fast took %v", elapsed)
			}
		})
	}
}

// TestChaosCorruptFrameFailsDescriptively: a corrupted frame header makes
// the server reject the worker; fail-fast surfaces it with attribution.
func TestChaosCorruptFrameFailsDescriptively(t *testing.T) {
	cfg := chaosConfig(t)
	cfg.Faults = map[int]fault.Spec{1: fault.CorruptAt(lenHighByte)}
	cfg.Failure = FailFast
	cfg.PullTimeout = 2 * time.Second
	_, err := Run(cfg)
	if err == nil {
		t.Fatal("run with a corrupted frame succeeded under fail-fast")
	}
	if !strings.Contains(err.Error(), "worker 1") {
		t.Fatalf("error %q does not attribute the failure to worker 1", err)
	}
}

// TestChaosTransientStallRecovers: a stall shorter than the pull timeout
// fires, is attributed to the worker whose spec it was,
// and training completes with no drops.
func TestChaosTransientStallRecovers(t *testing.T) {
	for _, topo := range topologies {
		t.Run(topo.name, func(t *testing.T) {
			rec := probe.NewSpanRecorder()
			cfg := chaosConfig(t)
			cfg.Mux = topo.mux
			cfg.Observer = rec
			cfg.Faults = map[int]fault.Spec{1: fault.StallAt(midIteration, 80*time.Millisecond)}
			cfg.PullTimeout = 10 * time.Second
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.DroppedWorkers) != 0 {
				t.Fatalf("transient stall dropped workers %v", res.DroppedWorkers)
			}
			if len(res.Losses) != cfg.Iterations {
				t.Fatalf("run incomplete: %d losses", len(res.Losses))
			}
			faults := rec.Faults()
			if len(faults) == 0 {
				t.Fatal("stall injector never fired")
			}
			if faults[0].Worker != 1 {
				t.Fatalf("fault attributed to worker %d, want 1", faults[0].Worker)
			}
		})
	}
}

// TestChaosPermanentStallTimesOut: a stall longer than the pull timeout
// fails the run with ErrPullTimeout within the stall's duration — the
// pull timeout's bound, not a hang — and the timeout is counted.
func TestChaosPermanentStallTimesOut(t *testing.T) {
	cfg := chaosConfig(t)
	cfg.Faults = map[int]fault.Spec{1: fault.StallAt(midIteration, 700*time.Millisecond)}
	cfg.PullTimeout = 100 * time.Millisecond
	cfg.Metrics = probe.NewMetrics()
	_, err := Run(cfg)
	if !errors.Is(err, ErrPullTimeout) {
		t.Fatalf("err = %v, want ErrPullTimeout", err)
	}
	if n := cfg.Metrics.Counter("emu_pull_timeouts").Value(); n < 1 {
		t.Fatalf("emu_pull_timeouts = %d, want ≥ 1", n)
	}
}

// TestChaosFailureWhileEvaluating: worker 0 hands its evaluation to a helper
// once tensor 0 is back and joins it before Step, so a pull that fails in
// between returns with the evaluation still unjoined. The run must end in
// an attributed error and the helper must go with it (TestMain's leak
// check). Worker 0's own writes all happen in Dispatch, so the fault that
// lands in its pull leg is a peer's: worker 1's link stalls in iteration 1
// right after its tensor-0 push, so tensor 0 aggregates and tensor 1 cannot.
func TestChaosFailureWhileEvaluating(t *testing.T) {
	cfg := chaosConfig(t)
	cfg.Workers = 2
	cfg.Dataset = nn.Blobs(4096, 16, 4, 7)
	cfg.Policy = "p3" // one send per tensor, tensor 0 first
	cfg.PullTimeout = 150 * time.Millisecond
	// Worker 1's write stream carries a push frame and a pull request per
	// tensor per iteration.
	var perIter, tensor0 int64
	for _, ts := range nn.NewMLP(cfg.Layers, cfg.Seed).Tensors() {
		frames := int64(2*transport.MuxHeaderSize + 8*ts.Elems)
		if ts.Index == 0 {
			tensor0 = frames
		}
		perIter += frames
	}
	cfg.Faults = map[int]fault.Spec{1: fault.StallAt(perIter+tensor0, 600*time.Millisecond)}
	_, err := Run(cfg)
	if err == nil {
		t.Fatal("run completed with a pull timing out")
	}
	for _, want := range []string{"worker 0 pull iter 1 tensor 1", "fault injected on worker 1's pipe: stall"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q lacks %q", err, want)
		}
	}
}

// TestChaosDeadline: the run-level deadline aborts a stuck job with a
// descriptive error even when per-pull timeouts are generous.
func TestChaosDeadline(t *testing.T) {
	cfg := chaosConfig(t)
	cfg.Faults = map[int]fault.Spec{1: fault.StallAt(midIteration, 2*time.Second)}
	cfg.PullTimeout = time.Minute
	cfg.Deadline = 150 * time.Millisecond
	start := time.Now()
	_, err := Run(cfg)
	if err == nil || !strings.Contains(err.Error(), "deadline") {
		t.Fatalf("err = %v, want deadline error", err)
	}
	// The deadline abort closes every connection, which unblocks even the
	// stalled worker's writes; the run must end well before the stall does.
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("deadline abort took %v", elapsed)
	}
}

// TestChaosDerivedSeedsNeverHang sweeps seeded injector schedules across
// every fault kind under the drop-worker policy: each run must either
// complete (possibly with drops) or fail with a descriptive error — the
// acceptance bar is the absence of hangs, enforced by the run deadline.
func TestChaosDerivedSeedsNeverHang(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep")
	}
	for _, kind := range []fault.Kind{fault.Drop, fault.Stall, fault.Corrupt, fault.Straggler} {
		for seed := uint64(1); seed <= 2; seed++ {
			kind, seed := kind, seed
			t.Run(kind.String(), func(t *testing.T) {
				t.Parallel()
				cfg := chaosConfig(t)
				cfg.Iterations = 2
				cfg.Faults = map[int]fault.Spec{2: fault.Derive(seed, kind, 1, 2000)}
				cfg.Failure = DropWorker
				cfg.PullTimeout = 3 * time.Second
				cfg.StragglerTimeout = 60 * time.Millisecond
				cfg.Deadline = 20 * time.Second
				res, err := Run(cfg)
				if err != nil {
					if !strings.Contains(err.Error(), "worker") && !strings.Contains(err.Error(), "emu:") {
						t.Fatalf("undescriptive error: %v", err)
					}
					return
				}
				if len(res.Losses) != cfg.Iterations {
					t.Fatalf("completed run recorded %d losses", len(res.Losses))
				}
			})
		}
	}
}
