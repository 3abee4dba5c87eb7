package emu

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"prophet/internal/fault"
	"prophet/internal/probe"
	"prophet/internal/transport"
)

// settleGoroutines fails the test unless the goroutine count falls back to
// baseline.
func settleGoroutines(t *testing.T, baseline int) {
	t.Helper()
	if dump := leakedGoroutines(baseline); dump != "" {
		t.Fatal(dump)
	}
}

// TestCollectiveChaos sweeps seeded byte-offset injectors over the fabric
// pipe of both collective transports: the pipe is wrapped in Run's one
// wiring loop like any shared pipe, so drop, stall and corrupt compose on
// ring and tree as they do under Mux. Every run ends inside the per-op
// bound — completing, or failing with an error that names the transport —
// and leaves no goroutine behind.
func TestCollectiveChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep")
	}
	baseline := runtime.NumGoroutine()
	t.Run("sweep", func(t *testing.T) {
		for _, tr := range []string{"ring", "tree"} {
			for _, kind := range []fault.Kind{fault.Drop, fault.Stall, fault.Corrupt} {
				for seed := uint64(1); seed <= 3; seed++ {
					t.Run(fmt.Sprintf("%s/%s/%d", tr, kind, seed), func(t *testing.T) {
						t.Parallel()
						rec := probe.NewSpanRecorder()
						cfg := chaosConfig(t)
						cfg.Workers = 4
						cfg.Transport = tr
						cfg.Mux = seed == 2 // a no-op here: the fabric is already the shared pipe
						cfg.Observer = rec
						cfg.PullTimeout = 2 * time.Second
						// One iteration puts ~65 KB on the pipe (4 workers ×
						// 1.5 × ~11 KB of gradients): the offsets land in
						// iteration 0.
						faulted := int(seed) % cfg.Workers
						cfg.Faults = map[int]fault.Spec{faulted: fault.Derive(seed, kind, 1, 60000)}
						start := time.Now()
						res, err := Run(cfg)
						if elapsed := time.Since(start); elapsed > 15*time.Second {
							t.Fatalf("run took %v, far past the %v op bound", elapsed, cfg.PullTimeout)
						}
						faults := rec.Faults()
						if len(faults) == 0 || faults[0].Worker != faulted {
							t.Fatalf("injector firings %v, want worker %d's spec to fire", faults, faulted)
						}
						switch {
						case err != nil:
							if kind == fault.Stall {
								t.Fatalf("transient stall failed the run: %v", err)
							}
							if !strings.Contains(err.Error(), tr) {
								t.Fatalf("error does not name the transport: %v", err)
							}
							if want := fmt.Sprintf("fault injected on worker %d's pipe: %s", faulted, kind); !strings.Contains(err.Error(), want) {
								t.Fatalf("error %q does not name the injector (%s)", err, want)
							}
						case kind == fault.Drop:
							t.Fatal("run completed over a dropped pipe")
						case len(res.Losses) != cfg.Iterations:
							t.Fatalf("completed run recorded %d losses", len(res.Losses))
						}
					})
				}
			}
		}
	})
	settleGoroutines(t, baseline)
}

// TestCollectiveOpBound: a chunk whose step tag is corrupted is never
// matched, so the op wedges with every pipe healthy — nothing but the
// per-op bound can end it. The abort names transport, iteration and op.
func TestCollectiveOpBound(t *testing.T) {
	baseline := runtime.NumGoroutine()
	cfg := chaosConfig(t)
	cfg.Workers = 4
	cfg.Transport = "ring"
	cfg.PullTimeout = 300 * time.Millisecond
	// Byte 9 of the pipe's first frame: the low byte of its step field.
	cfg.Faults = map[int]fault.Spec{0: fault.CorruptAt(transport.MuxHeaderSize - 8)}
	start := time.Now()
	_, err := Run(cfg)
	if err == nil {
		t.Fatal("run completed with a chunk lost to a bad step tag")
	}
	for _, want := range []string{"transport ring", "iter 0", "all-reduce [", "timed out after 300ms"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q lacks %q", err, want)
		}
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("bounded op took %v to abort", elapsed)
	}
	settleGoroutines(t, baseline)
}

// TestWaitBound: the never-hang bound is what the caller configured — none
// on a plain run (no timer per pull or op), 10 s once any fault handling is
// asked for, PullTimeout when given.
func TestWaitBound(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  Config
		want time.Duration
	}{
		{"plain", Config{}, 0},
		{"faults", Config{Faults: map[int]fault.Spec{0: fault.DropAt(1)}}, 10 * time.Second},
		{"policy", Config{Failure: FailFast}, 10 * time.Second},
		{"deadline", Config{Deadline: time.Minute}, 10 * time.Second},
		{"explicit", Config{Deadline: time.Minute, PullTimeout: time.Second}, time.Second},
	} {
		if got := c.cfg.waitBound(); got != c.want {
			t.Errorf("%s: bound %v, want %v", c.name, got, c.want)
		}
	}
}

// TestValidateTransportMatrix pins what is left of the transport validity
// matrix: a collective transport rejects only what is physically
// meaningless, and every shared pipe — Mux, ring, tree — rejects Throttle,
// which needs one worker's private pipe to shape.
func TestValidateTransportMatrix(t *testing.T) {
	throttle := map[int]fault.Spec{0: fault.Throttle(1 << 10)}
	offsets := map[int]fault.Spec{0: fault.DropAt(100), 1: fault.StallAt(200, time.Millisecond), 2: fault.CorruptAt(300)}
	for _, c := range []struct {
		name string
		edit func(*Config)
		want string // substring of the rejection; "" = accepted
	}{
		{"tree needs a power of two", func(c *Config) { c.Transport, c.Workers = "tree", 6 }, "power-of-two"},
		{"ring needs a peer", func(c *Config) { c.Transport, c.Workers = "ring", 1 }, "at least 2 workers"},
		{"ring has nothing to shard", func(c *Config) { c.Transport, c.Shards = "ring", 2 }, "no parameter server to shard"},
		{"tree cannot drop a peer", func(c *Config) { c.Transport, c.Failure = "tree", DropWorker }, "only fail fast"},
		{"throttle on the shared PS pipe", func(c *Config) { c.Mux, c.Faults = true, throttle }, "throttle"},
		{"throttle on the ring", func(c *Config) { c.Transport, c.Faults = "ring", throttle }, "throttle"},
		{"throttle on the tree", func(c *Config) { c.Transport, c.Faults = "tree", throttle }, "throttle"},

		{"throttle on private pipes", func(c *Config) { c.Faults = throttle }, ""},
		{"byte-offset faults on the shared PS pipe", func(c *Config) { c.Mux, c.Faults = true, offsets }, ""},
		{"byte-offset faults on the ring", func(c *Config) { c.Transport, c.Faults = "ring", offsets }, ""},
		{"byte-offset faults on the tree", func(c *Config) { c.Transport, c.Faults = "tree", offsets }, ""},
		{"ring under Mux", func(c *Config) { c.Transport, c.Mux = "ring", true }, ""},
		{"tree under Mux with a deadline", func(c *Config) { c.Transport, c.Mux, c.Deadline = "tree", true, time.Minute }, ""},
		{"explicit fail-fast on the ring", func(c *Config) { c.Transport, c.Failure = "ring", FailFast }, ""},
	} {
		cfg := baseConfig()
		cfg.Workers = 4
		c.edit(&cfg)
		err := cfg.validate()
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", c.name, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: err = %v, want a rejection mentioning %q", c.name, err, c.want)
		}
	}
}
