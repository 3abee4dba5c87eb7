package emu_test

import (
	"fmt"
	"reflect"
	"testing"

	"prophet/internal/cluster"
	"prophet/internal/core"
	"prophet/internal/drive"
	"prophet/internal/emu"
	"prophet/internal/model"
	"prophet/internal/netsim"
	"prophet/internal/nn"
	"prophet/internal/stepwise"
	"prophet/internal/strategy"
)

// TestMirrorBothPathsSameDecisions is the cross-path tentpole check: the
// discrete-event simulator and the live emulation drive their schedulers
// through the same drive.Driver, so under a configuration where both paths
// present the scheduler with the identical call sequence, every registered
// strategy must produce the identical message sequence (label, priority,
// completed gradients) on both.
//
// The configuration pins the sequence down:
//
//   - The emulated MLP ({8,16,4} → 4 tensors of 1024/128/512/32 bytes,
//     8 bytes per float64 element) is mirrored in the simulator by a custom
//     model with twice the elements (the simulator's tensors are float32).
//   - The live path replays each iteration as one burst — every gradient
//     generated in backward emission order (descending), then drained. The
//     simulator matches it with a single aggregation bucket listing all
//     gradients in descending order: one release burst, same OnGenerated
//     order, and the drain interleaves Next/OnSent identically because the
//     uplink (1 GB/s, no setup or ramp cost) finishes each transfer long
//     before the 1-second compute segments end.
//   - Prophet plans from a shared explicit profile on both paths, and the
//     simulator's bandwidth monitor never updates (all transfers are under
//     its 64 KB sampling floor), so both sides plan at exactly 1 GB/s.
//   - Four iterations keep the credit auto-tuner inside its deterministic
//     window: its first probe (4th BeginIteration) is drawn from the seeded
//     rng both paths share; only a 5th iteration could see the paths'
//     different wall-clock durations feed back into decisions.
func TestMirrorBothPathsSameDecisions(t *testing.T) {
	const (
		seed  = uint64(5)
		iters = 4
	)
	layers := []int{8, 16, 4}
	sizes := []float64{1024, 128, 512, 32} // W0, b0, W1, b1 at 8 bytes/elem
	n := len(sizes)

	gen := make([]float64, n)
	for i := range gen {
		gen[i] = float64(n - i)
	}
	prof, err := core.NewProfile(gen, sizes, 1e-6)
	if err != nil {
		t.Fatal(err)
	}

	grads := make([]model.Gradient, n)
	desc := make([]int, n)
	for i, b := range sizes {
		grads[i] = model.Gradient{
			Index: i,
			Layer: fmt.Sprintf("t%d", i),
			Elems: int64(b) / model.BytesPerParam,
		}
		desc[i] = n - 1 - i
	}
	simModel := &model.Model{Name: "mirror-mlp", Grads: grads, Efficiency: 1}

	for _, name := range strategy.Names() {
		t.Run(name, func(t *testing.T) {
			factory, err := cluster.ByName(name, simModel, cluster.Options{
				Seed:    seed,
				Profile: prof,
			})
			if err != nil {
				t.Fatal(err)
			}
			simRes, err := cluster.Run(cluster.Config{
				Model:    simModel,
				Hardware: model.Hardware{FLOPS: 1e12, LayerOverhead: 1.0},
				Batch:    32,
				Workers:  1,
				// One bucket, listed in backward emission order: all
				// gradients release together when the first backward
				// segment completes, with OnGenerated order matching the
				// emulation's descending emission.
				Agg: stepwise.Buckets{Groups: [][]int{desc}},
				Uplink: func(int) netsim.LinkConfig {
					return netsim.LinkConfig{Trace: netsim.Const(1e9)}
				},
				Scheduler:      factory,
				Iterations:     iters,
				Jitter:         -1,
				Seed:           seed,
				RecordMessages: true,
			})
			if err != nil {
				t.Fatal(err)
			}

			emuCfg := emu.Config{
				Workers:              1,
				Layers:               layers,
				Dataset:              nn.Blobs(256, 8, 4, 11),
				Batch:                32,
				Iterations:           iters,
				LR:                   0.1,
				Policy:               name,
				Profile:              prof,
				BandwidthBytesPerSec: 1e9,
				Seed:                 seed,
			}
			emuRes, err := emu.Run(emuCfg)
			if err != nil {
				t.Fatal(err)
			}

			compareRecords(t, simRes.Messages, emuRes.Messages)

			// The multiplexed transport sits below the decision layer, so
			// the three-way mirror must close: simulator, per-worker
			// sockets, and shared mux streams all emit one decision log.
			muxCfg := emuCfg
			muxCfg.Mux = true
			muxRes, err := emu.Run(muxCfg)
			if err != nil {
				t.Fatal(err)
			}
			compareRecords(t, simRes.Messages, muxRes.Messages)
		})
	}
}

// TestMirrorCollectiveTransports closes the mirror over the collective
// wire: the discrete-event simulator on a collective transport (cluster.Run playing
// chunk schedules on a netsim link) and the live collective emulation
// (real ring/tree exchanges over sockets, worker 0 deciding for the
// lockstep group) must produce bit-identical decision Records for every
// registered strategy on both the ring and the tree backend.
//
// The pinning mirrors TestMirrorBothPathsSameDecisions, with two
// collective-specific alignments:
//
//   - The simulator's release loop walks an aggregation group in reverse,
//     so a single *ascending* bucket yields one burst of OnGenerated calls
//     in descending order — the live path's backward emission. Releasing
//     at segment 0 (the last backward segment) matches the emulation's
//     generate-everything-then-drain replay (emu's decide() bursts all
//     events before its single Pump).
//   - Prophet's wire model: the simulator's wireMonitor divides the
//     link estimate by the backend's chunk volume Σ ChunkBytes(1, W) and
//     charges steps×setup overhead; the explicit zero-setup/zero-ramp link
//     keeps the overhead at zero and the monitor pinned to the trace (all
//     transfers sit under its sampling floor), while the emulation divides
//     BandwidthBytesPerSec by the identical drive.WireVolume — both
//     planners see exactly 1 GB/s ÷ 2(W−1)/W.
func TestMirrorCollectiveTransports(t *testing.T) {
	const (
		seed    = uint64(5)
		iters   = 4
		workers = 4 // power of two so the tree schedule applies
		bw      = 1e9
	)
	layers := []int{8, 16, 4}
	sizes := []float64{1024, 128, 512, 32}
	n := len(sizes)

	gen := make([]float64, n)
	for i := range gen {
		gen[i] = float64(n - i)
	}
	prof, err := core.NewProfile(gen, sizes, 1e-6)
	if err != nil {
		t.Fatal(err)
	}

	grads := make([]model.Gradient, n)
	asc := make([]int, n)
	for i, b := range sizes {
		grads[i] = model.Gradient{
			Index: i,
			Layer: fmt.Sprintf("t%d", i),
			Elems: int64(b) / model.BytesPerParam,
		}
		asc[i] = i
	}
	simModel := &model.Model{Name: "mirror-mlp", Grads: grads, Efficiency: 1}

	for _, backend := range []string{"ring", "tree"} {
		for _, name := range strategy.Names() {
			t.Run(backend+"/"+name, func(t *testing.T) {
				factory, err := cluster.ByNameTransport(name, backend, workers, simModel, cluster.Options{
					Seed:    seed,
					Profile: prof,
				})
				if err != nil {
					t.Fatal(err)
				}
				simRes, err := cluster.Run(cluster.Config{
					Model:     simModel,
					Hardware:  model.Hardware{FLOPS: 1e12, LayerOverhead: 1.0},
					Batch:     32,
					Workers:   workers,
					Transport: backend,
					// One ascending bucket: released in reverse, i.e. the
					// emulation's descending backward emission, in one burst.
					Agg:            stepwise.Buckets{Groups: [][]int{asc}},
					Uplink:         func(int) netsim.LinkConfig { return netsim.LinkConfig{Trace: netsim.Const(bw)} },
					Scheduler:      factory,
					Iterations:     iters,
					Jitter:         -1,
					Seed:           seed,
					RecordMessages: true,
				})
				if err != nil {
					t.Fatal(err)
				}

				emuRes, err := emu.Run(emu.Config{
					Workers:              workers,
					Layers:               layers,
					Dataset:              nn.Blobs(256, 8, 4, 11),
					Batch:                32,
					Iterations:           iters,
					LR:                   0.1,
					Policy:               name,
					Profile:              prof,
					Transport:            backend,
					BandwidthBytesPerSec: bw,
					Seed:                 seed,
				})
				if err != nil {
					t.Fatal(err)
				}

				compareRecords(t, simRes.Messages, emuRes.Messages)
			})
		}
	}
}

func compareRecords(t *testing.T, sim, emu []drive.Record) {
	t.Helper()
	if len(sim) == 0 || len(emu) == 0 {
		t.Fatalf("empty decision log: simulator %d records, emulation %d", len(sim), len(emu))
	}
	if len(sim) != len(emu) {
		t.Fatalf("simulator made %d decisions, emulation %d\nsim: %v\nemu: %v",
			len(sim), len(emu), sim, emu)
	}
	for i := range sim {
		if !reflect.DeepEqual(sim[i], emu[i]) {
			t.Fatalf("decision %d diverged:\n  simulator: %+v\n  emulation: %+v", i, sim[i], emu[i])
		}
	}
}
