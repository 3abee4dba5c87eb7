package cluster

// The reference implementation below is the original hand-rolled ring
// all-reduce simulation loop, preserved verbatim in test code:
// TestDriveMatchesLegacy asserts that Run on the collective wire (the
// registry's fusion strategy + ring backend behind the worker's one loop)
// reproduces its completion times within 1e-9 across the model zoo. It is
// what pins the wire's two legacy properties — jitter salt 17 and
// highest-index-first bucket release (collective.go) — by construction
// rather than by value.

import (
	"math"
	"testing"

	"prophet/internal/metrics"
	"prophet/internal/model"
	"prophet/internal/netsim"
	"prophet/internal/schedule"
	"prophet/internal/sim"
	"prophet/internal/strategy"
)

// fusion builds the registry's fusion strategy over m's gradients with the
// given buffer threshold.
func fusion(m *model.Model, bytes float64) SchedulerFactory {
	sizes := gradSizes(m)
	return func(int, *sim.Engine, *netsim.Link) schedule.Scheduler {
		s, err := strategy.New("fusion", strategy.Params{Sizes: sizes, FusionBytes: bytes})
		if err != nil {
			panic(err)
		}
		return s
	}
}

// legacyStepTime is the legacy closed-form ring cost of one fused buffer.
func legacyStepTime(cfg *Config, bytes float64) float64 {
	w := float64(cfg.Workers)
	link := cfg.Uplink(0)
	b := link.Trace.At(0)
	perStep := link.SetupTime + (bytes/w+link.RampBytes)/b
	return 2 * (w - 1) * perStep
}

// legacyRun is the pre-drive simulation loop, kept as the equivalence
// oracle. fusionBytes is the legacy Config.FusionBytes threshold, which the
// registry's fusion strategy now carries; Reductions is what Result.Sends
// counts now.
func legacyRun(cfg Config, fusionBytes float64) (*legacyResult, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	eng := sim.New()
	rng := sim.NewRand(cfg.Seed*1_000_003 + 17)
	m := cfg.Model
	n := m.NumGradients()

	res := &legacyResult{}

	releaseAt := make([][]int, n)
	for _, grp := range cfg.Agg.Groups {
		releaseAt[grp[0]] = append([]int(nil), grp...)
	}

	ringBusy := false
	var pending []int
	reduced := make([]bool, n)
	iterStart := 0.0
	iter := 0
	fwdSeg := 0
	bwdSeg := -1
	computing := false
	inBackward := false

	var advanceForward func()
	var advanceBackward func()
	var pumpRing func()

	finishIteration := func() {
		now := eng.Now()
		res.Iters.Add(iterStart, now)
		iterStart = now
		iter++
		if iter >= cfg.Iterations {
			return
		}
		fwdSeg = 0
		inBackward = false
		advanceForward()
	}

	fuse := func() (grads []int, bytes float64) {
		for len(pending) > 0 {
			g := pending[0]
			gb := m.Grads[g].Bytes()
			if len(grads) > 0 && bytes+gb > fusionBytes {
				break
			}
			grads = append(grads, g)
			bytes += gb
			pending = pending[1:]
		}
		return grads, bytes
	}

	pumpRing = func() {
		if ringBusy || len(pending) == 0 {
			return
		}
		grads, bytes := fuse()
		ringBusy = true
		eng.Schedule(legacyStepTime(&cfg, bytes), func() {
			ringBusy = false
			res.Reductions++
			for _, g := range grads {
				reduced[g] = true
			}
			advanceForward()
			pumpRing()
		})
	}

	advanceBackward = func() {
		if bwdSeg < 0 {
			finishIteration()
			return
		}
		seg := bwdSeg
		computing = true
		d := rng.Jitter(m.BwdTime(cfg.Hardware, m.Grads[seg], cfg.Batch), cfg.Jitter)
		eng.Schedule(d, func() {
			computing = false
			if rel := releaseAt[seg]; rel != nil {
				for i := len(rel) - 1; i >= 0; i-- {
					pending = append(pending, rel[i])
				}
				pumpRing()
			}
			bwdSeg--
			advanceBackward()
		})
	}

	advanceForward = func() {
		if inBackward || computing || iter >= cfg.Iterations {
			return
		}
		if fwdSeg >= n {
			inBackward = true
			for i := range reduced {
				reduced[i] = false
			}
			bwdSeg = n - 1
			advanceBackward()
			return
		}
		if iter > 0 && !reduced[fwdSeg] {
			return
		}
		seg := fwdSeg
		computing = true
		d := rng.Jitter(m.FwdTime(cfg.Hardware, m.Grads[seg], cfg.Batch), cfg.Jitter)
		eng.Schedule(d, func() {
			computing = false
			fwdSeg++
			advanceForward()
		})
	}

	advanceForward()
	eng.Run()
	if iter < cfg.Iterations {
		return nil, nil
	}
	res.Duration = eng.Now()
	return res, nil
}

// legacyResult is what the legacy loop reported.
type legacyResult struct {
	Iters      metrics.IterationLog
	Duration   float64
	Reductions int
}

func TestDriveMatchesLegacy(t *testing.T) {
	zoo := []struct {
		name string
		m    *model.Model
	}{
		{"resnet18", model.ResNet18()},
		{"resnet50", model.ResNet50()},
		{"inception-v3", model.InceptionV3()},
		{"vgg19", model.VGG19()},
	}
	for _, tc := range zoo {
		for _, workers := range []int{2, 4} {
			for _, threshold := range []float64{1, 64e6} {
				m := model.WithWireFactor(tc.m, 2)
				cfg := Config{
					Model:      m,
					Batch:      32,
					Workers:    workers,
					Transport:  "ring",
					Uplink:     func(int) netsim.LinkConfig { return netsim.DefaultLinkConfig(netsim.Const(netsim.Gbps(3))) },
					Scheduler:  fusion(m, threshold),
					Iterations: 6,
					Seed:       7,
				}
				want, err := legacyRun(cfg, threshold)
				if err != nil {
					t.Fatalf("%s w%d f%.0f: legacy: %v", tc.name, workers, threshold, err)
				}
				got, err := Run(cfg)
				if err != nil {
					t.Fatalf("%s w%d f%.0f: drive: %v", tc.name, workers, threshold, err)
				}
				if got.Sends != want.Reductions {
					t.Errorf("%s w%d f%.0f: reductions %d, legacy %d",
						tc.name, workers, threshold, got.Sends, want.Reductions)
				}
				if math.Abs(got.Duration-want.Duration) > 1e-9 {
					t.Errorf("%s w%d f%.0f: duration %v, legacy %v (Δ=%g)",
						tc.name, workers, threshold, got.Duration, want.Duration,
						got.Duration-want.Duration)
				}
				if got.Iters.Count() != want.Iters.Count() {
					t.Fatalf("%s w%d f%.0f: iteration count %d vs %d",
						tc.name, workers, threshold, got.Iters.Count(), want.Iters.Count())
				}
				for i := range want.Iters.Ends {
					if math.Abs(got.Iters.Ends[i]-want.Iters.Ends[i]) > 1e-9 {
						t.Errorf("%s w%d f%.0f: iter %d end %v, legacy %v (Δ=%g)",
							tc.name, workers, threshold, i, got.Iters.Ends[i], want.Iters.Ends[i],
							got.Iters.Ends[i]-want.Iters.Ends[i])
						break
					}
				}
			}
		}
	}
}
