package emu

import (
	"testing"
	"time"

	"prophet/internal/fault"
	"prophet/internal/nn"
	"prophet/internal/probe/predict"
)

// predictChaosConfig is chaosConfig reshaped for the prediction audit:
// links shaped to a known rate the engines predict from, and a model big
// enough (~320 KB of gradients per iteration) that the limiter's 64 KB
// token-bucket burst is a bounded fraction of each iteration's traffic —
// on a burst-sized model every transfer completes for free and "predicted
// at the shaped rate" would read as pure drift.
func predictChaosConfig(iters int) Config {
	return Config{
		Workers:              3,
		Layers:               []int{128, 256, 32},
		Dataset:              nn.Blobs(256, 128, 32, 7),
		Batch:                16,
		Iterations:           iters,
		LR:                   0.1,
		Policy:               "fifo",
		Seed:                 7,
		BandwidthBytesPerSec: 2 << 20,
		Deadline:             60 * time.Second,
	}
}

// chaosAuditOptions separates live-path noise from genuine divergence: a
// clean run's worst per-iteration divergence is the burst fraction plus
// scheduler jitter (well under 1x even race-slowed), while the quartered
// throttle diverges by ~3x every iteration. Threshold 1.5 sits between
// them with a 2x margin on each side.
func chaosAuditOptions() predict.Options {
	return predict.Options{Threshold: 1.5}
}

// TestPredictChaosCleanNeverAlarms: with shaped links and no faults, every
// worker's drift score stays under threshold for the whole run — framing
// overhead is noise, not drift.
func TestPredictChaosCleanNeverAlarms(t *testing.T) {
	aud := predict.NewAuditor(chaosAuditOptions())
	cfg := predictChaosConfig(6)
	cfg.Observer = aud
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	aud.Flush()
	rep := aud.Report()
	if rep.Joined == 0 {
		t.Fatal("clean run joined no planned windows")
	}
	if len(rep.Alarms) != 0 {
		t.Fatalf("clean run raised %d drift alarms (max drift %.2f): %+v",
			len(rep.Alarms), rep.MaxDrift(), rep.Alarms)
	}
}

// TestPredictChaosThrottleTripsAlarm: a seeded throttle injector on worker
// 1's connection quarters its effective rate, so observed transmits run 4x
// the plan and the drift alarm must fire within K iterations — on the
// faulted worker.
func TestPredictChaosThrottleTripsAlarm(t *testing.T) {
	const K = 4
	aud := predict.NewAuditor(chaosAuditOptions())
	cfg := predictChaosConfig(4)
	cfg.Faults = map[int]fault.Spec{1: fault.Throttle(float64(cfg.BandwidthBytesPerSec) / 4)}
	cfg.Observer = aud
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	aud.Flush()
	rep := aud.Report()
	if len(rep.Alarms) == 0 {
		t.Fatalf("throttled run raised no drift alarms (max drift %.2f)", rep.MaxDrift())
	}
	first := rep.Alarms[0]
	for _, al := range rep.Alarms {
		if al.Iter < first.Iter {
			first = al
		}
	}
	if first.Iter >= K {
		t.Fatalf("first alarm at iteration %d, want < %d", first.Iter, K)
	}
	for _, al := range rep.Alarms {
		if al.Worker != 1 {
			t.Fatalf("alarm on healthy worker %d: %+v", al.Worker, al)
		}
	}
}
