package experiments

import (
	"fmt"
	"io"

	"prophet/internal/cluster"
	"prophet/internal/model"
	"prophet/internal/netsim"
	"prophet/internal/probe/predict"
	"prophet/internal/schedule"
	"prophet/internal/sim"
)

// ExtPredictResult audits Prophet's own predictability — the paper's core
// premise (§III: profiled generation plus monitored bandwidth make
// communication schedulable ahead of time). Two regimes:
//
//  1. Stable simulator: constant bandwidth, so the cost model IS the wire
//     model and predicted windows must match observed ones to float
//     precision — the residual floor.
//  2. Varying simulator: the link drops to a third mid-run and recovers.
//     Plans made just before the dip run at the dipped rate, so drift
//     rises; Prophet's monitor notices and re-plans; once the trace
//     recovers the EWMA decays back — degradation and recovery are both
//     visible in the drift series.
//
// The live regime — a clean run stays under the alarm threshold while a
// seeded throttle trips the alarm on the throttled worker only — is
// emu.TestPredictChaosCleanNeverAlarms and TestPredictChaosThrottleTripsAlarm.
type ExtPredictResult struct {
	// Stable simulator leg: prophet on a constant 3 Gbps trace.
	StableMaxRel   float64 // worst relative window error (invariant floor)
	StableJoined   int
	StableMaxDrift float64
	StableAlarms   int

	// Varying simulator leg: same run over a step trace that dips to a
	// third of the bandwidth mid-run and recovers.
	VaryMaxRel   float64
	VaryMaxDrift float64
	VaryAlarms   int
	VaryReplans  int       // Prophet re-plans triggered by the monitored dip
	VaryDrift    []float64 // per-iteration max drift across workers
	VaryEndDrift float64   // last iteration's max drift (recovery)
}

// Render implements Result.
func (r *ExtPredictResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Extension — prediction audit (how predictable is Prophet's own schedule?)\n")
	fmt.Fprintf(w, "  simulator, prophet, constant 3 Gbps (the invariant regime):\n")
	fmt.Fprintf(w, "    %d windows joined, max rel err %.2g, max drift %.3f, alarms %d\n",
		r.StableJoined, r.StableMaxRel, r.StableMaxDrift, r.StableAlarms)
	fmt.Fprintf(w, "  simulator, bandwidth dips 3→1 Gbps mid-run and recovers:\n")
	fmt.Fprintf(w, "    max rel err %.2g, max drift %.3f, alarms %d, prophet re-plans %d\n",
		r.VaryMaxRel, r.VaryMaxDrift, r.VaryAlarms, r.VaryReplans)
	lo, hi := 0.0, r.VaryMaxDrift
	fmt.Fprintf(w, "    drift per iteration: %s (end %.3f — decayed after recovery)\n",
		sparkline(r.VaryDrift, lo, hi), r.VaryEndDrift)
	fmt.Fprintf(w, "  predictions hold to float precision when the wire matches the model and\n")
	fmt.Fprintf(w, "  degrade visibly when bandwidth shifts; drift alarms: %d constant, %d dip.\n",
		r.StableAlarms, r.VaryAlarms)
	fmt.Fprintf(w, "  Neither leg faults a worker: that the alarm singles out a throttled one\n")
	fmt.Fprintf(w, "  is emu.TestPredictChaosThrottleTripsAlarm's check\n")
}

// extPredict runs the extension.
func extPredict(cfg Config) (*ExtPredictResult, error) {
	out := &ExtPredictResult{}

	s, err := prepare(model.ResNet18(), 32, cfg.Seed)
	if err != nil {
		return nil, err
	}

	// Leg 1: constant trace. The audit's invariant regime — the link cost
	// model evaluates the same arithmetic the simulated wire does.
	stableRep, stableDur, _, err := simAudit(cfg, s, netsim.Const(netsim.Goodput(netsim.Gbps(3))))
	if err != nil {
		return nil, fmt.Errorf("ext-predict: stable leg: %w", err)
	}
	out.StableMaxRel = stableRep.MaxRelErr()
	out.StableJoined = stableRep.Joined
	out.StableMaxDrift = stableRep.MaxDrift()
	out.StableAlarms = len(stableRep.Alarms)

	// Leg 2: the same run over a dip. Window placement comes from the
	// stable run's measured duration, so the dip lands mid-run at any
	// iteration count.
	dip := netsim.NewStepTrace(
		netsim.Step{From: 0, Rate: netsim.Goodput(netsim.Gbps(3))},
		netsim.Step{From: sim.Time(0.35 * stableDur), Rate: netsim.Goodput(netsim.Gbps(1))},
		netsim.Step{From: sim.Time(0.65 * stableDur), Rate: netsim.Goodput(netsim.Gbps(3))},
	)
	varyRep, _, replans, err := simAudit(cfg, s, dip)
	if err != nil {
		return nil, fmt.Errorf("ext-predict: varying leg: %w", err)
	}
	out.VaryMaxRel = varyRep.MaxRelErr()
	out.VaryMaxDrift = varyRep.MaxDrift()
	out.VaryAlarms = len(varyRep.Alarms)
	out.VaryReplans = replans
	byIter := map[int]float64{}
	maxIter := 0
	for _, sc := range varyRep.Scores {
		if sc.Drift > byIter[sc.Iter] {
			byIter[sc.Iter] = sc.Drift
		}
		if sc.Iter > maxIter {
			maxIter = sc.Iter
		}
	}
	for i := 0; i <= maxIter; i++ {
		out.VaryDrift = append(out.VaryDrift, byIter[i])
	}
	if n := len(out.VaryDrift); n > 0 {
		out.VaryEndDrift = out.VaryDrift[n-1]
	}
	return out, nil
}

// simAudit runs prophet on the simulated PS cluster over the given
// bandwidth trace with an auditor attached, and returns its flushed
// report, the simulated duration, and how often Prophet re-planned.
func simAudit(cfg Config, s *setup, tr netsim.Trace) (*predict.Report, float64, int, error) {
	inner := s.prophet()
	var prophets []*schedule.Prophet
	factory := func(w int, eng *sim.Engine, uplink *netsim.Link) schedule.Scheduler {
		sch := inner(w, eng, uplink)
		if p, ok := sch.(*schedule.Prophet); ok {
			prophets = append(prophets, p)
		}
		return sch
	}
	c := s.config(cfg, factory, func(int) netsim.LinkConfig {
		return netsim.DefaultLinkConfig(tr)
	}, 3)
	aud := predict.NewAuditor(predict.Options{})
	c.Observer = aud
	res, err := cluster.Run(c)
	if err != nil {
		return nil, 0, 0, err
	}
	replans := 0
	for _, p := range prophets {
		replans += p.Replans()
	}
	aud.Flush()
	return aud.Report(), res.Duration, replans, nil
}
