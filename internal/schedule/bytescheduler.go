package schedule

import "prophet/internal/sim"

// EnableTuning attaches an online credit auto-tuner (CreditTuner) exploring
// sizes in [minCredit, maxCredit] from the current credit — the paper's
// Fig. 3(b) configuration. seed drives the exploration sequence.
func (q *Queue) EnableTuning(minCredit, maxCredit float64, seed uint64) {
	q.tuner = NewCreditTuner(q.budget, minCredit, maxCredit, seed)
}

// Credit returns the current credit — the row's budget — in bytes.
func (q *Queue) Credit() float64 { return q.budget }

// The tuner probes every probeEvery iterations, at a credit probeSpread
// times or 1/probeSpread times the incumbent (before jitter).
const (
	probeEvery  = 4
	probeSpread = 2.0
)

// CreditTuner is a stochastic hill-climbing credit optimizer: it keeps the
// best credit seen so far and, on a fixed cadence, spends one iteration
// probing a random multiplicative perturbation. Probes at off-optimum
// credits are what make the training rate fluctuate, matching the
// auto-tuning instability the paper reports for ByteScheduler.
type CreditTuner struct {
	rng        *sim.Rand
	min, max   float64
	best       float64
	bestDur    float64
	current    float64
	probing    bool
	sinceProbe int
}

// NewCreditTuner creates a tuner starting from `initial` bytes.
func NewCreditTuner(initial, min, max float64, seed uint64) *CreditTuner {
	if min <= 0 || max < min {
		panic("schedule: bad tuner bounds")
	}
	return &CreditTuner{
		rng:  sim.NewRand(seed),
		min:  min,
		max:  max,
		best: clamp(initial, min, max),
	}
}

// Propose returns the credit to use for the next iteration.
func (t *CreditTuner) Propose() float64 {
	t.sinceProbe++
	if t.sinceProbe >= probeEvery {
		t.sinceProbe = 0
		t.probing = true
		factor := probeSpread
		if t.rng.Float64() < 0.5 {
			factor = 1 / factor
		}
		// Mix in continuous jitter so probes cover the range.
		factor *= 0.75 + 0.5*t.rng.Float64()
		t.current = clamp(t.best*factor, t.min, t.max)
	} else {
		t.probing = false
		t.current = t.best
	}
	return t.current
}

// Report feeds back the duration of the iteration that used the proposed
// credit. Shorter is better.
func (t *CreditTuner) Report(iterDur float64) {
	if t.bestDur == 0 {
		t.bestDur = iterDur
		return
	}
	if t.probing && iterDur < t.bestDur {
		t.best = t.current
		t.bestDur = iterDur
	} else if !t.probing {
		// Refresh the incumbent's measurement with smoothing so drift in
		// conditions (e.g. bandwidth changes) does not fossilize bestDur.
		t.bestDur = 0.8*t.bestDur + 0.2*iterDur
	}
}

// Best returns the incumbent credit.
func (t *CreditTuner) Best() float64 { return t.best }

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
