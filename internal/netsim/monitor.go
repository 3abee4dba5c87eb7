package netsim

// Monitor estimates the available bandwidth of a link from observed
// transfers, mirroring Prophet's Network Bandwidth Monitor, which samples
// the workers' available bandwidth periodically (the paper uses a 5 s
// period). The estimate is an exponentially weighted moving average of the
// *raw* bandwidth inferred from each completed transfer: given a transfer of
// s bytes taking d seconds on a link with per-message setup c and ramp k,
// the raw bandwidth solves d = c + (s+k)/B, i.e. B = (s+k)/(d-c).
//
// Small messages give noisy estimates, so transfers below minSampleBytes are
// ignored.
type Monitor struct {
	cfg   LinkConfig
	alpha float64

	estimate  float64
	hasSample bool
	samples   int
}

// minSampleBytes filters out tiny transfers whose timing is dominated by
// overhead.
const minSampleBytes = 64e3

// NewMonitor attaches a monitor to link and returns it. alpha is the EWMA
// smoothing factor in (0, 1]; higher reacts faster. initial is the starting
// estimate in bytes/sec (e.g. from a one-off probe at job start).
func NewMonitor(link *Link, alpha, initial float64) *Monitor {
	if alpha <= 0 || alpha > 1 {
		panic("netsim: Monitor alpha out of (0,1]")
	}
	m := &Monitor{
		cfg:      link.Config(),
		alpha:    alpha,
		estimate: initial,
	}
	link.ObserveTransfers(m.observe)
	return m
}

func (m *Monitor) observe(rec TransferRecord) {
	if rec.Bytes < minSampleBytes {
		return
	}
	d := rec.End - rec.Start
	eff := d - m.cfg.SetupTime
	if eff <= 0 {
		return
	}
	raw := (rec.Bytes + m.cfg.RampBytes) / eff
	if !m.hasSample {
		m.estimate = raw
		m.hasSample = true
	} else {
		m.estimate = m.alpha*raw + (1-m.alpha)*m.estimate
	}
	m.samples++
}

// Estimate returns the current bandwidth estimate in bytes/sec.
func (m *Monitor) Estimate() float64 { return m.estimate }

// Samples returns how many transfers have contributed to the estimate.
func (m *Monitor) Samples() int { return m.samples }
