package probe

// metricsObserver folds the probe event stream into registry counters and
// histograms. Handles are resolved once at construction, so each event
// costs an atomic add (plus a histogram bucket update for sized events) —
// cheap enough for the live path, which is what the registry serves.
type metricsObserver struct {
	reg        *Metrics
	iterations *Counter
	generated  *Counter
	sends      *Counter
	acked      *Counter
	faults     *Counter
	sendBytes  *Histogram
}

// Observer returns an Observer that mirrors the event stream into the
// registry under the probe_* names:
//
//	probe_iterations        completed iterations (all workers)
//	probe_generated         gradients released to the scheduler
//	probe_sends             wire sends completed
//	probe_pull_acked        aggregated gradients landed back on a worker
//	probe_fault_injections  fault injectors fired (plus probe_fault_<kind>)
//	probe_send_bytes        histogram of send payload sizes
//
// A nil receiver returns nil, preserving the nil fast path when composed
// with NewMulti.
func (m *Metrics) Observer() Observer {
	if m == nil {
		return nil
	}
	return &metricsObserver{
		reg:        m,
		iterations: m.Counter("probe_iterations"),
		generated:  m.Counter("probe_generated"),
		sends:      m.Counter("probe_sends"),
		acked:      m.Counter("probe_pull_acked"),
		faults:     m.Counter("probe_fault_injections"),
		sendBytes:  m.Histogram("probe_send_bytes"),
	}
}

// BeginIteration implements Observer.
func (o *metricsObserver) BeginIteration(worker, iter int, now float64) {}

// EndIteration implements Observer.
func (o *metricsObserver) EndIteration(worker, iter int, now float64) { o.iterations.Inc() }

// Generated implements Observer.
func (o *metricsObserver) Generated(worker, grad int, now float64) { o.generated.Inc() }

// SendStart implements Observer.
func (o *metricsObserver) SendStart(worker, lane, seq, iter int, label string, bytes float64, ranges []Range, now float64) {
	o.sendBytes.Observe(bytes)
}

// SendComplete implements Observer.
func (o *metricsObserver) SendComplete(worker, lane, iter int, now float64) {
	o.sends.Inc()
}

// PullAcked implements Observer.
func (o *metricsObserver) PullAcked(worker, grad, iter int, now float64) { o.acked.Inc() }

// FaultInjected implements Observer.
func (o *metricsObserver) FaultInjected(worker int, kind string, now float64) {
	o.faults.Inc()
	o.reg.Counter("probe_fault_" + kind).Inc()
}
