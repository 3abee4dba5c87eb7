// Package probe is the unified observability surface of the drive layer
// and everything beneath it. Both execution paths — the discrete-event
// cluster simulator and the live emulation — emit the same event taxonomy
// through one Observer interface, so a single recorder (SpanRecorder), one
// metrics registry (Metrics), and one analyzer (probe/attrib) serve every
// strategy on every path. The paper argues entirely with timelines
// (stepwise generation in Figs. 2–5, utilization in Figs. 9–10, the
// per-gradient wait/transfer decomposition of Fig. 11); this package is
// what turns a live run into those timelines.
//
// # Event taxonomy
//
// Iteration boundaries (BeginIteration/EndIteration) bracket one training
// step. Within it:
//
//   - Generated: the aggregation layer released a gradient to the
//     scheduler.
//   - SendStart / SendComplete: a sub-message went on / came off the wire
//     of its lane (a PS shard link). Lanes are serial, so per (worker,
//     lane) these strictly alternate.
//   - PullAcked: the aggregated gradient was back on the worker (the event
//     that unblocks the next forward pass — the paper's T_wait).
//   - FaultInjected: a configured fault injector fired on the worker's
//     connection.
//
// One optional extension rides on the same stream; emitters type-assert
// for it. A PlanObserver also receives each send's planned wire window,
// and its presence is what switches prediction on: the SpanRecorder is not
// one, so recording a run never makes it predict — attaching a
// predict.Auditor does. A collective operation is one send: its chunk
// steps are not on the stream.
//
// # Cost contract
//
// The hot loops hold a possibly-nil Observer and guard every emission with
// exactly one nil check; no event construction happens before the check
// and no event allocates — arguments are scalars, interned strings, and
// borrowed slices. A nil observer therefore costs one predictable branch
// per site and zero allocations, which the simulator's allocation budget
// (BenchmarkCluster_Iteration) depends on.
//
// Observers must not retain the Ranges slice passed to SendStart: like
// drive.Transmitter.Start, it is valid only for the duration of the call
// (the driver recycles the backing array). Copy what you keep.
package probe

// Range is one gradient byte range [Off, Off+Bytes) carried by a send.
// internal/drive aliases this type (drive.Range = probe.Range), so the
// driver can hand its per-send ranges to an Observer without conversion or
// allocation.
type Range struct {
	Grad       int
	Off, Bytes float64
	// Last marks the range that completes the gradient's push.
	Last bool
}

// Observer receives drive-layer and transport events from one run. All
// times are in seconds on the path's clock: simulated time on the cluster
// path, wall-clock seconds since run start on the live path.
//
// Implementations used on the live path must be safe for concurrent use:
// per-shard writer goroutines emit send events concurrently with the
// worker loop's iteration and pull events. Emitters guarantee only that
// events of one (worker, lane) pair arrive in order.
type Observer interface {
	// BeginIteration marks the start of iteration iter on a worker.
	BeginIteration(worker, iter int, now float64)
	// EndIteration marks the completion of iteration iter.
	EndIteration(worker, iter int, now float64)
	// Generated reports gradient grad released to the scheduler.
	Generated(worker, grad int, now float64)
	// SendStart reports a sub-message going on the wire of its lane.
	// ranges is borrowed — copy it to keep it.
	SendStart(worker, lane, seq, iter int, label string, bytes float64, ranges []Range, now float64)
	// SendComplete reports the lane's in-flight sub-message finishing.
	SendComplete(worker, lane, iter int, now float64)
	// PullAcked reports gradient grad's aggregated value landing back on
	// the worker for iteration iter.
	PullAcked(worker, grad, iter int, now float64)
	// FaultInjected reports a fault injector firing (kind is the injector
	// family: drop, stall, corrupt, straggler).
	FaultInjected(worker int, kind string, now float64)
}

// PlanObserver is an optional extension of Observer for the prediction
// audit, and the switch that turns prediction on: a run predicts if and
// only if its observer is a PlanObserver. Then every drive.Driver gets the
// wire's cost model, drive.WireCost (or a live engine predicts from its configured
// rate) and announces each sub-message's *planned* wire window at decision
// time — before the send happens — so the audit (internal/probe/predict)
// can join plan against observation. The predict.Auditor is the one
// implementation. The join key is (worker, lane, seq, iter): live engines
// reuse fetch sequence numbers across iterations, so iter is part of the
// key.
type PlanObserver interface {
	// SendPlanned reports that the sub-message with fetch sequence seq on
	// (worker, lane) in iteration iter is predicted to occupy its lane over
	// [start, end).
	SendPlanned(worker, lane, seq, iter int, bytes float64, start, end float64)
}

// Multi fans events out to several observers. A nil entry is skipped, so
// callers can compose optional sinks without branching. A Multi is not a
// PlanObserver; NewMulti returns the plan-forwarding kind only when an
// entry listens for plans, so a fan-out predicts exactly when one of its
// entries would.
type Multi []Observer

// planMulti is a Multi with at least one PlanObserver entry.
type planMulti struct{ Multi }

// NewMulti returns an Observer fanning out to every non-nil argument, or
// nil when none remain — preserving the nil fast path at the emission
// sites.
func NewMulti(obs ...Observer) Observer {
	var m Multi
	plans := false
	for _, o := range obs {
		if o != nil {
			m = append(m, o)
			_, po := o.(PlanObserver)
			plans = plans || po
		}
	}
	switch {
	case len(m) == 0:
		return nil
	case len(m) == 1:
		return m[0]
	case plans:
		return &planMulti{m}
	default:
		return m
	}
}

// BeginIteration implements Observer.
func (m Multi) BeginIteration(worker, iter int, now float64) {
	for _, o := range m {
		o.BeginIteration(worker, iter, now)
	}
}

// EndIteration implements Observer.
func (m Multi) EndIteration(worker, iter int, now float64) {
	for _, o := range m {
		o.EndIteration(worker, iter, now)
	}
}

// Generated implements Observer.
func (m Multi) Generated(worker, grad int, now float64) {
	for _, o := range m {
		o.Generated(worker, grad, now)
	}
}

// SendStart implements Observer.
func (m Multi) SendStart(worker, lane, seq, iter int, label string, bytes float64, ranges []Range, now float64) {
	for _, o := range m {
		o.SendStart(worker, lane, seq, iter, label, bytes, ranges, now)
	}
}

// SendComplete implements Observer.
func (m Multi) SendComplete(worker, lane, iter int, now float64) {
	for _, o := range m {
		o.SendComplete(worker, lane, iter, now)
	}
}

// PullAcked implements Observer.
func (m Multi) PullAcked(worker, grad, iter int, now float64) {
	for _, o := range m {
		o.PullAcked(worker, grad, iter, now)
	}
}

// FaultInjected implements Observer.
func (m Multi) FaultInjected(worker int, kind string, now float64) {
	for _, o := range m {
		o.FaultInjected(worker, kind, now)
	}
}

// SendPlanned implements PlanObserver, forwarding to the entries that do.
func (m *planMulti) SendPlanned(worker, lane, seq, iter int, bytes float64, start, end float64) {
	for _, o := range m.Multi {
		if po, ok := o.(PlanObserver); ok {
			po.SendPlanned(worker, lane, seq, iter, bytes, start, end)
		}
	}
}
