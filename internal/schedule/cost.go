package schedule

// Window is one message's predicted wire window: the half-open interval
// [Start, End) the cost model expects the transfer to occupy on its lane,
// in seconds on the path's clock. The zero value means "no prediction was
// made" — the drive layer only fills it when a CostModel is attached, so
// decision Records stay bit-identical across paths that don't predict.
type Window struct {
	Start, End float64
}

// IsZero reports whether no prediction was recorded.
func (w Window) IsZero() bool { return w == Window{} }

// CostModel predicts how long one dispatched sub-message occupies its lane:
// the same quantity the strategies' own planners reason about (Eq. 10's
// f(s, B) plus the engine dispatch stall), exposed so the drive layer can
// stamp every decision with its planned window and the prediction audit
// (internal/probe/predict) can score the plan against what the wire
// actually did.
//
// Implementations are driven single-threaded from the Driver's enqueue path
// and must not allocate in the steady state (the simulator's allocation
// budget covers the predicting configuration too).
type CostModel interface {
	// MessageTime returns the predicted lane-busy time of a sub-message of
	// `bytes` payload with engine dispatch cost `stall`, dispatched on
	// `lane`.
	MessageTime(lane int, bytes, stall float64) float64
}
