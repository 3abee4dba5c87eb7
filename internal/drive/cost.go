package drive

// WireVolume returns the wire bytes a backend moves per payload byte of one
// message: 1 for the parameter server's single transfer, Σ ChunkBytes(1, W)
// for a collective (2(W−1)/W for both ring and tree — the bandwidth-optimal
// total). It returns 0 for the degenerate single-worker collective, which
// moves nothing; callers that divide by it should treat that as "no wire".
func WireVolume(be Backend, workers int) float64 {
	total := 0.0
	for _, c := range be.ChunkBytes(1, workers, nil) {
		total += c
	}
	return total
}

// Window is one message's predicted wire window: the half-open interval
// [Start, End) the cost model expects the transfer to occupy on its lane,
// in seconds on the path's clock. The zero value means "no prediction was
// made" — the Driver only fills it when a CostModel is attached, so
// decision Records stay bit-identical across paths that don't predict.
type Window struct {
	Start, End float64
}

// IsZero reports whether no prediction was recorded.
func (w Window) IsZero() bool { return w == Window{} }

// WireCost returns the CostModel of a serial store-and-forward link: a
// message played as a backend's chunk schedule (the netsim wire arithmetic
// in closed form). The dispatch stall is serialized once before the first
// chunk, and every chunk step pays the link's per-message setup and ramp —
//
//	stall + Σ_i (setup + (chunk_i + ramp)/B(lane))
//
// which on the one-step PS backend is netsim.Link.SendExtra's own
// stall + setup + (s + ramp)/B. It is summed per chunk rather than folded
// into a closed form, so the predicted duration matches the simulator's
// step-by-step playback to float association. bandwidth is read once per
// prediction, so a varying trace shows up as prediction error — the drift
// signal the audit exists to measure — and a re-read after the rate settles
// re-anchors the plan. W ≤ 1 collectives have no chunks and predict zero
// (cluster.Run rejects them).
func WireCost(be Backend, workers int, setup, ramp float64, bandwidth func(lane int) float64) *CostModel {
	return &CostModel{be: be, workers: workers, setup: setup, ramp: ramp, bandwidth: bandwidth}
}

// CostModel predicts how long one dispatched sub-message occupies its lane:
// the same quantity the strategies' own planners reason about (Eq. 10's
// f(s, B) plus the engine dispatch stall), so the Driver can stamp every
// decision with its planned window and the prediction audit
// (internal/probe/predict) can score the plan against what the wire
// actually did. The Driver calls it single-threaded from its enqueue path.
type CostModel struct {
	be        Backend
	workers   int
	setup     float64 // per-message fixed overhead, seconds (netsim.LinkConfig.SetupTime)
	ramp      float64 // slow-start byte penalty (netsim.LinkConfig.RampBytes)
	bandwidth func(lane int) float64
	chunks    []float64 // reused scratch: predictions allocate nothing steady-state
}

// MessageTime returns the predicted lane-busy time of a sub-message of
// `bytes` payload with engine dispatch cost `stall`, dispatched on `lane`.
func (c *CostModel) MessageTime(lane int, bytes, stall float64) float64 {
	c.chunks = c.be.ChunkBytes(bytes, c.workers, c.chunks[:0])
	if len(c.chunks) == 0 {
		return 0
	}
	b := c.bandwidth(lane)
	d := stall
	for _, ch := range c.chunks {
		d += c.setup
		if b > 0 {
			d += (ch + c.ramp) / b
		}
	}
	return d
}
