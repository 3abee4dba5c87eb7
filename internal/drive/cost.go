package drive

import "prophet/internal/schedule"

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

// WireCost returns the one CostModel of a serial store-and-forward link: a
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
func WireCost(be Backend, workers int, setup, ramp float64, bandwidth func(lane int) float64) schedule.CostModel {
	return &wireCost{be: be, workers: workers, setup: setup, ramp: ramp, bandwidth: bandwidth}
}

type wireCost struct {
	be        Backend
	workers   int
	setup     float64 // per-message fixed overhead, seconds (netsim.LinkConfig.SetupTime)
	ramp      float64 // slow-start byte penalty (netsim.LinkConfig.RampBytes)
	bandwidth func(lane int) float64
	chunks    []float64 // reused scratch: predictions allocate nothing steady-state
}

// MessageTime implements schedule.CostModel.
func (c *wireCost) MessageTime(lane int, bytes, stall float64) float64 {
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
