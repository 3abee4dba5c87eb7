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

// CollectiveCost returns the CostModel of one message played as a backend's
// chunk schedule on a single serial link (the collectiveTx wire shape): the
// dispatch stall is serialized once before the first chunk, and every chunk
// step pays the link's per-message setup and ramp —
//
//	stall + Σ_i (setup + (chunk_i + ramp)/B)
//
// summed per chunk rather than folded into a closed form, so the predicted
// duration matches the simulator's step-by-step playback to float
// association. bandwidth is read once per prediction; W ≤ 1 collectives
// have no chunks and predict zero (cluster.Run rejects them).
func CollectiveCost(be Backend, workers int, setup, ramp float64, bandwidth func() float64) schedule.CostModel {
	return &collectiveCost{be: be, workers: workers, setup: setup, ramp: ramp, bandwidth: bandwidth}
}

type collectiveCost struct {
	be        Backend
	workers   int
	setup     float64
	ramp      float64
	bandwidth func() float64
	chunks    []float64 // reused scratch: predictions allocate nothing steady-state
}

// MessageTime implements schedule.CostModel.
func (c *collectiveCost) MessageTime(lane int, bytes, stall float64) float64 {
	c.chunks = c.be.ChunkBytes(bytes, c.workers, c.chunks[:0])
	if len(c.chunks) == 0 {
		return 0
	}
	b := c.bandwidth()
	d := stall
	for _, ch := range c.chunks {
		d += c.setup
		if b > 0 {
			d += (ch + c.ramp) / b
		}
	}
	return d
}
