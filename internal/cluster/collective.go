package cluster

import "prophet/internal/drive"

// The collective wire — the architecture the paper's related work
// contrasts with the PS design (PACE schedules all-reduce tensors
// preemptively; Horovod popularized the ring).
//
// Ring cost model: a tensor of s bytes across W workers runs 2(W−1) steps,
// each moving s/W bytes on every link simultaneously, so the wall time on
// links of bandwidth B with per-message overhead c is
//
//	T(s) = 2(W−1) × (c + (s/W + ramp)/B)
//
// Small tensors are murdered by the 2(W−1) per-step overheads, which is why
// frameworks fuse tensors into a fusion buffer before reducing — the ring's
// analogue of Prophet's blocks ("fusion" in the strategy registry is
// Horovod's static threshold).
//
// What the wire owns: the one link (the worker's up[0]), the backend's
// chunk schedule, the completion order, and two properties that are
// historical rather than physical. Both date from the hand-rolled ring loop
// this wire replaced and are pinned by value — benchmark/golden.json
// Sim.Ring, the ext-transport golden, TestDriveMatchesLegacy (1e-9 against
// that loop) and TestCollectivePinned — so they stay:
//
//   - the compute-jitter stream is salted collectiveJitterSalt, where PS
//     worker w uses 7919·w + 1;
//   - a released aggregation bucket reaches the scheduler highest index
//     first (the order backward propagation produced it), where the PS wire
//     hands it over in list order. newWorker stores the bucket reversed, so
//     the loop's release walk is the same on both wires.
const collectiveJitterSalt uint64 = 17

// collectiveTx plays one dispatched scheduler message as a full collective
// operation on the serial link: Backend.ChunkBytes worth of chunk transfers
// back to back, each paying the link's per-message overhead (the strategy's
// engine Stall is serialized once, before the first chunk). The lane stays
// busy from dispatch to the last chunk's completion, so the drive layer's
// fetch gate and the probe span cover the whole operation. setDefaults
// rejects Workers < 2, so every operation has at least two steps.
type collectiveTx struct {
	w  *worker
	be drive.Backend

	active bool
	chunks []float64
	// completes holds the grads the in-flight message finishes, copied out
	// of the Send's recycled Ranges.
	completes []int
	label     string
	iter      int
	stall     float64
	step      int

	stepDone func() // onStepDone, bound once
}

// wireCollective puts a collectiveTx behind the driver: one lane, no
// key→lane map, no pull leg.
func (w *worker) wireCollective() {
	tx := &collectiveTx{w: w, be: w.cfg.backend}
	tx.stepDone = tx.onStepDone
	w.drv = drive.New(w.sched, tx, 1, len(w.pulled), nil)
}

// Busy implements drive.Transmitter.
func (t *collectiveTx) Busy(lane int) bool { return t.active }

// Start implements drive.Transmitter.
func (t *collectiveTx) Start(s *drive.Send) {
	t.w.sends++
	t.active = true
	t.label, t.iter = s.Msg.Label, s.Iter
	t.stall = s.Msg.Stall
	t.completes = t.completes[:0]
	for _, r := range s.Ranges {
		if r.Last {
			t.completes = append(t.completes, r.Grad)
		}
	}
	t.chunks = t.be.ChunkBytes(s.Msg.Bytes, t.w.cfg.Workers, t.chunks[:0])
	t.step = 0
	t.playStep()
}

func (t *collectiveTx) playStep() {
	extra := 0.0
	if t.step == 0 {
		extra = t.stall
	}
	t.w.up[0].SendExtra(t.chunks[t.step], extra, t.label, t.stepDone)
}

func (t *collectiveTx) onStepDone() {
	w := t.w
	t.step++
	if t.step < len(t.chunks) {
		t.playStep()
		return
	}
	// The reduced value is on every worker the moment the last chunk lands:
	// the collective's PullAcked, with no pull leg behind it. Then the
	// driver learns the lane is free, a stalled forward segment may
	// proceed, and only then is the next operation fetched — the order
	// matters, a strategy's Next may read what OnSent just recorded.
	t.active = false
	now := w.eng.Now()
	for _, g := range t.completes {
		w.pulled[g] = true
		if w.obs != nil {
			w.obs.PullAcked(w.id, g, t.iter, now)
		}
	}
	w.drv.Completed(0, now)
	w.advanceForward()
	w.drv.Pump(now)
}
