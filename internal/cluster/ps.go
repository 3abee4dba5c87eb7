package cluster

import (
	"fmt"
	"math"
	"slices"

	"prophet/internal/schedule"
)

// paramServer models the PS node's aggregation state. Gradient bytes are
// range-aggregated: a byte range of gradient g is ready for pulling once
// every worker's cumulative push for g covers it (a range-partitioned
// key-value store, as in MXNet's KVStore). Aggregation compute itself is
// negligible next to network time and is modeled as instantaneous.
//
// The PS NIC is intentionally not a modeled bottleneck: as in BytePS-style
// deployments (and the paper's near-linear Fig. 12 scaling), PS capacity is
// provisioned so per-worker links bind. See DESIGN.md §2.
type paramServer struct {
	workers int
	// asp serves pulls from the requesting worker's own contribution
	// without the all-workers barrier.
	asp   bool
	n     int
	sizes []float64
	// rounds[i] is iteration base+i's aggregation state, nil until a push
	// or pull of that iteration first touches it. gc advances base and
	// recycles what it passes into free.
	rounds []*psIter
	base   int
	free   []*psIter
	// gens counts the rounds opened so far; each takes the next value as
	// its generation.
	gens uint64
	// dead[w] marks worker w dropped from the BSP barrier (FaultDrop):
	// aggregation coverage renormalizes over the survivors.
	dead []bool
	// workersRef lets the PS wake workers whose pulls may have become
	// eligible; set by Run after construction.
	workersRef []*worker
}

// psIter is the aggregation state of one training iteration.
type psIter struct {
	// pushed[w][g] is worker w's cumulative pushed bytes of gradient g.
	pushed [][]float64
	// gen tells this opening of the round from an earlier one of the same
	// iteration that gc collected: what a pull learned of its coverage
	// holds only while the round it read lives.
	gen uint64
}

func newParamServer(workers, n int, sizes []float64) *paramServer {
	return &paramServer{
		workers: workers,
		n:       n,
		sizes:   sizes,
	}
}

// state returns iteration iter's aggregation state, opening it zeroed on
// first touch. An iteration below base was collected already; only a
// dropped worker's draining push or pull reaches one (live workers never
// touch an iteration below the slowest live worker's epoch), and it is
// reopened zeroed, as a fresh round, until the next gc collects it again.
func (ps *paramServer) state(iter int) *psIter {
	if iter < ps.base {
		ps.rounds = slices.Insert(ps.rounds, 0, make([]*psIter, ps.base-iter)...)
		ps.base = iter
	}
	i := iter - ps.base
	for len(ps.rounds) <= i {
		ps.rounds = append(ps.rounds, nil)
	}
	st := ps.rounds[i]
	if st == nil {
		st = ps.newRound()
		ps.gens++
		st.gen = ps.gens
		ps.rounds[i] = st
	}
	return st
}

// newRound takes a zeroed round from the free list, or allocates one.
func (ps *paramServer) newRound() *psIter {
	if n := len(ps.free); n > 0 {
		st := ps.free[n-1]
		ps.free = ps.free[:n-1]
		for _, p := range st.pushed {
			clear(p)
		}
		return st
	}
	st := &psIter{pushed: make([][]float64, ps.workers)}
	for w := range st.pushed {
		st.pushed[w] = make([]float64, ps.n)
	}
	return st
}

// releaseRound hands a collected round to the free list. Nothing reads a
// round after gc collects it; a race build poisons its counts so that a
// read of one shows.
func (ps *paramServer) releaseRound(st *psIter) {
	if poison {
		for _, p := range st.pushed {
			for g := range p {
				p[g] = math.NaN()
			}
		}
	}
	ps.free = append(ps.free, st)
}

// onPush records an arrived push message and wakes every worker's downlink,
// since the new bytes may complete aggregation of some range.
func (ps *paramServer) onPush(w, iter int, msg schedule.Message) {
	if w < 0 || w >= ps.workers {
		panic(fmt.Sprintf("cluster: push from unknown worker %d", w))
	}
	st := ps.state(iter)
	for _, pc := range msg.Pieces {
		st.pushed[w][pc.Grad] += pc.Bytes
		if st.pushed[w][pc.Grad] > ps.sizes[pc.Grad]*(1+1e-9)+1 {
			panic(fmt.Sprintf("cluster: worker %d over-pushed gradient %d (%v > %v)",
				w, pc.Grad, st.pushed[w][pc.Grad], ps.sizes[pc.Grad]))
		}
	}
	for _, wk := range ps.workersRef {
		wk.pumpDownlink()
	}
}

// covered reports whether every byte range in worker `w`'s pull is ready:
// under BSP, pushed by all workers (the PS holds the aggregated value);
// under ASP, pushed by w itself (the PS applies updates as they arrive and
// serves the current parameters immediately).
//
// Coverage is monotone while a round lives — pushes only add bytes and a
// drop only relaxes the barrier — so the scan resumes at the first piece
// the last scan of the same round found short. A round gc collected and a
// draining straggler reopened is zeroed, so the pull scans it afresh.
func (ps *paramServer) covered(w int, pm *pullMsg) bool {
	st := ps.state(pm.iter)
	if pm.covGen != st.gen {
		pm.covGen, pm.covFrom = st.gen, 0
	}
	for ; pm.covFrom < len(pm.pieces); pm.covFrom++ {
		pc := pm.pieces[pm.covFrom]
		need := pc.off + pc.bytes
		slack := 1e-6 * (1 + need)
		if ps.asp {
			if st.pushed[w][pc.grad] < need-slack {
				return false
			}
			continue
		}
		for x := 0; x < ps.workers; x++ {
			if ps.dead != nil && ps.dead[x] {
				continue // dropped worker: barrier renormalized without it
			}
			if st.pushed[x][pc.grad] < need-slack {
				return false
			}
		}
	}
	return true
}

// gc drops aggregation state for iterations safely behind every worker's
// communication epoch. Under ASP workers drift apart, so the slowest
// worker's progress — not the caller's — bounds what can be discarded.
// Dropped workers no longer gate the barrier, so their frozen epoch is
// ignored.
func (ps *paramServer) gc() {
	min, seen := 0, false
	for _, wk := range ps.workersRef {
		if ps.dead != nil && ps.dead[wk.id] {
			continue
		}
		if ci := wk.drv.Iteration(); !seen || ci < min {
			min, seen = ci, true
		}
	}
	if !seen {
		return
	}
	ps.collect(min - 2)
}

// collect recycles the state of every iteration below cut.
func (ps *paramServer) collect(cut int) {
	if cut <= ps.base {
		return
	}
	k := min(cut-ps.base, len(ps.rounds))
	for _, st := range ps.rounds[:k] {
		if st != nil {
			ps.releaseRound(st)
		}
	}
	n := copy(ps.rounds, ps.rounds[k:])
	clear(ps.rounds[n:])
	ps.rounds = ps.rounds[:n]
	ps.base = cut
}

// dropWorker removes w from the BSP barrier and wakes every downlink,
// since pulls gated only on w's missing pushes become eligible.
func (ps *paramServer) dropWorker(w int) {
	if ps.dead[w] {
		return
	}
	ps.dead[w] = true
	for _, wk := range ps.workersRef {
		wk.pumpDownlink()
		wk.advanceForward()
	}
}
