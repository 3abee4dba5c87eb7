package cluster

import (
	"math"
	"math/rand"
	"testing"

	"prophet/internal/model"
	"prophet/internal/netsim"
)

// The PS keeps its per-iteration rounds in a window that gc advances. Its
// contract is a map's: state(k) is k's accumulated pushes since k was last
// collected, zeroed on first touch, and collect(cut) forgets every k < cut.
// Random scripts of pushes, reads and collections (cuts need not be
// monotone, so a touch below the window's base happens often) must agree
// with that map on every read.
func TestRoundsBehaveAsAMap(t *testing.T) {
	const workers, grads, iters = 3, 4, 12
	rng := rand.New(rand.NewSource(1))
	ps := newParamServer(workers, grads, make([]float64, grads))
	ref := map[int][][]float64{}
	refState := func(k int) [][]float64 {
		if ref[k] == nil {
			ref[k] = make([][]float64, workers)
			for w := range ref[k] {
				ref[k][w] = make([]float64, grads)
			}
		}
		return ref[k]
	}
	for step := 0; step < 20000; step++ {
		k := rng.Intn(iters)
		switch rng.Intn(4) {
		case 0, 1:
			w, g, v := rng.Intn(workers), rng.Intn(grads), float64(1+rng.Intn(9))
			ps.state(k).pushed[w][g] += v
			refState(k)[w][g] += v
		case 2:
			got, want := ps.state(k).pushed, refState(k)
			for w := range want {
				for g := range want[w] {
					if got[w][g] != want[w][g] {
						t.Fatalf("step %d: round %d pushed[%d][%d] = %v, map says %v", step, k, w, g, got[w][g], want[w][g])
					}
				}
			}
		case 3:
			ps.collect(k)
			for j := range ref {
				if j < k {
					delete(ref, j)
				}
			}
		}
	}
	if len(ps.rounds) > iters {
		t.Fatalf("window holds %d rounds for %d iterations", len(ps.rounds), iters)
	}
}

// A straggler on a slow link that crashes with DetectDelay 0 is dropped at
// once, and the survivors run ahead while its queued pushes still drain:
// those pushes, and the pulls they mirror, land on rounds gc has already
// collected. Both barriers must finish the run without it.
//
// The straggler's late pulls are pinned too. gc keeps two rounds behind
// the slowest survivor's epoch, so iteration 0's round lives until the
// first gc (every pull landing runs one) after both survivors began
// iteration 3's backward pass. Under BSP the straggler is served only
// while that round lives: the survivors' pushes cover its pulls, and a
// round reopened after collection is zeroed and nobody pushes to it again.
// So it is served at least once after the round would die under a gc one
// round tighter (collect(min−1)), and never after it does die, even for a
// pull found covered before — covered must rescan a reopened round. Under
// ASP it serves itself from its own pushes to the end of its drain, though
// the reopened rounds forget what it pushed before, so in both modes it
// pulls back less than it pushed.
func TestDroppedStragglerDrainsBehindTheWindow(t *testing.T) {
	for _, asp := range []bool{false, true} {
		cfg := smallConfig(t, FIFOFactory(model.ResNet18()), 5)
		cfg.Workers, cfg.Iterations, cfg.ASP, cfg.RecordLinks = 3, 10, asp, true
		cfg.Uplink = func(w int) netsim.LinkConfig {
			g := 5.0
			if w == 1 {
				g /= 20
			}
			return netsim.DefaultLinkConfig(netsim.Const(netsim.Gbps(g)))
		}
		cfg.Faults = []WorkerFault{{Worker: 1, AtIteration: 1}}
		cfg.FaultPolicy = FaultDrop
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("asp=%v: %v", asp, err)
		}
		if len(res.Dropped) != 1 || res.Dropped[0] != 1 || res.Iters.Count() != cfg.Iterations {
			t.Fatalf("asp=%v: dropped %v after %d iterations, want [1] after %d", asp, res.Dropped, res.Iters.Count(), cfg.Iterations)
		}
		// The straggler's pushes are all of iteration 0, whose round gc
		// collects once the survivors reach iteration 3; its uplink is
		// still busy after their last iteration.
		up := res.UpRecords[1]
		if last, done := up[len(up)-1].End, res.Iters.Ends[cfg.Iterations-1]; last <= done {
			t.Fatalf("asp=%v: straggler drained at %v, before the survivors finished at %v", asp, last, done)
		}
		down := res.DownRecords[1]
		if len(down) == 0 {
			t.Fatalf("asp=%v: the straggler pulled nothing", asp)
		}
		if pulled, pushed := recordBytes(down), recordBytes(up); pulled >= pushed {
			t.Fatalf("asp=%v: the straggler pulled %v of the %v bytes it pushed, want less", asp, pulled, pushed)
		}
		if asp {
			if last, done := down[len(down)-1].Start, res.Iters.Ends[cfg.Iterations-1]; last <= done {
				t.Fatalf("asp=%v: the straggler's last pull started at %v, before the survivors finished at %v", asp, last, done)
			}
			continue
		}
		n := cfg.Model.NumGradients()
		// gcFrom is the first gc at which the survivors' epoch has reached
		// iter: both began its backward pass and a pull landed since.
		gcFrom := func(iter int) float64 {
			var epoch float64
			for _, w := range []int{0, 2} {
				epoch = max(epoch, res.GPU[w].Intervals()[iter*2*n+n].Start)
			}
			at := math.Inf(1)
			for _, recs := range res.DownRecords {
				for _, r := range recs {
					if r.End >= epoch {
						at = min(at, r.End)
					}
				}
			}
			return at
		}
		dies, tighter := gcFrom(3), gcFrom(2)
		if last := down[len(down)-1].Start; last > dies || last <= tighter {
			t.Fatalf("straggler's last pull started at %v, want it after %v (a gc one round tighter) and by %v (its round collected)",
				last, tighter, dies)
		}
	}
}
