package collective

import (
	"errors"
	"math"
	"math/rand"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"prophet/internal/drive"
	"prophet/internal/probe"
	"prophet/internal/transport"
)

// settleGoroutines fails the test unless the goroutine count falls back to
// baseline: exits nobody waits for (a test's own peer goroutines, done but
// not yet gone) are given a moment to finish.
func settleGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, baseline %d:\n%s", runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// runAllReduce drives one op on every peer concurrently and returns each
// peer's resulting data slice.
func runAllReduce(t *testing.T, f *Fabric, iter int, inputs [][]float64, onStep StepFunc) [][]float64 {
	t.Helper()
	W := f.workers
	out := make([][]float64, W)
	errs := make([]error, W)
	var wg sync.WaitGroup
	for w := 0; w < W; w++ {
		data := append([]float64(nil), inputs[w]...)
		out[w] = data
		wg.Add(1)
		go func(w int, data []float64) {
			defer wg.Done()
			errs[w] = f.Peer(w).AllReduce(iter, data, onStep)
		}(w, data)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	return out
}

func testMeanAndIdentity(t *testing.T, backend string, workers, n int) {
	t.Helper()
	f, err := New(backend, workers, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rng := rand.New(rand.NewSource(7))
	inputs := make([][]float64, workers)
	want := make([]float64, n)
	for w := range inputs {
		inputs[w] = make([]float64, n)
		for i := range inputs[w] {
			inputs[w][i] = rng.Float64()*2 - 1
		}
	}
	// The reference mean must mimic the wire's reduction order (segment
	// sums accumulate in one fixed worker order) only up to float
	// associativity; with a simple left-to-right sum the comparison below
	// is approximate, so keep it to a tolerance.
	for i := range want {
		s := 0.0
		for w := range inputs {
			s += inputs[w][i]
		}
		want[i] = s / float64(workers)
	}
	// Run several ops back to back: exercises buffer pooling and iter tags.
	var out [][]float64
	for it := 0; it < 3; it++ {
		out = runAllReduce(t, f, it, inputs, nil)
	}
	for w := 1; w < workers; w++ {
		for i := range out[0] {
			if out[w][i] != out[0][i] {
				t.Fatalf("%s: worker %d element %d = %v, worker 0 has %v (not bit-identical)",
					backend, w, i, out[w][i], out[0][i])
			}
		}
	}
	for i := range want {
		if d := out[0][i] - want[i]; d > 1e-12 || d < -1e-12 {
			t.Fatalf("%s: element %d = %v, want ~%v", backend, i, out[0][i], want[i])
		}
	}
}

func TestRingAllReduce(t *testing.T) {
	for _, w := range []int{2, 3, 4, 5, 8} {
		testMeanAndIdentity(t, "ring", w, 97)
	}
	// Seeded draws of the ring size, each at the element counts where the
	// segments change shape — exactly one element per segment, one over —
	// and at a random count that W need not divide.
	rng := rand.New(rand.NewSource(55))
	for draw := 0; draw < 4; draw++ {
		w := 2 + rng.Intn(8) // 2..9
		for _, n := range []int{w, w + 1, 1 + rng.Intn(300)} {
			testMeanAndIdentity(t, "ring", w, n)
		}
	}
}

func TestTreeAllReduce(t *testing.T) {
	for _, w := range []int{2, 4, 8} {
		testMeanAndIdentity(t, "tree", w, 97)
	}
	rng := rand.New(rand.NewSource(55))
	for draw := 0; draw < 4; draw++ {
		w := 2 << rng.Intn(4) // 2, 4, 8, 16
		for _, n := range []int{w, w + 1, 1 + rng.Intn(300)} {
			testMeanAndIdentity(t, "tree", w, n)
		}
	}
}

func TestShortData(t *testing.T) {
	// Fewer elements than workers: some ring segments are empty.
	testMeanAndIdentity(t, "ring", 8, 3)
	testMeanAndIdentity(t, "tree", 8, 3)
	// Seeded draws at the two extremes: one element in all, and one segment
	// left empty.
	rng := rand.New(rand.NewSource(55))
	for draw := 0; draw < 4; draw++ {
		ring, tree := 2+rng.Intn(8), 2<<rng.Intn(4)
		testMeanAndIdentity(t, "ring", ring, 1)
		testMeanAndIdentity(t, "ring", ring, ring-1)
		testMeanAndIdentity(t, "tree", tree, 1)
		testMeanAndIdentity(t, "tree", tree, tree-1)
	}
}

// runFused drives one fused op on every peer concurrently — inputs[w] are
// worker w's members — and returns each peer's resulting members.
func runFused(t *testing.T, f *Fabric, iter int, inputs [][][]float64) [][][]float64 {
	t.Helper()
	peers := make([]*Peer, f.workers)
	for w := range peers {
		peers[w] = f.Peer(w)
	}
	return runFusedOn(t, peers, iter, inputs)
}

// runFusedOn is runFused on the given peers, one per worker.
func runFusedOn(t *testing.T, peers []*Peer, iter int, inputs [][][]float64) [][][]float64 {
	t.Helper()
	out := make([][][]float64, len(peers))
	errs := make([]error, len(peers))
	var wg sync.WaitGroup
	for w := range out {
		for _, m := range inputs[w] {
			out[w] = append(out[w], append([]float64(nil), m...))
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = peers[w].AllReduceFused(iter, out[w], nil)
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	return out
}

// elementStep is the ring's or the tree's schedule as element ranges of one
// n-element member, computed afresh at every step with no boundary table:
// the oracle of the segment-index schedule and its boundaries.
func elementStep(backend string, W, id, n, k int) (dst, sLo, sHi, rLo, rHi int, reduce bool) {
	if backend == "ring" {
		reduce = k < W-1
		sendSeg := id - k
		if !reduce {
			sendSeg = id + 1 - (k - (W - 1))
		}
		sendSeg = (sendSeg%W + W) % W
		recvSeg := (sendSeg - 1 + W) % W
		return (id + 1) % W, sendSeg * n / W, (sendSeg + 1) * n / W, recvSeg * n / W, (recvSeg + 1) * n / W, reduce
	}
	levels := 0
	for 1<<levels < W {
		levels++
	}
	level, halving := k, k < levels
	if !halving {
		level = 2*levels - 1 - k
	}
	lo, hi, mask := 0, n, W>>1
	for ; level > 0; level, mask = level-1, mask>>1 {
		if mid := lo + (hi-lo)/2; id&mask != 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	mid := lo + (hi-lo)/2
	keepLo, keepHi, giveLo, giveHi := lo, mid, mid, hi
	if id&mask != 0 {
		keepLo, keepHi, giveLo, giveHi = mid, hi, lo, mid
	}
	if halving {
		return id ^ mask, giveLo, giveHi, keepLo, keepHi, true
	}
	return id ^ mask, keepLo, keepHi, giveLo, giveHi, false
}

// TestStepsMatchElementSchedule: a step in segment indices, read through a
// member's boundaries, names exactly the element ranges, partner and
// reduce-or-copy that recomputing the schedule from the member's length at
// every step does — for every peer and step, ring W = 2…9 and 31, 32, tree
// W = 2…32, lengths 0…70 and a few large ones.
func TestStepsMatchElementSchedule(t *testing.T) {
	lengths := []int{1000, 1733, 4097}
	for n := 0; n <= 70; n++ {
		lengths = append(lengths, n)
	}
	type backend struct {
		name string
		W    int
	}
	var cases []backend
	for W := 2; W <= 9; W++ {
		cases = append(cases, backend{"ring", W})
	}
	cases = append(cases, backend{"ring", 31}, backend{"ring", 32})
	for W := 2; W <= 32; W *= 2 {
		cases = append(cases, backend{"tree", W})
	}
	for _, c := range cases {
		be, err := drive.BackendByName(c.name)
		if err != nil {
			t.Fatal(err)
		}
		stepOf, fill := ringStep(c.W), ringBounds
		if c.name == "tree" {
			stepOf, fill = treeStep(c.W), halvingBounds
		}
		b := make([]int, c.W+1)
		for _, n := range lengths {
			fill(b, n)
			for id := 0; id < c.W; id++ {
				for k := 0; k < be.Steps(c.W); k++ {
					st := stepOf(id, k)
					dst, sLo, sHi, rLo, rHi, reduce := elementStep(c.name, c.W, id, n, k)
					if st.dst != dst || b[st.sLo] != sLo || b[st.sHi] != sHi || b[st.rLo] != rLo || b[st.rHi] != rHi || st.reduce != reduce {
						t.Fatalf("%s W=%d n=%d peer %d step %d: to %d send [%d,%d) recv [%d,%d) reduce %v, want to %d send [%d,%d) recv [%d,%d) reduce %v",
							c.name, c.W, n, id, k, st.dst, b[st.sLo], b[st.sHi], b[st.rLo], b[st.rHi], st.reduce, dst, sLo, sHi, rLo, rHi, reduce)
					}
				}
			}
		}
	}
}

// TestPeerScheduleFollowsOpShape: a Peer reuses its boundary and segment
// scratch across ops, so ops of changing shape on the same Peers — the same
// lengths again, fewer members, a longer member, the lengths reordered, then
// the first shape again — must leave exactly the bits fresh Peers do.
func TestPeerScheduleFollowsOpShape(t *testing.T) {
	const W = 4
	for _, backend := range []string{"ring", "tree"} {
		kept, err := New(backend, W, 0, Options{})
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := New(backend, W, 0, Options{})
		if err != nil {
			t.Fatal(err)
		}
		peers := make([]*Peer, W)
		for w := range peers {
			peers[w] = kept.Peer(w)
		}
		for iter, sizes := range [][]int{{10, 3}, {10, 3}, {7}, {10, 4}, {3, 10}, {10, 3}} {
			inputs := make([][][]float64, W)
			for w := range inputs {
				for m, n := range sizes {
					member := make([]float64, n)
					for i := range member {
						member[i] = float64(1+w) / float64(3+m+i)
					}
					inputs[w] = append(inputs[w], member)
				}
			}
			got, want := runFusedOn(t, peers, iter, inputs), runFused(t, fresh, iter, inputs)
			for w := range want {
				for m := range want[w] {
					for i := range want[w][m] {
						if math.Float64bits(got[w][m][i]) != math.Float64bits(want[w][m][i]) {
							t.Fatalf("%s op %d sizes %v: worker %d member %d element %d = %v on kept peers, %v on fresh ones",
								backend, iter, sizes, w, m, i, got[w][m][i], want[w][m][i])
						}
					}
				}
			}
		}
		for _, f := range []*Fabric{kept, fresh} {
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestFusedMatchesOneByOne is the property per-tensor segmentation buys:
// over seeded draws of the backend, the worker count and the member sizes —
// empty members, members shorter than the ring, one element per segment and
// one over — a fused op leaves every member, on every worker, with exactly
// the bits AllReduce leaves when the members run one op each.
func TestFusedMatchesOneByOne(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for draw := 0; draw < 24; draw++ {
		backend, W := "ring", 2+rng.Intn(8) // 2..9
		if draw%2 == 1 {
			backend, W = "tree", 2<<rng.Intn(4) // 2, 4, 8, 16
		}
		sizes := make([]int, 1+rng.Intn(6))
		for m := range sizes {
			sizes[m] = []int{0, 1 + rng.Intn(W), W, W + 1, 1 + rng.Intn(300)}[rng.Intn(5)]
		}
		inputs := make([][][]float64, W)
		for w := range inputs {
			inputs[w] = make([][]float64, len(sizes))
			for m, n := range sizes {
				inputs[w][m] = make([]float64, n)
				for i := range inputs[w][m] {
					inputs[w][m][i] = rng.Float64()*2 - 1
				}
			}
		}
		f, err := New(backend, W, 0, Options{})
		if err != nil {
			t.Fatal(err)
		}
		fused := runFused(t, f, 0, inputs)
		for m := range sizes {
			one := make([][]float64, W)
			for w := range one {
				one[w] = inputs[w][m]
			}
			for w, want := range runAllReduce(t, f, 1+m, one, nil) {
				for i := range want {
					if fused[w][m][i] != want[i] {
						t.Fatalf("%s W=%d sizes %v: worker %d member %d element %d = %v fused, %v alone",
							backend, W, sizes, w, m, i, fused[w][m][i], want[i])
					}
				}
			}
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFusedLockstepViolation: one peer's group differs from the others' in
// one member's length, so some step's fused frame is not the length its
// receiver's schedule says. Every peer must come back with that attributed
// error — nobody hangs, nobody folds a misaligned frame in.
func TestFusedLockstepViolation(t *testing.T) {
	for _, backend := range []string{"ring", "tree"} {
		const W = 4
		f, err := New(backend, W, 0, Options{})
		if err != nil {
			t.Fatal(err)
		}
		errs := make(chan error, W)
		for w := 0; w < W; w++ {
			sizes := []int{16, 5, 9}
			if w == 2 {
				sizes[1] = 6
			}
			go func(w int) {
				members := make([][]float64, len(sizes))
				for m, n := range sizes {
					members[m] = make([]float64, n)
				}
				errs <- f.Peer(w).AllReduceFused(0, members, nil)
			}(w)
		}
		for w := 0; w < W; w++ {
			select {
			case err := <-errs:
				if err == nil || !strings.HasPrefix(err.Error(), "collective: ") || !strings.Contains(err.Error(), "lockstep violated") {
					t.Fatalf("%s: a peer returned %v, want the attributed lockstep error", backend, err)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("%s: %d of %d peers still blocked on a group that cannot line up", backend, W-w, W)
			}
		}
		if err := f.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	}
}

func TestStepSpans(t *testing.T) {
	f, err := New("ring", 4, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var mu sync.Mutex
	var gotSteps []int
	var gotBytes float64
	inputs := make([][]float64, 4)
	for w := range inputs {
		inputs[w] = make([]float64, 64)
	}
	runAllReduce(t, f, 0, inputs, func(step, steps int, bytes float64, start, end float64) {
		if steps != 6 {
			t.Errorf("steps = %d, want 6", steps)
		}
		if end < start {
			t.Errorf("step %d: end %v before start %v", step, end, start)
		}
		mu.Lock()
		gotSteps = append(gotSteps, step)
		gotBytes += bytes
		mu.Unlock()
	})
	// 4 workers × 6 steps, each moving 64/4 elements = 128 bytes.
	if len(gotSteps) != 24 {
		t.Fatalf("observed %d steps, want 24", len(gotSteps))
	}
	if want := float64(4 * 6 * 128); gotBytes != want {
		t.Fatalf("observed %v bytes, want %v", gotBytes, want)
	}
}

func TestRejectsBadConfigs(t *testing.T) {
	cases := []struct {
		backend string
		workers int
	}{
		{"ps", 4},         // not a collective schedule
		{"ring", 1},       // needs peers
		{"tree", 6},       // halving-doubling needs a power of two
		{"warp-speed", 4}, // unknown backend
	}
	for _, c := range cases {
		if _, err := New(c.backend, c.workers, 0, Options{}); err == nil {
			t.Errorf("New(%q, %d) accepted, want error", c.backend, c.workers)
		}
	}
}

func TestCloseUnblocksPeers(t *testing.T) {
	f, err := New("ring", 3, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Only one peer enters the op: it blocks waiting for its neighbor's
	// chunk until Close fails the fabric.
	done := make(chan error, 1)
	go func() {
		done <- f.Peer(0).AllReduce(0, make([]float64, 30), nil)
	}()
	if err := f.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := <-done; !errors.Is(err, net.ErrClosed) {
		t.Fatalf("blocked peer got %v, want net.ErrClosed", err)
	}
	// Double Close stays clean.
	if err := f.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestMeteredFabric(t *testing.T) {
	m := probe.NewMetrics()
	f, err := New("ring", 2, 1e9, Options{Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	inputs := [][]float64{make([]float64, 32), make([]float64, 32)}
	runAllReduce(t, f, 0, inputs, nil)
	if tx := m.Counter("transport_collective_tx_bytes").Value(); tx == 0 {
		t.Fatal("metered fabric recorded no tx bytes")
	}
	// At most one pipe hand-off per frame, counted rather than timed: a
	// chunk's header and its 128-byte payload are one Write on the send end
	// — two peers' chunks of a step may share one, the mux combines
	// concurrent senders — and each Write must be one Read on the receive
	// end (the +1 is the demux loop's next, parked, read).
	writes, reads := m.Counter("transport_collective_writes").Value(), m.Counter("transport_collective_reads").Value()
	if writes < 2 || writes > 4 || reads > writes+1 {
		t.Fatalf("%d writes (want 2–4: 2 peers x 2 steps, a step's two chunks possibly combined) took %d reads on the receive end, want at most one each", writes, reads)
	}
}

// ringOps runs persistent peer goroutines on f, so that an op costs no
// goroutine start: each call of the returned function plays one whole op
// (every peer all-reduces members of the given sizes — through AllReduce
// when there is one, fused when there are several) and reports the peers'
// errors.
func ringOps(t *testing.T, f *Fabric, sizes ...int) func() []error {
	t.Helper()
	W := f.workers
	start := make([]chan int, W)
	done := make(chan struct{}, W)
	errs := make([]error, W)
	var peers sync.WaitGroup
	for w := 0; w < W; w++ {
		start[w] = make(chan int)
		peers.Add(1)
		go func(w int) {
			defer peers.Done()
			peer, members := f.Peer(w), make([][]float64, len(sizes))
			for m, n := range sizes {
				members[m] = make([]float64, n)
			}
			for iter := range start[w] {
				for _, data := range members {
					for i := range data {
						data[i] = float64(w + i)
					}
				}
				if len(members) == 1 {
					errs[w] = peer.AllReduce(iter, members[0], nil)
				} else {
					errs[w] = peer.AllReduceFused(iter, members, nil)
				}
				done <- struct{}{}
			}
		}(w)
	}
	t.Cleanup(func() {
		for _, ch := range start {
			close(ch)
		}
		peers.Wait() // leave no goroutine behind for the next test's baseline
	})
	iter := 0
	return func() []error {
		for _, ch := range start {
			ch <- iter
		}
		for range start {
			<-done
		}
		iter++
		return errs
	}
}

// poolCases are the ops the pool-accounting tests play on a W=4 ring: one
// tensor through AllReduce, and a fused group with an empty member and one
// shorter than the ring. frame is the payload pool's size class every chunk
// frame of the op falls in (128 bytes exactly; 168 or 176 bytes, so 256),
// badStep the step TestChunkBuffersReturnOnFailure breaks: the first, and
// one with steps already folded in.
var poolCases = []struct {
	name    string
	sizes   []int
	frame   int
	badStep uint32
}{
	{"one tensor", []int{64}, 128, 0},
	{"fused", []int{64, 0, 3, 20}, 256, 2},
}

// seedPool puts k fresh buffers of n bytes into p — more than an op can have
// in flight, so from here on the op never misses the pool and circulates
// these buffers only — and returns them by identity.
func seedPool(p *transport.PayloadPool, n, k int) map[*byte]bool {
	seeds := make(map[*byte]bool, k)
	for i := 0; i < k; i++ {
		b := make([]byte, n)
		seeds[&b[0]] = true
		p.Put(b)
	}
	return seeds
}

// wantPooled fails the test unless every seeded buffer is back in p: the
// pool hands out what it holds before it allocates, so len(seeds) Gets of n
// bytes must return exactly the seeds.
func wantPooled(t *testing.T, p *transport.PayloadPool, n int, seeds map[*byte]bool) {
	t.Helper()
	bufs := make([][]byte, len(seeds))
	missing := 0
	for i := range bufs {
		bufs[i] = p.Get(n)
		if !seeds[&bufs[i][0]] {
			missing++
		}
	}
	for _, b := range bufs {
		p.Put(b)
	}
	if missing != 0 {
		t.Fatalf("payload pool is %d of %d %d-byte buffers short: a chunk's buffer leaked", missing, len(seeds), n)
	}
}

// TestRingSteadyStateAllocs pins the package comment's claim: after a
// warm-up, a ring op allocates nothing — not in the senders' batches, not in
// the mux's read path, not in the inboxes, not in the receiving peers'
// reduce — and every payload buffer is back in the fabric's pool between
// ops, so handing ownership from the demux loop to the inbox to the peer
// leaks nothing.
func TestRingSteadyStateAllocs(t *testing.T) {
	const W, seeded = 4, 64
	for _, tc := range poolCases {
		t.Run(tc.name, func(t *testing.T) {
			f, err := New("ring", W, 0, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			seeds := seedPool(f.payloads, tc.frame, seeded)
			op := ringOps(t, f, tc.sizes...)
			check := func() {
				for w, err := range op() {
					if err != nil {
						t.Fatalf("worker %d: %v", w, err)
					}
				}
			}
			for i := 0; i < 8; i++ { // grow the batch freelist and the inboxes
				check()
			}
			// AllocsPerRun reports whole allocations per op averaged over the runs,
			// so a batch or inbox slot first needed late rounds down to the 0 it is.
			if allocs := testing.AllocsPerRun(200, check); allocs != 0 && !raceEnabled {
				t.Fatalf("a warm W=%d ring op over %v floats allocates %v times, want 0", W, tc.sizes, allocs)
			}
			wantPooled(t, f.payloads, tc.frame, seeds)
		})
	}
}

// TestChunkBuffersReturnOnFailure: the two places a chunk's buffer can be
// stranded once the inbox owns it — the length-mismatch error path, which
// takes the chunk and fails, and Close with chunks nobody will take still
// queued — both hand it back to the pool, when the op fails at its first
// step and when it fails mid-op with steps already folded in.
func TestChunkBuffersReturnOnFailure(t *testing.T) {
	const W, seeded = 4, 64
	for _, tc := range poolCases {
		t.Run(tc.name, func(t *testing.T) {
			f, err := New("ring", W, 0, Options{})
			if err != nil {
				t.Fatal(err)
			}
			seeds := seedPool(f.payloads, tc.frame, seeded)
			small := seedPool(f.payloads, 64, seeded) // the class the 8-byte bad chunk draws from
			// Queued ahead of the real chunks: a one-float chunk under a tag peer
			// 3 will await, and a well-formed chunk of an op that never runs.
			if err := f.send.SendFloats(3, transport.Chunk, 0, tc.badStep, make([]float64, 1)); err != nil {
				t.Fatal(err)
			}
			if err := f.send.SendFloats(1, transport.Chunk, 9, 0, make([]float64, tc.frame/8)); err != nil {
				t.Fatal(err)
			}
			failed := 0
			for _, err := range ringOps(t, f, tc.sizes...)() {
				if err != nil {
					failed++
				}
			}
			if failed != W {
				t.Fatalf("%d of %d peers failed on a wrong-length chunk, want all", failed, W)
			}
			if err := f.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			wantPooled(t, f.payloads, tc.frame, seeds)
			wantPooled(t, f.payloads, 64, small)
		})
	}
}

// TestFailWakesEveryInbox: the lost wake-up per-inbox waiting could
// introduce. At W=32 every peer waits on its own inbox for a chunk that
// never comes while fail races a concurrent deliver of unrelated chunks to
// every other inbox (a delivery's wake-up after the error is published
// would rescue a waiter fail had missed, so the odd inboxes get none);
// every waiter must come back with the one published error, whether fail
// found it parked or between its error check and its park.
// TestBadFrameUnblocksEveryPeer's W=4 would not catch a missed inbox.
func TestFailWakesEveryInbox(t *testing.T) {
	const W = 32
	boom := errors.New("collective: boom")
	for round := 0; round < 50; round++ {
		f, err := New("ring", W, 0, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got := make(chan error, W)
		var entered, exited sync.WaitGroup
		entered.Add(W)
		exited.Add(W + 1)
		for w := 0; w < W; w++ {
			go func(w int) {
				defer exited.Done()
				entered.Done()
				_, err := f.recvChunk(w, 0, 0)
				got <- err
			}(w)
		}
		entered.Wait()
		if round%2 == 1 { // odd rounds: give the waiters time to park
			time.Sleep(time.Millisecond)
		}
		go func() {
			defer exited.Done()
			for w := 0; w < W; w += 2 { // never awaited: iter 7
				frame := transport.Frame{Type: transport.Chunk, Iter: 7, Payload: f.payloads.Get(8)}
				if err := f.deliver(uint32(w), &frame); err != nil {
					t.Error(err)
				}
			}
		}()
		f.fail(boom)
		f.fail(errors.New("collective: a later error")) // only the first is published
		for w := 0; w < W; w++ {
			select {
			case err := <-got:
				if !errors.Is(err, boom) {
					t.Fatalf("round %d: a waiter woke with %v, want the published error", round, err)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("round %d: %d of %d waiters still parked after fail", round, W-w, W)
			}
		}
		exited.Wait()
		if err := f.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	}
}

// TestBadFrameUnblocksEveryPeer: a malformed frame on the wire ends the
// demux loop, and the loop's exit must take the wire down with it — the
// peers below park in conn.Write (nobody reads the pipe any more) and used
// to stay there until somebody outside called Close. Every AllReduce must
// return an error with no external Close.
func TestBadFrameUnblocksEveryPeer(t *testing.T) {
	for name, bad := range map[string]*transport.Frame{
		"short chunk": {Type: transport.Chunk, Payload: make([]byte, 7)},
		"wrong type":  {Type: transport.Push, Payload: make([]byte, 8)},
	} {
		t.Run(name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			const W = 4
			f, err := New("ring", W, 0, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := f.send.SendFrame(2, bad); err != nil {
				t.Fatal(err)
			}
			errs := make(chan error, W)
			for w := 0; w < W; w++ {
				go func(w int) { errs <- f.Peer(w).AllReduce(0, make([]float64, 64), nil) }(w)
			}
			for w := 0; w < W; w++ {
				select {
				case err := <-errs:
					if err == nil {
						t.Fatal("AllReduce succeeded over a failed fabric")
					}
				case <-time.After(5 * time.Second):
					t.Fatal("a peer is still blocked after the demux loop failed")
				}
			}
			if err := f.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			settleGoroutines(t, baseline)
		})
	}
}

// closeErrConn reports a chosen error from Close.
type closeErrConn struct {
	net.Conn
	err error
}

func (c closeErrConn) Close() error {
	c.Conn.Close()
	return c.err
}

// TestCloseKeepsRealErrors: an end that was already closed is not news, but
// it must not hide a real failure to close the other end.
func TestCloseKeepsRealErrors(t *testing.T) {
	boom := errors.New("boom")
	a, b := transport.Pipe(0, 0)
	f, err := Over("ring", 2, closeErrConn{a, net.ErrClosed}, closeErrConn{b, boom})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); !errors.Is(err, boom) || errors.Is(err, net.ErrClosed) {
		t.Fatalf("Close = %v, want exactly the real error", err)
	}
}

// TestCloseWaitsForReaders: after Close no fabric goroutine is left, idle
// fabric or mid-op.
func TestCloseWaitsForReaders(t *testing.T) {
	for _, backend := range []string{"ring", "tree"} {
		// The baseline is the count once it has stopped falling: a goroutine
		// of an earlier test that has signalled its exit but not yet left
		// would otherwise net the fabric's one reader to zero.
		baseline := runtime.NumGoroutine()
		for i := 0; i < 50; i++ {
			time.Sleep(time.Millisecond)
			baseline = min(baseline, runtime.NumGoroutine())
		}
		f, err := New(backend, 4, 0, Options{})
		if err != nil {
			t.Fatal(err)
		}
		// The fabric is one reader goroutine: the receive side's demux loop.
		if n := runtime.NumGoroutine() - baseline; n != 1 {
			t.Fatalf("%s fabric runs %d goroutines, want 1", backend, n)
		}
		inputs := make([][]float64, 4)
		for w := range inputs {
			inputs[w] = make([]float64, 16)
		}
		runAllReduce(t, f, 0, inputs, nil)
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		settleGoroutines(t, baseline)
	}
}
