package drive_test

import (
	"flag"
	"math"
	"math/rand"
	"testing"

	"prophet/internal/drive"
	"prophet/internal/strategy"
)

var (
	backendSeed   = flag.Int64("backendseed", 1, "seed for the backend property trials")
	backendTrials = flag.Int("backendtrials", 300, "random trials per backend property test")
)

// relClose reports |a−b| ≤ tol relative to the magnitude of b.
func relClose(a, b, tol float64) bool {
	scale := math.Abs(b)
	if scale < 1 {
		scale = 1
	}
	return math.Abs(a-b) <= tol*scale
}

// TestBackendRegistry pins the registry surface: sorted names, unknown-name
// error, ps as the single-step identity transport.
func TestBackendRegistry(t *testing.T) {
	names := drive.BackendNames()
	want := []string{"ps", "ring", "tree"}
	if len(names) != len(want) {
		t.Fatalf("BackendNames() = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("BackendNames() = %v, want %v", names, want)
		}
	}
	if _, err := drive.BackendByName("quantum"); err == nil {
		t.Fatal("unknown transport accepted")
	}
	ps, err := drive.BackendByName("ps")
	if err != nil {
		t.Fatal(err)
	}
	if ps.Steps(7) != 1 {
		t.Fatalf("ps steps = %d", ps.Steps(7))
	}
	chunks := ps.ChunkBytes(5e6, 7, nil)
	if len(chunks) != 1 || chunks[0] != 5e6 {
		t.Fatalf("ps chunks = %v", chunks)
	}
}

// TestRingChunkingProperties runs seedable random trials over (payload,
// ring size) and asserts the ring's wire shape: 2(W−1) equal chunks of
// s/W and the closed-form per-link volume 2(W−1)/W·s.
func TestRingChunkingProperties(t *testing.T) {
	ring, err := drive.BackendByName("ring")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(*backendSeed))
	for trial := 0; trial < *backendTrials; trial++ {
		s := math.Exp(rng.Float64()*18) + 1 // 1 B … ~65 MB, log-uniform
		w := 2 + rng.Intn(63)               // 2 … 64
		chunks := ring.ChunkBytes(s, w, nil)
		if len(chunks) != ring.Steps(w) || ring.Steps(w) != 2*(w-1) {
			t.Fatalf("trial %d: %d chunks, Steps=%d, want %d", trial, len(chunks), ring.Steps(w), 2*(w-1))
		}
		wire := 0.0
		for step, ch := range chunks {
			if !relClose(ch, s/float64(w), 1e-12) {
				t.Fatalf("trial %d: step %d chunk %v, want s/W=%v", trial, step, ch, s/float64(w))
			}
			wire += ch
		}
		if !relClose(wire, 2*float64(w-1)/float64(w)*s, 1e-9) {
			t.Fatalf("trial %d: wire volume %v, want 2(W−1)/W·s=%v", trial, wire, 2*float64(w-1)/float64(w)*s)
		}
	}
}

// TestRingDegeneratesAtOneWorker guards the W=1 edge: a single worker has
// nothing to reduce, so the collective backends take zero wire steps.
func TestRingDegeneratesAtOneWorker(t *testing.T) {
	for _, name := range []string{"ring", "tree"} {
		be, err := drive.BackendByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{0, 1} {
			if got := be.Steps(w); got != 0 {
				t.Errorf("%s: Steps(%d) = %d, want 0", name, w, got)
			}
			if chunks := be.ChunkBytes(7e6, w, nil); len(chunks) != 0 {
				t.Errorf("%s: ChunkBytes at W=%d = %v, want none", name, w, chunks)
			}
		}
	}
}

// TestTreeMatchesRingTotals asserts the tree backend is ring-equivalent in
// total per-link volume (both are bandwidth-optimal: 2(W−1)/W·s) while
// taking only 2⌈log2 W⌉ steps, with a symmetric halving/doubling schedule.
func TestTreeMatchesRingTotals(t *testing.T) {
	ring, _ := drive.BackendByName("ring")
	tree, err := drive.BackendByName("tree")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(*backendSeed + 1))
	for trial := 0; trial < *backendTrials; trial++ {
		s := math.Exp(rng.Float64()*18) + 1
		w := 2 + rng.Intn(63)
		levels := 0
		for p := 1; p < w; p *= 2 {
			levels++
		}
		chunks := tree.ChunkBytes(s, w, nil)
		if len(chunks) != tree.Steps(w) || tree.Steps(w) != 2*levels {
			t.Fatalf("trial %d: W=%d: %d chunks, Steps=%d, want 2⌈log2 W⌉=%d",
				trial, w, len(chunks), tree.Steps(w), 2*levels)
		}
		treeWire := 0.0
		for i, ch := range chunks {
			if ch <= 0 {
				t.Fatalf("trial %d: W=%d: non-positive chunk %v at step %d", trial, w, ch, i)
			}
			if mirror := chunks[len(chunks)-1-i]; !relClose(ch, mirror, 1e-12) {
				t.Fatalf("trial %d: W=%d: halving/doubling asymmetry at step %d: %v vs %v",
					trial, w, i, ch, mirror)
			}
			treeWire += ch
		}
		ringWire := 0.0
		for _, ch := range ring.ChunkBytes(s, w, nil) {
			ringWire += ch
		}
		if !relClose(treeWire, ringWire, 1e-9) {
			t.Fatalf("trial %d: W=%d: tree wire %v != ring wire %v", trial, w, treeWire, ringWire)
		}
	}
}

// coverTx drives random release patterns through the Driver on a collective
// backend and accounts every gradient byte the chunk schedules imply.
type coverTx struct {
	t       *testing.T
	drv     *drive.Driver
	be      drive.Backend
	workers int
	sizes   []float64
	sent    []float64
}

func (c *coverTx) Busy(int) bool { return false }

func (c *coverTx) Start(s *drive.Send) {
	if got, want := len(c.be.ChunkBytes(s.Msg.Bytes, c.workers, nil)), c.be.Steps(c.workers); got != want {
		c.t.Fatalf("chunk schedule has %d steps, want %d", got, want)
	}
	for _, rg := range s.Ranges {
		if math.Abs(rg.Off-c.sent[rg.Grad]) > 1e-6 {
			c.t.Fatalf("gradient %d: offset %v, want %v", rg.Grad, rg.Off, c.sent[rg.Grad])
		}
		c.sent[rg.Grad] += rg.Bytes
	}
	c.drv.Completed(s.Lane, 0)
}

// TestRingCoversEveryGradientByte is the driver-level coverage property:
// random gradient sizes scheduled by a slicing strategy (p3) onto the ring
// backend ship every byte of every gradient exactly once per iteration —
// contiguous offsets, totals equal to the sizes, no byte lost to chunking.
func TestRingCoversEveryGradientByte(t *testing.T) {
	ring, _ := drive.BackendByName("ring")
	rng := rand.New(rand.NewSource(*backendSeed + 2))
	for trial := 0; trial < *backendTrials/10; trial++ {
		n := 3 + rng.Intn(20)
		sizes := make([]float64, n)
		for i := range sizes {
			sizes[i] = math.Exp(rng.Float64()*16) + 64
		}
		sched, err := strategy.New("p3", strategy.Params{Sizes: sizes})
		if err != nil {
			t.Fatal(err)
		}
		tx := &coverTx{t: t, be: ring, workers: 2 + rng.Intn(7), sizes: sizes, sent: make([]float64, n)}
		drv := drive.New(sched, tx, 1, n, nil)
		tx.drv = drv
		drv.BeginIteration(0)
		for g := n - 1; g >= 0; g-- {
			drv.Generate(g, float64(n-g))
			if rng.Intn(3) == 0 {
				drv.Pump(float64(n - g))
			}
		}
		drv.Pump(float64(n + 1))
		for g, b := range tx.sent {
			if math.Abs(b-sizes[g]) > 1e-6 {
				t.Fatalf("trial %d: gradient %d shipped %v of %v bytes", trial, g, b, sizes[g])
			}
		}
	}
}

// TestChunkBytesReusesDst pins the append contract the hot path relies on:
// passing a recycled dst slice must not allocate a fresh backing array when
// capacity suffices.
func TestChunkBytesReusesDst(t *testing.T) {
	ring, _ := drive.BackendByName("ring")
	buf := make([]float64, 0, 16)
	out := ring.ChunkBytes(9e6, 5, buf)
	if len(out) != 8 {
		t.Fatalf("len = %d", len(out))
	}
	if &out[0] != &buf[:1][0] {
		t.Fatal("ChunkBytes reallocated despite sufficient capacity")
	}
}
