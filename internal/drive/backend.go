package drive

import (
	"fmt"
	"math"
	"sort"
)

// Backend describes how one dispatched scheduler message moves its bytes
// once a lane accepts it — the pluggable transport dimension of the drive
// layer. The Driver itself is transport-agnostic: it owns the fetch gate,
// byte offsets, and probe stream for *any* backend; the backend only
// answers the wire-shape questions a Transmitter needs to play a message
// out:
//
//   - The PS backend ships the payload in a single transfer per lane (the
//     paper's push path): 1 step carrying the whole message.
//   - The ring backend is Horovod-style ring all-reduce: an s-byte message
//     across W workers is cut into W segments of s/W bytes and reduced in
//     2(W−1) lockstep steps (W−1 reduce-scatter + W−1 allgather), every
//     link moving one s/W chunk per step. Per-link wire volume is
//     2(W−1)/W·s, but each step pays the full per-message overhead — which
//     is why a strategy's block assembly (replacing the static Horovod
//     FusionBytes threshold) matters even more here than on the PS path.
//   - The tree backend is an idealized halving-doubling collective: the
//     same 2(W−1)/W·s per-link volume as the ring (the bandwidth-optimal
//     total), but concentrated into 2⌈log2 W⌉ steps with geometrically
//     shrinking chunks — fewer fixed per-step overheads, larger bursts.
//
// A scheduler decision Record therefore maps 1:1 onto one collective
// operation: the message's pieces are the fused tensors, and the backend
// decides how many chunk steps that fusion buffer costs on the wire.
type Backend interface {
	// Name is the registry name ("ps", "ring", "tree").
	Name() string
	// Steps returns how many serialized wire steps one message takes
	// across `workers` workers. A single worker needs no communication:
	// every collective backend degenerates to 0 steps at W=1.
	Steps(workers int) int
	// ChunkBytes appends the per-step wire payload of an s-byte message to
	// dst and returns it: len == Steps(workers), and the sum is the
	// per-link wire volume of the whole operation.
	ChunkBytes(s float64, workers int, dst []float64) []float64
}

// psBackend is the parameter-server push path: one transfer per message.
type psBackend struct{}

func (psBackend) Name() string          { return "ps" }
func (psBackend) Steps(workers int) int { return 1 }

func (psBackend) ChunkBytes(s float64, workers int, dst []float64) []float64 {
	return append(dst, s)
}

// ringBackend is Horovod-style ring all-reduce.
type ringBackend struct{}

func (ringBackend) Name() string { return "ring" }

func (ringBackend) Steps(workers int) int {
	if workers <= 1 {
		return 0
	}
	return 2 * (workers - 1)
}

func (r ringBackend) ChunkBytes(s float64, workers int, dst []float64) []float64 {
	if workers <= 1 {
		return dst
	}
	chunk := s / float64(workers)
	for i := 0; i < 2*(workers-1); i++ {
		dst = append(dst, chunk)
	}
	return dst
}

// treeBackend is an idealized recursive halving-doubling collective: for a
// power-of-two ring size the chunk sequence is exactly s/2, s/4, …, s/W
// (halving / reduce-scatter) followed by its mirror (doubling /
// allgather), which totals the bandwidth-optimal 2(W−1)/W·s — the same
// per-link volume as the ring, in 2·log2 W steps instead of 2(W−1). For
// non-power-of-two W the geometric sequence is scaled so the total still
// equals the ring's (the property test pins this).
type treeBackend struct{}

func (treeBackend) Name() string { return "tree" }

func (treeBackend) Steps(workers int) int {
	if workers <= 1 {
		return 0
	}
	return 2 * ceilLog2(workers)
}

func (t treeBackend) ChunkBytes(s float64, workers int, dst []float64) []float64 {
	if workers <= 1 {
		return dst
	}
	levels := ceilLog2(workers)
	// Geometric halving factors 1/2, 1/4, …, 1/2^L, scaled so one phase
	// moves (W−1)/W·s (for power-of-two W the scale is exactly 1).
	geom := 1 - math.Pow(0.5, float64(levels))
	scale := (float64(workers-1) / float64(workers)) / geom
	base := len(dst)
	f := 0.5
	for k := 0; k < levels; k++ {
		dst = append(dst, s*scale*f)
		f *= 0.5
	}
	// Doubling phase: the halving sequence mirrored (smallest chunk first).
	for k := levels - 1; k >= 0; k-- {
		dst = append(dst, dst[base+k])
	}
	return dst
}

func ceilLog2(n int) int {
	l := 0
	for p := 1; p < n; p *= 2 {
		l++
	}
	return l
}

var backends = map[string]Backend{
	"ps":   psBackend{},
	"ring": ringBackend{},
	"tree": treeBackend{},
}

// BackendByName returns the transport backend registered under name.
func BackendByName(name string) (Backend, error) {
	if b, ok := backends[name]; ok {
		return b, nil
	}
	return nil, fmt.Errorf("drive: unknown transport %q (known: %v)", name, BackendNames())
}

// BackendNames returns the registered transport names, sorted.
func BackendNames() []string {
	out := make([]string, 0, len(backends))
	for name := range backends {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
