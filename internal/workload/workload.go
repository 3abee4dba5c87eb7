// Package workload generates the synthetic workloads the experiments run:
// gradient-tensor size distributions for studying the stepwise pattern
// beyond the built-in model zoo.
package workload

import (
	"fmt"

	"prophet/internal/model"
	"prophet/internal/sim"
)

// Shape selects a synthetic tensor-size distribution.
type Shape int

// Synthetic workload shapes: Uniform tensors (transformer-block-like),
// TailHeavy (VGG-like: a few giant tensors at the back), FrontHeavy (giant
// embedding up front), and Alternating (conv/BN-like big-small pairs).
const (
	Uniform Shape = iota
	TailHeavy
	FrontHeavy
	Alternating
)

func (s Shape) String() string {
	switch s {
	case Uniform:
		return "uniform"
	case TailHeavy:
		return "tail-heavy"
	case FrontHeavy:
		return "front-heavy"
	case Alternating:
		return "alternating"
	default:
		return fmt.Sprintf("Shape(%d)", int(s))
	}
}

// Synthetic builds a model with n gradient tensors totalling totalParams,
// distributed per shape, with per-tensor compute proportional to size.
// Useful for asking "how does Prophet behave on an architecture shaped
// like X" without hand-building layer lists.
func Synthetic(shape Shape, n int, totalParams int64, seed uint64) (*model.Model, error) {
	if n <= 0 || totalParams < int64(n) {
		return nil, fmt.Errorf("workload: need n > 0 and totalParams >= n (got %d, %d)", n, totalParams)
	}
	rng := sim.NewRand(seed)
	weights := make([]float64, n)
	switch shape {
	case Uniform:
		for i := range weights {
			weights[i] = 1 + 0.1*rng.Float64()
		}
	case TailHeavy:
		for i := range weights {
			frac := float64(i) / float64(n)
			weights[i] = 0.2 + 8*frac*frac*frac
		}
	case FrontHeavy:
		for i := range weights {
			frac := float64(n-1-i) / float64(n)
			weights[i] = 0.2 + 8*frac*frac*frac
		}
	case Alternating:
		for i := range weights {
			if i%2 == 0 {
				weights[i] = 2
			} else {
				weights[i] = 0.05
			}
		}
	default:
		return nil, fmt.Errorf("workload: unknown shape %v", shape)
	}
	var wsum float64
	for _, w := range weights {
		wsum += w
	}
	sizes := make([]int64, n)
	flops := make([]float64, n)
	var assigned int64
	for i, w := range weights {
		sz := int64(float64(totalParams) * w / wsum)
		if sz < 1 {
			sz = 1
		}
		sizes[i] = sz
		assigned += sz
		// Compute cost proportional to parameter count (dense-layer-like):
		// ~500 FLOPs/sample per parameter puts a 25M-parameter synthetic
		// model at a ResNet50-like compute:communication balance.
		flops[i] = 500 * float64(sz)
	}
	// Put rounding residue in the last tensor.
	if diff := totalParams - assigned; diff > 0 {
		sizes[n-1] += diff
	}
	return model.Custom(fmt.Sprintf("synthetic-%s-%d", shape, n), sizes, flops, 0)
}
