// Package tensor provides the dense numeric kernels for the real-training
// emulation path (internal/nn, internal/emu): float64 vectors and matrices
// with goroutine-parallel implementations of the operations an MLP needs.
// It deliberately stays small — this is a substrate for demonstrating
// communication scheduling on real gradients, not a BLAS.
package tensor

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"prophet/internal/sim"
)

// parallelThreshold is the per-op element count below which the
// goroutine fan-out costs more than it saves.
const parallelThreshold = 1 << 14

// ParallelFor splits [0, n) into contiguous chunks and runs fn(lo, hi) on
// up to GOMAXPROCS goroutines. Small n runs inline.
func ParallelFor(n int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	workers := runtime.GOMAXPROCS(0)
	if n < parallelThreshold || workers <= 1 {
		fn(0, n)
		return
	}
	if workers > n {
		workers = n
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// Vec is a dense vector.
type Vec []float64

// NewVec returns a zero vector of length n.
func NewVec(n int) Vec { return make(Vec, n) }

// Clone returns a copy.
func (v Vec) Clone() Vec { return append(Vec(nil), v...) }

// Zero sets every element to 0.
func (v Vec) Zero() {
	for i := range v {
		v[i] = 0
	}
}

// AXPY computes v += alpha * x.
func (v Vec) AXPY(alpha float64, x Vec) {
	if len(v) != len(x) {
		panic(fmt.Sprintf("tensor: AXPY length mismatch %d vs %d", len(v), len(x)))
	}
	// The closure ParallelFor takes is heap-allocated where it is built (it
	// escapes to the fan-out's goroutines), so the serial case — every bias
	// and gradient row of the emulation's models — returns before building it.
	if len(v) < parallelThreshold {
		axpy(v, alpha, x)
		return
	}
	ParallelFor(len(v), func(lo, hi int) { axpy(v[lo:hi], alpha, x[lo:hi]) })
}

func axpy(v Vec, alpha float64, x Vec) {
	for i := range v {
		v[i] += alpha * x[i]
	}
}

// Scale computes v *= alpha, serial below the threshold like AXPY.
func (v Vec) Scale(alpha float64) {
	if len(v) < parallelThreshold {
		scale(v, alpha)
		return
	}
	ParallelFor(len(v), func(lo, hi int) { scale(v[lo:hi], alpha) })
}

func scale(v Vec, alpha float64) {
	for i := range v {
		v[i] *= alpha
	}
}

// Add computes v += x.
func (v Vec) Add(x Vec) { v.AXPY(1, x) }

// Dot returns the inner product.
func (v Vec) Dot(x Vec) float64 {
	if len(v) != len(x) {
		panic("tensor: Dot length mismatch")
	}
	var s float64
	for i := range v {
		s += v[i] * x[i]
	}
	return s
}

// FillRandn fills v with N(0, stddev) values from rng.
func (v Vec) FillRandn(rng *sim.Rand, stddev float64) {
	for i := range v {
		v[i] = stddev * rng.NormFloat64()
	}
}

// Mat is a dense row-major matrix.
type Mat struct {
	Rows, Cols int
	Data       Vec
}

// NewMat returns a zero Rows×Cols matrix.
func NewMat(rows, cols int) *Mat {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("tensor: NewMat(%d, %d)", rows, cols))
	}
	return &Mat{Rows: rows, Cols: cols, Data: NewVec(rows * cols)}
}

// At returns element (r, c).
func (m *Mat) At(r, c int) float64 { return m.Data[r*m.Cols+c] }

// Set writes element (r, c).
func (m *Mat) Set(r, c int, v float64) { m.Data[r*m.Cols+c] = v }

// Row returns row r as a slice view.
func (m *Mat) Row(r int) Vec { return m.Data[r*m.Cols : (r+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Mat) Clone() *Mat {
	return &Mat{Rows: m.Rows, Cols: m.Cols, Data: m.Data.Clone()}
}

// FillRandn fills the matrix with N(0, stddev) values.
func (m *Mat) FillRandn(rng *sim.Rand, stddev float64) { m.Data.FillRandn(rng, stddev) }

// MatMul computes out = a · b, parallelized over rows of a. out must not
// alias a or b.
func MatMul(out, a, b *Mat) {
	if a.Cols != b.Rows || out.Rows != a.Rows || out.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMul shapes (%dx%d)·(%dx%d)→(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, out.Rows, out.Cols))
	}
	ParallelFor(a.Rows, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			ar := a.Row(r)
			or := out.Row(r)
			or.Zero()
			for k := 0; k < a.Cols; k++ {
				av := ar[k]
				if av == 0 {
					continue
				}
				br := b.Row(k)
				for c := range or {
					or[c] += av * br[c]
				}
			}
		}
	})
}

// MatMulTransA computes out = aᵀ · b (a is used transposed), parallelized
// over the output rows.
func MatMulTransA(out, a, b *Mat) {
	if a.Rows != b.Rows || out.Rows != a.Cols || out.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulTransA shapes (%dx%d)ᵀ·(%dx%d)→(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, out.Rows, out.Cols))
	}
	ParallelFor(out.Rows, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			or := out.Row(r)
			or.Zero()
			for k := 0; k < a.Rows; k++ {
				av := a.At(k, r)
				if av == 0 {
					continue
				}
				br := b.Row(k)
				for c := range or {
					or[c] += av * br[c]
				}
			}
		}
	})
}

// MatMulTransB computes out = a · bᵀ, parallelized over rows of a.
func MatMulTransB(out, a, b *Mat) {
	if a.Cols != b.Cols || out.Rows != a.Rows || out.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulTransB shapes (%dx%d)·(%dx%d)ᵀ→(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, out.Rows, out.Cols))
	}
	ParallelFor(a.Rows, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			ar := a.Row(r)
			or := out.Row(r)
			for c := 0; c < b.Rows; c++ {
				or[c] = ar.Dot(b.Row(c))
			}
		}
	})
}

// AddRowBias adds bias b to every row of m.
func AddRowBias(m *Mat, b Vec) {
	if len(b) != m.Cols {
		panic("tensor: AddRowBias length mismatch")
	}
	ParallelFor(m.Rows, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			row := m.Row(r)
			for c := range row {
				row[c] += b[c]
			}
		}
	})
}

// ReLU applies max(0, x) elementwise, returning a mask of active units for
// the backward pass.
func ReLU(m *Mat) []bool {
	mask := make([]bool, len(m.Data))
	ParallelFor(len(m.Data), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if m.Data[i] > 0 {
				mask[i] = true
			} else {
				m.Data[i] = 0
			}
		}
	})
	return mask
}

// ReLUBackward zeroes gradient entries where the mask is inactive.
func ReLUBackward(grad *Mat, mask []bool) {
	if len(mask) != len(grad.Data) {
		panic("tensor: ReLUBackward mask mismatch")
	}
	ParallelFor(len(grad.Data), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if !mask[i] {
				grad.Data[i] = 0
			}
		}
	})
}

// SoftmaxCrossEntropy computes, per row of logits, softmax + cross-entropy
// against integer labels. It returns the mean loss and writes dLoss/dLogits
// into grad (same shape as logits), already divided by the batch size.
func SoftmaxCrossEntropy(grad, logits *Mat, labels []int) float64 {
	if len(labels) != logits.Rows || grad.Rows != logits.Rows || grad.Cols != logits.Cols {
		panic("tensor: SoftmaxCrossEntropy shape mismatch")
	}
	losses := make([]float64, logits.Rows)
	inv := 1.0 / float64(logits.Rows)
	ParallelFor(logits.Rows, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			row := logits.Row(r)
			grow := grad.Row(r)
			max := row[0]
			for _, v := range row {
				if v > max {
					max = v
				}
			}
			var sum float64
			for c, v := range row {
				e := math.Exp(v - max)
				grow[c] = e
				sum += e
			}
			label := labels[r]
			if label < 0 || label >= logits.Cols {
				panic(fmt.Sprintf("tensor: label %d out of range", label))
			}
			p := grow[label] / sum
			losses[r] = -math.Log(math.Max(p, 1e-300))
			for c := range grow {
				grow[c] = (grow[c]/sum - b2f(c == label)) * inv
			}
		}
	})
	var total float64
	for _, l := range losses {
		total += l
	}
	return total * inv
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
