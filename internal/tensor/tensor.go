// Package tensor provides the dense numeric kernels for the real-training
// emulation path (internal/nn, internal/emu): float64 vectors and matrices
// and the operations an MLP needs, as plain loops on the caller's goroutine.
// The emulation's worker goroutines are the parallelism; a kernel starts
// none and allocates only what it returns. It deliberately stays small —
// this is a substrate for demonstrating communication scheduling on real
// gradients, not a BLAS.
package tensor

import (
	"fmt"
	"math"

	"prophet/internal/sim"
)

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
	for i := range v {
		v[i] += alpha * x[i]
	}
}

// Scale computes v *= alpha.
func (v Vec) Scale(alpha float64) {
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

// MatMul computes out = a · b. out must not alias a or b.
func MatMul(out, a, b *Mat) {
	if a.Cols != b.Rows || out.Rows != a.Rows || out.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMul shapes (%dx%d)·(%dx%d)→(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, out.Rows, out.Cols))
	}
	for r := 0; r < a.Rows; r++ {
		ar := a.Row(r)
		or := out.Row(r)
		or.Zero()
		for k := 0; k < a.Cols; k++ {
			av := ar[k]
			if av == 0 {
				continue
			}
			br := b.Row(k)[:len(or)] // same length: no bounds check below
			for c, bv := range br {
				or[c] += av * bv
			}
		}
	}
}

// MatMulTransA computes out = aᵀ · b (a is used transposed).
func MatMulTransA(out, a, b *Mat) {
	if a.Rows != b.Rows || out.Rows != a.Cols || out.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulTransA shapes (%dx%d)ᵀ·(%dx%d)→(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, out.Rows, out.Cols))
	}
	for r := 0; r < out.Rows; r++ {
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
}

// MatMulTransB computes out = a · bᵀ.
func MatMulTransB(out, a, b *Mat) {
	if a.Cols != b.Cols || out.Rows != a.Rows || out.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulTransB shapes (%dx%d)·(%dx%d)ᵀ→(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, out.Rows, out.Cols))
	}
	for r := 0; r < a.Rows; r++ {
		ar := a.Row(r)
		or := out.Row(r)
		for c := 0; c < b.Rows; c++ {
			or[c] = ar.Dot(b.Row(c))
		}
	}
}

// AddRowBias adds bias b to every row of m.
func AddRowBias(m *Mat, b Vec) {
	if len(b) != m.Cols {
		panic("tensor: AddRowBias length mismatch")
	}
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		for c := range row {
			row[c] += b[c]
		}
	}
}

// ReLU applies max(0, x) elementwise, returning a mask of active units for
// the backward pass.
func ReLU(m *Mat) []bool {
	mask := make([]bool, len(m.Data))
	for i, v := range m.Data {
		if v > 0 {
			mask[i] = true
		} else {
			m.Data[i] = 0
		}
	}
	return mask
}

// ReLUInPlace applies max(0, x) elementwise like ReLU — every entry that is
// not positive, NaN included, becomes 0 — without the mask a forward pass
// that will not be differentiated has no use for.
func ReLUInPlace(m *Mat) {
	for i, v := range m.Data {
		if !(v > 0) {
			m.Data[i] = 0
		}
	}
}

// ReLUBackward zeroes gradient entries where the mask is inactive.
func ReLUBackward(grad *Mat, mask []bool) {
	if len(mask) != len(grad.Data) {
		panic("tensor: ReLUBackward mask mismatch")
	}
	for i, active := range mask {
		if !active {
			grad.Data[i] = 0
		}
	}
}

// SoftmaxCrossEntropy computes, per row of logits, softmax + cross-entropy
// against integer labels. It returns the mean loss and writes dLoss/dLogits
// into grad (same shape as logits), already divided by the batch size.
func SoftmaxCrossEntropy(grad, logits *Mat, labels []int) float64 {
	if len(labels) != logits.Rows || grad.Rows != logits.Rows || grad.Cols != logits.Cols {
		panic("tensor: SoftmaxCrossEntropy shape mismatch")
	}
	inv := 1.0 / float64(logits.Rows)
	var total float64
	for r := 0; r < logits.Rows; r++ {
		row := logits.Row(r)
		label := labels[r]
		max, sum, loss := rowCrossEntropy(row, label)
		total += loss
		grow := grad.Row(r)
		for c, v := range row {
			grow[c] = (math.Exp(v-max)/sum - b2f(c == label)) * inv
		}
	}
	return total * inv
}

// CrossEntropySum adds each row's softmax cross-entropy against its label to
// total, in row order, and returns the sum: the numerator of
// SoftmaxCrossEntropy's mean, computed without a gradient. Calls over
// consecutive blocks of rows, each continuing the last one's sum, add up
// exactly what one call over all of them would.
func CrossEntropySum(total float64, logits *Mat, labels []int) float64 {
	if len(labels) != logits.Rows {
		panic("tensor: CrossEntropySum shape mismatch")
	}
	for r := 0; r < logits.Rows; r++ {
		_, _, loss := rowCrossEntropy(logits.Row(r), labels[r])
		total += loss
	}
	return total
}

// rowCrossEntropy is the per-row softmax both cross-entropy kernels share:
// the row's max, the sum of exp(v − max) over it, and −log p(label).
func rowCrossEntropy(row Vec, label int) (max, sum, loss float64) {
	if label < 0 || label >= len(row) {
		panic(fmt.Sprintf("tensor: label %d out of range", label))
	}
	max = row[0]
	for _, v := range row {
		if v > max {
			max = v
		}
	}
	for _, v := range row {
		sum += math.Exp(v - max)
	}
	p := math.Exp(row[label]-max) / sum
	return max, sum, -math.Log(math.Max(p, 1e-300))
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
