// Package tensor provides the dense numeric kernels for the real-training
// emulation path (internal/nn, internal/emu): float64 vectors and matrices
// and the operations an MLP needs, as loops on the caller's goroutine. The
// emulation's worker goroutines are the parallelism; a kernel starts none
// and allocates only what it returns. It deliberately stays small — this is
// a substrate for demonstrating communication scheduling on real gradients,
// not a BLAS. Every kernel is Go but one: the inner loop MatMul and
// MatMulTransA share has an AVX2 body on amd64 CPUs that have it
// (accumulate_amd64.s), chosen once at start-up, which writes the Go loop's
// bits.
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
	checkData("MatMul", out, a, b)
	var terms [gatherBlock]term
	for r := 0; r < a.Rows; r++ {
		productRow(out.Row(r), a.Row(r), 1, a.Cols, b, &terms)
	}
}

// MatMulTransA computes out = aᵀ · b (a is used transposed).
func MatMulTransA(out, a, b *Mat) {
	if a.Rows != b.Rows || out.Rows != a.Cols || out.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulTransA shapes (%dx%d)ᵀ·(%dx%d)→(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, out.Rows, out.Cols))
	}
	checkData("MatMulTransA", out, a, b)
	var terms [gatherBlock]term
	for r := 0; r < out.Rows; r++ {
		productRow(out.Row(r), a.Data[r:], a.Cols, a.Rows, b, &terms)
	}
}

// checkData panics unless every matrix's Data holds its Rows×Cols elements.
// It is the one check MatMul and MatMulTransA make before the AVX2 body of
// accumulate reads b without bounds checks: with b whole, every offset a
// term can carry (k·b.Cols for k < b.Rows) plus every column (< b.Cols) is
// inside b.Data. It divides rather than multiplies, so a Rows×Cols that
// overflows an int cannot pass it.
func checkData(op string, ms ...*Mat) {
	for _, m := range ms {
		if m.Rows < 0 || m.Cols < 0 || (m.Cols != 0 && m.Rows > len(m.Data)/m.Cols) {
			panic(fmt.Sprintf("tensor: %s operand %dx%d holds %d elements", op, m.Rows, m.Cols, len(m.Data)))
		}
	}
}

// productRow writes one output row of MatMul or MatMulTransA: or[c] is the
// sum over k < kn, in k order from +0, of a[k·step]·b[k][c], skipping the
// k whose multiplier a[k·step] is zero — a row of a for MatMul (step 1), a
// column for MatMulTransA (step a.Cols). It gathers the non-zero multipliers
// gatherBlock at a time and accumulates each block into the row.
func productRow(or Vec, a []float64, step, kn int, b *Mat, terms *[gatherBlock]term) {
	n, k := gather(terms, a, step, b.Cols, 0, kn)
	accumulate(or, b.Data, terms[:n], true)
	for k < kn {
		n, k = gather(terms, a, step, b.Cols, k, kn)
		accumulate(or, b.Data, terms[:n], false)
	}
}

// gatherBlock is how many non-zero multipliers productRow gathers before
// accumulating them into an output row.
const gatherBlock = 64

// term is one gathered multiplier: the offset of its row of b in b's data,
// and its value.
type term struct {
	off int
	v   float64
}

// gather fills terms with the non-zero a[k·step] from k on, each with its
// row's offset k·stride in b, until it has gatherBlock of them or k reaches
// kn, and returns how many it gathered and the k it stopped at. Every value
// is written into the next slot, which advances only past a non-zero one:
// a conditional move, where a branch would mispredict on every ReLU-sparse
// row.
func gather(terms *[gatherBlock]term, a []float64, step, stride, k, kn int) (n, next int) {
	for ; k < kn && n < gatherBlock; k++ {
		av := a[k*step]
		terms[n] = term{k * stride, av}
		if av != 0 {
			n++
		}
	}
	return n, k
}

// accumulate adds the terms' products into every column of the output row
// or, in the terms' order: or[c] += t.v·b[t.off+c], starting from +0 when
// fresh, else from the partial sums or already holds. Where useAVX2 is set,
// the AVX2 body takes the columns up to the last multiple of 4 and the Go
// loop the rest; both write the same bits. An empty list stays on the Go
// loop: b may then have no rows to slice.
func accumulate(or Vec, b []float64, terms []term, fresh bool) {
	if useAVX2 && len(or) >= 4 && len(terms) > 0 {
		n := len(or) &^ 3
		accumulateAVX2(or[:n], b, terms, fresh)
		or, b = or[n:], b[n:]
	}
	accumulateGo(or, b, terms, fresh)
}

// accumulateGo is accumulate's portable body, and the AVX2 body's oracle in
// the tests. It keeps eight, then four, then one column's sums in registers
// across the whole list, so each output element is loaded and stored once
// per list rather than once per term — and still sums exactly the products
// a plain k loop does, in the same order, so the result is the same to the
// bit.
func accumulateGo(or Vec, b []float64, terms []term, fresh bool) {
	c := 0
	for ; c+8 <= len(or); c += 8 {
		o := (*[8]float64)(or[c:])
		var s0, s1, s2, s3, s4, s5, s6, s7 float64
		if !fresh {
			s0, s1, s2, s3, s4, s5, s6, s7 = o[0], o[1], o[2], o[3], o[4], o[5], o[6], o[7]
		}
		for _, t := range terms {
			bv := (*[8]float64)(b[t.off+c:])
			s0 += t.v * bv[0]
			s1 += t.v * bv[1]
			s2 += t.v * bv[2]
			s3 += t.v * bv[3]
			s4 += t.v * bv[4]
			s5 += t.v * bv[5]
			s6 += t.v * bv[6]
			s7 += t.v * bv[7]
		}
		o[0], o[1], o[2], o[3], o[4], o[5], o[6], o[7] = s0, s1, s2, s3, s4, s5, s6, s7
	}
	for ; c+4 <= len(or); c += 4 {
		o := (*[4]float64)(or[c:])
		var s0, s1, s2, s3 float64
		if !fresh {
			s0, s1, s2, s3 = o[0], o[1], o[2], o[3]
		}
		for _, t := range terms {
			bv := (*[4]float64)(b[t.off+c:])
			s0 += t.v * bv[0]
			s1 += t.v * bv[1]
			s2 += t.v * bv[2]
			s3 += t.v * bv[3]
		}
		o[0], o[1], o[2], o[3] = s0, s1, s2, s3
	}
	for ; c < len(or); c++ {
		var s float64
		if !fresh {
			s = or[c]
		}
		for _, t := range terms {
			s += t.v * b[t.off+c]
		}
		or[c] = s
	}
}

// MatMulTransB computes out = a · bᵀ: out[r][c] is a.Row(r).Dot(b.Row(c)),
// computed for four columns at once in four independent sums.
func MatMulTransB(out, a, b *Mat) {
	if a.Cols != b.Cols || out.Rows != a.Rows || out.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulTransB shapes (%dx%d)·(%dx%d)ᵀ→(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, out.Rows, out.Cols))
	}
	for r := 0; r < a.Rows; r++ {
		ar := a.Row(r)
		or := out.Row(r)
		c := 0
		for ; c+4 <= b.Rows; c += 4 {
			// Same length as ar: no bounds checks in the loop below.
			b0 := b.Row(c)[:len(ar)]
			b1 := b.Row(c + 1)[:len(ar)]
			b2 := b.Row(c + 2)[:len(ar)]
			b3 := b.Row(c + 3)[:len(ar)]
			var s0, s1, s2, s3 float64
			for k, av := range ar {
				s0 += av * b0[k]
				s1 += av * b1[k]
				s2 += av * b2[k]
				s3 += av * b3[k]
			}
			or[c], or[c+1], or[c+2], or[c+3] = s0, s1, s2, s3
		}
		for ; c < b.Rows; c++ {
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

// ReLU applies max(0, x) elementwise and records in mask, which must have
// one entry per element, which units are active for the backward pass.
func ReLU(m *Mat, mask []bool) {
	if len(mask) != len(m.Data) {
		panic("tensor: ReLU mask mismatch")
	}
	for i, v := range m.Data {
		mask[i] = v > 0
		m.Data[i] = keep(v, mask[i])
	}
}

// ReLUInPlace applies max(0, x) elementwise like ReLU — every entry that is
// not positive, NaN included, becomes 0 — without the mask a forward pass
// that will not be differentiated has no use for.
func ReLUInPlace(m *Mat) {
	for i, v := range m.Data {
		m.Data[i] = keep(v, v > 0)
	}
}

// ReLUBackward zeroes gradient entries where the mask is inactive.
func ReLUBackward(grad *Mat, mask []bool) {
	if len(mask) != len(grad.Data) {
		panic("tensor: ReLUBackward mask mismatch")
	}
	for i, active := range mask {
		grad.Data[i] = keep(grad.Data[i], active)
	}
}

// keep returns v if active, else +0, as a conditional move rather than a
// branch: half of a layer's units are inactive, in no pattern a branch
// predictor can learn.
func keep(v float64, active bool) float64 {
	var mask uint64
	if active {
		mask = ^uint64(0)
	}
	return math.Float64frombits(math.Float64bits(v) & mask)
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
	var exp float64 // exp(row[label] − max), from the sum loop
	for c, v := range row {
		e := math.Exp(v - max)
		sum += e
		if c == label {
			exp = e
		}
	}
	p := exp / sum
	return max, sum, -math.Log(math.Max(p, 1e-300))
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
