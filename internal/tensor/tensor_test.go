package tensor

import (
	"fmt"
	"math"
	"math/bits"
	"strings"
	"testing"
	"testing/quick"

	"prophet/internal/sim"
)

func TestVecAXPY(t *testing.T) {
	v := Vec{1, 2, 3}
	v.AXPY(2, Vec{10, 20, 30})
	want := Vec{21, 42, 63}
	for i := range want {
		if v[i] != want[i] {
			t.Fatalf("v = %v", v)
		}
	}
}

func TestVecAXPYMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Vec{1}.AXPY(1, Vec{1, 2})
}

func TestVecScaleZeroCloneAdd(t *testing.T) {
	v := Vec{1, 2}
	c := v.Clone()
	v.Scale(3)
	if v[0] != 3 || v[1] != 6 {
		t.Fatalf("scale: %v", v)
	}
	if c[0] != 1 {
		t.Fatal("clone aliased")
	}
	v.Add(Vec{1, 1})
	if v[0] != 4 || v[1] != 7 {
		t.Fatalf("add: %v", v)
	}
	v.Zero()
	if v[0] != 0 || v[1] != 0 {
		t.Fatal("zero failed")
	}
}

// TestVecSmallOpsDoNotAllocate: nn.Backward adds one bias-gradient row per
// batch row, so an allocation in Add is thousands per training iteration.
func TestVecSmallOpsDoNotAllocate(t *testing.T) {
	v, x := NewVec(32), NewVec(32)
	for i := range x {
		x[i] = float64(i)
	}
	if allocs := testing.AllocsPerRun(100, func() { v.Add(x) }); allocs != 0 {
		t.Errorf("Vec.Add on 32 elements allocates %v times, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { v.Scale(0.5) }); allocs != 0 {
		t.Errorf("Vec.Scale on 32 elements allocates %v times, want 0", allocs)
	}
}

// TestKernelsDoNotAllocate: a kernel is a loop on the caller's goroutine and
// allocates nothing it does not return — at any size, so a large SGD step
// costs no more allocations than a small one.
func TestKernelsDoNotAllocate(t *testing.T) {
	// One dense layer's shapes, as nn runs them: y = x·w, dw = xᵀ·dy,
	// dx = dy·wᵀ.
	rng := sim.NewRand(4)
	x, w := NewMat(16, 32), NewMat(32, 8)
	x.FillRandn(rng, 1)
	w.FillRandn(rng, 1)
	y, dy, dw, dx := NewMat(16, 8), NewMat(16, 8), NewMat(32, 8), NewMat(16, 32)
	mask := make([]bool, len(dx.Data))
	labels := make([]int, 16)
	v, u := NewVec(1<<15), NewVec(1<<15)
	for name, kernel := range map[string]func(){
		"MatMul":              func() { MatMul(y, x, w) },
		"MatMulTransA":        func() { MatMulTransA(dw, x, dy) },
		"MatMulTransB":        func() { MatMulTransB(dx, dy, w) },
		"AddRowBias":          func() { AddRowBias(y, w.Row(0)) },
		"ReLU":                func() { ReLU(dx, mask) },
		"ReLUInPlace":         func() { ReLUInPlace(dx) },
		"ReLUBackward":        func() { ReLUBackward(dx, mask) },
		"SoftmaxCrossEntropy": func() { SoftmaxCrossEntropy(dy, y, labels) },
		"CrossEntropySum":     func() { CrossEntropySum(0, y, labels) },
		"AXPY 1<<15":          func() { v.AXPY(0.5, u) },
		"Scale 1<<15":         func() { v.Scale(0.5) },
	} {
		if allocs := testing.AllocsPerRun(20, kernel); allocs != 0 {
			t.Errorf("%s allocates %v times, want 0", name, allocs)
		}
	}
}

func TestDotAndNorm(t *testing.T) {
	v := Vec{3, 4}
	if v.Dot(Vec{1, 2}) != 11 {
		t.Fatal("dot")
	}
}

func TestMatMulKnown(t *testing.T) {
	a := NewMat(2, 3)
	copy(a.Data, []float64{1, 2, 3, 4, 5, 6})
	b := NewMat(3, 2)
	copy(b.Data, []float64{7, 8, 9, 10, 11, 12})
	out := NewMat(2, 2)
	MatMul(out, a, b)
	want := []float64{58, 64, 139, 154}
	for i := range want {
		if out.Data[i] != want[i] {
			t.Fatalf("out = %v", out.Data)
		}
	}
}

// TestMatMulEmptyInner: a product over an empty inner dimension is all +0,
// whatever the output held, though b has no rows to read.
func TestMatMulEmptyInner(t *testing.T) {
	out := NewMat(2, 5)
	for i := range out.Data {
		out.Data[i] = math.NaN()
	}
	MatMul(out, &Mat{Rows: 2}, &Mat{Cols: 5})
	for i, v := range out.Data {
		if math.Float64bits(v) != 0 {
			t.Fatalf("element %d = %v, want +0", i, v)
		}
	}
}

func TestMatMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	MatMul(NewMat(2, 2), NewMat(2, 3), NewMat(2, 2))
}

func TestMatMulTransAMatchesExplicit(t *testing.T) {
	rng := sim.NewRand(1)
	a := NewMat(4, 3)
	b := NewMat(4, 5)
	a.FillRandn(rng, 1)
	b.FillRandn(rng, 1)
	out := NewMat(3, 5)
	MatMulTransA(out, a, b)
	// Explicit aᵀ.
	at := NewMat(3, 4)
	for r := 0; r < 4; r++ {
		for c := 0; c < 3; c++ {
			at.Set(c, r, a.Row(r)[c])
		}
	}
	ref := NewMat(3, 5)
	MatMul(ref, at, b)
	for i := range ref.Data {
		if math.Abs(out.Data[i]-ref.Data[i]) > 1e-12 {
			t.Fatalf("mismatch at %d: %v vs %v", i, out.Data[i], ref.Data[i])
		}
	}
}

func TestMatMulTransBMatchesExplicit(t *testing.T) {
	rng := sim.NewRand(2)
	a := NewMat(4, 3)
	b := NewMat(5, 3)
	a.FillRandn(rng, 1)
	b.FillRandn(rng, 1)
	out := NewMat(4, 5)
	MatMulTransB(out, a, b)
	bt := NewMat(3, 5)
	for r := 0; r < 5; r++ {
		for c := 0; c < 3; c++ {
			bt.Set(c, r, b.Row(r)[c])
		}
	}
	ref := NewMat(4, 5)
	MatMul(ref, a, bt)
	for i := range ref.Data {
		if math.Abs(out.Data[i]-ref.Data[i]) > 1e-12 {
			t.Fatalf("mismatch at %d", i)
		}
	}
}

func TestAddRowBias(t *testing.T) {
	m := NewMat(2, 2)
	AddRowBias(m, Vec{1, 2})
	if m.Data[0] != 1 || m.Data[1] != 2 || m.Data[2] != 1 || m.Data[3] != 2 {
		t.Fatalf("m = %v", m.Data)
	}
}

func TestReLUAndBackward(t *testing.T) {
	m := NewMat(1, 4)
	copy(m.Data, []float64{-1, 2, 0, 3})
	mask := []bool{true, false, true, false} // ReLU overwrites every entry
	ReLU(m, mask)
	if m.Data[0] != 0 || m.Data[1] != 2 || m.Data[3] != 3 {
		t.Fatalf("relu: %v", m.Data)
	}
	if mask[0] || !mask[1] || mask[2] || !mask[3] {
		t.Fatalf("relu mask: %v", mask)
	}
	g := NewMat(1, 4)
	copy(g.Data, []float64{5, 5, 5, 5})
	ReLUBackward(g, mask)
	if g.Data[0] != 0 || g.Data[1] != 5 || g.Data[2] != 0 || g.Data[3] != 5 {
		t.Fatalf("relu backward: %v", g.Data)
	}
}

// ReLUInPlace is ReLU without the mask: the same values, NaN and -0 included
// — every entry that is not positive becomes +0.
func TestReLUInPlaceMatchesReLU(t *testing.T) {
	m := NewMat(1, 6)
	copy(m.Data, []float64{-1, 2, 0, math.Copysign(0, -1), math.NaN(), math.Inf(1)})
	want := []float64{0, 2, 0, 0, 0, math.Inf(1)}
	ref := m.Clone()
	ReLU(ref, make([]bool, len(ref.Data)))
	ReLUInPlace(m)
	for i := range m.Data {
		if math.Float64bits(m.Data[i]) != math.Float64bits(ref.Data[i]) {
			t.Fatalf("entry %d: %v, ReLU gives %v", i, m.Data[i], ref.Data[i])
		}
		if math.Float64bits(m.Data[i]) != math.Float64bits(want[i]) {
			t.Fatalf("entry %d: %v, want %v", i, m.Data[i], want[i])
		}
	}
}

// CrossEntropySum continued over consecutive blocks of rows is exactly the
// numerator of SoftmaxCrossEntropy's mean over all of them.
func TestCrossEntropySumOverBlocks(t *testing.T) {
	rng := sim.NewRand(5)
	logits := NewMat(7, 4)
	logits.FillRandn(rng, 3)
	labels := []int{0, 3, 1, 2, 2, 0, 3}
	want := SoftmaxCrossEntropy(NewMat(7, 4), logits, labels)
	var total float64
	for _, blk := range [][2]int{{0, 3}, {3, 6}, {6, 7}} {
		rows := &Mat{Rows: blk[1] - blk[0], Cols: 4, Data: logits.Data[4*blk[0] : 4*blk[1]]}
		total = CrossEntropySum(total, rows, labels[blk[0]:blk[1]])
	}
	if got := total * (1.0 / 7); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("blocked mean %v, SoftmaxCrossEntropy %v", got, want)
	}
}

func TestSoftmaxCrossEntropyUniform(t *testing.T) {
	// Zero logits over 4 classes: loss = ln 4, gradient = (1/4 - onehot)/n.
	logits := NewMat(2, 4)
	grad := NewMat(2, 4)
	loss := SoftmaxCrossEntropy(grad, logits, []int{0, 3})
	if math.Abs(loss-math.Log(4)) > 1e-12 {
		t.Fatalf("loss = %v, want ln4", loss)
	}
	if math.Abs(grad.Data[0]-(0.25-1)/2) > 1e-12 {
		t.Fatalf("grad = %v", grad.Row(0))
	}
	if math.Abs(grad.Data[1]-0.25/2) > 1e-12 {
		t.Fatalf("grad = %v", grad.Row(0))
	}
}

func TestSoftmaxCrossEntropyGradientNumerically(t *testing.T) {
	rng := sim.NewRand(3)
	logits := NewMat(3, 5)
	logits.FillRandn(rng, 1)
	labels := []int{1, 4, 2}
	grad := NewMat(3, 5)
	base := SoftmaxCrossEntropy(grad, logits.Clone(), labels)
	const eps = 1e-6
	for i := range logits.Data {
		bumped := logits.Clone()
		bumped.Data[i] += eps
		tmp := NewMat(3, 5)
		lp := SoftmaxCrossEntropy(tmp, bumped, labels)
		num := (lp - base) / eps
		if math.Abs(num-grad.Data[i]) > 1e-4 {
			t.Fatalf("grad[%d] = %v, numeric %v", i, grad.Data[i], num)
		}
	}
}

func TestSoftmaxBadLabelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	SoftmaxCrossEntropy(NewMat(1, 2), NewMat(1, 2), []int{5})
}

// Property: softmax gradient rows sum to ~0 (probabilities minus one-hot).
func TestPropertySoftmaxGradRowsSumZero(t *testing.T) {
	f := func(seed uint64, labRaw uint8) bool {
		rng := sim.NewRand(seed)
		logits := NewMat(2, 6)
		logits.FillRandn(rng, 2)
		grad := NewMat(2, 6)
		SoftmaxCrossEntropy(grad, logits, []int{int(labRaw) % 6, 0})
		for r := 0; r < 2; r++ {
			var s float64
			for _, v := range grad.Row(r) {
				s += v
			}
			if math.Abs(s) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: MatMul is linear — (a)(b1+b2) == (a)(b1) + (a)(b2).
func TestPropertyMatMulLinear(t *testing.T) {
	f := func(seed uint64) bool {
		rng := sim.NewRand(seed)
		a := NewMat(3, 4)
		b1 := NewMat(4, 2)
		b2 := NewMat(4, 2)
		a.FillRandn(rng, 1)
		b1.FillRandn(rng, 1)
		b2.FillRandn(rng, 1)
		sum := NewMat(4, 2)
		copy(sum.Data, b1.Data)
		sum.Data.Add(b2.Data)
		lhs := NewMat(3, 2)
		MatMul(lhs, a, sum)
		r1 := NewMat(3, 2)
		r2 := NewMat(3, 2)
		MatMul(r1, a, b1)
		MatMul(r2, a, b2)
		r1.Data.Add(r2.Data)
		for i := range lhs.Data {
			if math.Abs(lhs.Data[i]-r1.Data[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNewMatInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewMat(0, 3)
}

// The plain matmul loops the register-blocked kernels replaced, kept as
// their oracle: each output element is +0 plus its products, in k order,
// skipping zero multipliers of a in MatMul and MatMulTransA.

func refMatMul(out, a, b *Mat) {
	for r := 0; r < a.Rows; r++ {
		ar := a.Row(r)
		or := out.Row(r)
		or.Zero()
		for k := 0; k < a.Cols; k++ {
			av := ar[k]
			if av == 0 {
				continue
			}
			br := b.Row(k)[:len(or)]
			for c, bv := range br {
				or[c] += av * bv
			}
		}
	}
}

func refMatMulTransA(out, a, b *Mat) {
	for r := 0; r < out.Rows; r++ {
		or := out.Row(r)
		or.Zero()
		for k := 0; k < a.Rows; k++ {
			av := a.Row(k)[r]
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

func refMatMulTransB(out, a, b *Mat) {
	for r := 0; r < a.Rows; r++ {
		ar := a.Row(r)
		or := out.Row(r)
		for c := 0; c < b.Rows; c++ {
			or[c] = ar.Dot(b.Row(c))
		}
	}
}

// matmuls lists the three kernels, each with its oracle and the operand
// shapes it takes for a rows×cols output summed over inner.
var matmuls = []struct {
	name     string
	run, ref func(out, a, b *Mat)
	operands func(rows, inner, cols int) (a, b *Mat)
}{
	{"MatMul", MatMul, refMatMul, func(r, k, c int) (*Mat, *Mat) { return NewMat(r, k), NewMat(k, c) }},
	{"MatMulTransA", MatMulTransA, refMatMulTransA, func(r, k, c int) (*Mat, *Mat) { return NewMat(k, r), NewMat(k, c) }},
	{"MatMulTransB", MatMulTransB, refMatMulTransB, func(r, k, c int) (*Mat, *Mat) { return NewMat(r, k), NewMat(c, k) }},
}

// fillSparse fills m with N(0, 1) values, ~40 % of them zero and a few -0,
// zeroes one whole row and one whole column, and, when special, plants a
// NaN, a +Inf and a -Inf at random entries.
func fillSparse(m *Mat, rng *sim.Rand, special bool) {
	for i := range m.Data {
		switch p := rng.Intn(100); {
		case p < 40:
			m.Data[i] = 0
		case p < 43:
			m.Data[i] = math.Copysign(0, -1)
		default:
			m.Data[i] = rng.NormFloat64()
		}
	}
	m.Row(rng.Intn(m.Rows)).Zero()
	c := rng.Intn(m.Cols)
	for r := 0; r < m.Rows; r++ {
		m.Row(r)[c] = 0
	}
	if special {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			m.Data[rng.Intn(len(m.Data))] = v
		}
	}
}

// sameBits reports whether x and y are the same float64 to the bit, or both
// NaN. Which NaN's payload an operation on two NaNs keeps is not specified by
// Go: on amd64 it is the destination register's, a register-allocation
// choice that differs between any two compiled loops. Every other result —
// ±0 and ±Inf included — must match exactly.
func sameBits(x, y float64) bool {
	return math.Float64bits(x) == math.Float64bits(y) || (math.IsNaN(x) && math.IsNaN(y))
}

// accumulatePaths runs f once on each body of accumulate this CPU can run —
// the AVX2 body where start-up selected it, then the Go loop — and restores
// the selection.
func accumulatePaths(t *testing.T, f func(path string)) {
	t.Helper()
	simd := useAVX2
	defer func() { useAVX2 = simd }()
	if simd {
		f("avx2")
	}
	useAVX2 = false
	f("go")
}

// TestMatMulKernelsBitIdentical: every kernel writes, bit for bit, what its
// plain loop does — on each accumulate body, at the live MLP shapes, across
// the 64-term gather block, at degenerate shapes and every column count from
// 5 to 40 (the AVX2 body's 16- and 4-column blocks and the Go loop's tail
// after them), on sparse inputs with zero rows and columns, -0, NaN and
// ±Inf — into an output that starts dirty, so every element is written.
func TestMatMulKernelsBitIdentical(t *testing.T) {
	shapes := [][3]int{ // rows, inner, cols
		{64, 16, 128}, {64, 128, 128}, {64, 128, 4}, {16, 16, 32}, {16, 32, 4},
		{64, 129, 13}, {200, 150, 9}, {3, 64, 8}, {2, 65, 12},
		{1, 1, 1}, {1, 7, 1}, {5, 3, 7}, {4, 9, 3}, {7, 2, 15},
	}
	for cols := 5; cols <= 40; cols++ {
		shapes = append(shapes, [3]int{3, 70, cols})
	}
	accumulatePaths(t, func(path string) {
		for _, kc := range matmuls {
			for _, sh := range shapes {
				for seed := uint64(1); seed <= 4; seed++ {
					rng := sim.NewRand(seed)
					a, b := kc.operands(sh[0], sh[1], sh[2])
					fillSparse(a, rng, seed%2 == 0)
					fillSparse(b, rng, seed%2 == 0)
					got, want := NewMat(sh[0], sh[2]), NewMat(sh[0], sh[2])
					for i := range got.Data {
						got.Data[i], want.Data[i] = math.NaN(), 12345
					}
					kc.run(got, a, b)
					kc.ref(want, a, b)
					for i := range got.Data {
						if !sameBits(got.Data[i], want.Data[i]) {
							t.Fatalf("%s %s %v seed %d: element %d = %v (%#x), plain loop %v (%#x)", path, kc.name, sh, seed,
								i, got.Data[i], math.Float64bits(got.Data[i]), want.Data[i], math.Float64bits(want.Data[i]))
						}
					}
				}
			}
		}
	})
}

// TestShortDataPanicsBeforeAnyRead: MatMul and MatMulTransA refuse, before
// they read or write an element, an operand whose Data is shorter than
// Rows×Cols — the one check that keeps the AVX2 body's unchecked reads of b
// inside b. A b one element short would otherwise be read past its end, and
// so would a b whose Rows×Cols wraps to 0: an inner dimension of 2^62 (2^30
// on 32-bit) times 4 columns.
func TestShortDataPanicsBeforeAnyRead(t *testing.T) {
	check := func(name, what string, run func(out, a, b *Mat), out, a, b *Mat) {
		t.Helper()
		for i := range a.Data {
			a.Data[i] = 1
		}
		for i := range out.Data {
			out.Data[i] = 7
		}
		msg := func() (msg any) {
			defer func() { msg = recover() }()
			run(out, a, b)
			return nil
		}()
		if s, ok := msg.(string); !ok || !strings.Contains(s, "holds") {
			t.Fatalf("%s with %s: panic %v, want the length check's", name, what, msg)
		}
		for i, v := range out.Data {
			if v != 7 {
				t.Fatalf("%s with %s: element %d written before the panic", name, what, i)
			}
		}
	}
	huge := 1 << (bits.UintSize - 2) // 4·huge wraps to 0
	for _, kc := range matmuls[:2] { // the two kernels on accumulate
		for operand := 0; operand < 3; operand++ {
			a, b := kc.operands(4, 8, 16)
			out := NewMat(4, 16)
			short := []*Mat{out, a, b}[operand]
			short.Data = short.Data[:len(short.Data)-1]
			check(kc.name, fmt.Sprintf("operand %d short", operand), kc.run, out, a, b)
		}
		a := &Mat{Rows: 4, Cols: huge, Data: make(Vec, 400)} // MatMul's 4×huge
		if kc.name == "MatMulTransA" {
			a.Rows, a.Cols = huge, 4 // MatMulTransA's huge×4, used transposed
		}
		b := &Mat{Rows: huge, Cols: 4, Data: make(Vec, 4)}
		check(kc.name, "Rows×Cols wrapping to 0", kc.run, NewMat(4, 4), a, b)
	}
}

// BenchmarkMatMul times each kernel at the shapes the live workloads' MLPs
// run it at (live-ps-shaped: layers {16,128,128,4}, batch 64; live-ring and
// live-mux-scale: {16,32,32,4}, batch 16): forward MatMul, then Backward's
// MatMulTransA for the weight gradient and MatMulTransB for the input
// gradient.
func BenchmarkMatMul(b *testing.B) {
	for _, wl := range []struct {
		name   string
		layers []int
		batch  int
	}{
		{"live-ps-shaped", []int{16, 128, 128, 4}, 64},
		{"live-ring", []int{16, 32, 32, 4}, 16},
	} {
		for _, kc := range matmuls {
			for l := 0; l+1 < len(wl.layers); l++ {
				in, out := wl.layers[l], wl.layers[l+1]
				var sh [3]int // rows, inner, cols
				switch kc.name {
				case "MatMul":
					sh = [3]int{wl.batch, in, out}
				case "MatMulTransA":
					sh = [3]int{in, wl.batch, out}
				case "MatMulTransB":
					if l == 0 {
						continue // Backward computes no input gradient for layer 0
					}
					sh = [3]int{wl.batch, out, in}
				}
				b.Run(fmt.Sprintf("%s/%s/%dx%dx%d", wl.name, kc.name, sh[0], sh[1], sh[2]), func(b *testing.B) {
					rng := sim.NewRand(1)
					x, y := kc.operands(sh[0], sh[1], sh[2])
					x.FillRandn(rng, 1)
					y.FillRandn(rng, 1)
					dst := NewMat(sh[0], sh[2])
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						kc.run(dst, x, y)
					}
				})
			}
		}
	}
}
