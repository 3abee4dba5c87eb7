package tensor

import (
	"math"
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
	mask := ReLU(x.Clone())
	labels := make([]int, 16)
	v, u := NewVec(1<<15), NewVec(1<<15)
	for name, kernel := range map[string]func(){
		"MatMul":              func() { MatMul(y, x, w) },
		"MatMulTransA":        func() { MatMulTransA(dw, x, dy) },
		"MatMulTransB":        func() { MatMulTransB(dx, dy, w) },
		"AddRowBias":          func() { AddRowBias(y, w.Row(0)) },
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
			at.Set(c, r, a.At(r, c))
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
			bt.Set(c, r, b.At(r, c))
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
	if m.At(0, 0) != 1 || m.At(0, 1) != 2 || m.At(1, 0) != 1 || m.At(1, 1) != 2 {
		t.Fatalf("m = %v", m.Data)
	}
}

func TestReLUAndBackward(t *testing.T) {
	m := NewMat(1, 4)
	copy(m.Data, []float64{-1, 2, 0, 3})
	mask := ReLU(m)
	if m.Data[0] != 0 || m.Data[1] != 2 || m.Data[3] != 3 {
		t.Fatalf("relu: %v", m.Data)
	}
	g := NewMat(1, 4)
	copy(g.Data, []float64{5, 5, 5, 5})
	ReLUBackward(g, mask)
	if g.Data[0] != 0 || g.Data[1] != 5 || g.Data[2] != 0 || g.Data[3] != 5 {
		t.Fatalf("relu backward: %v", g.Data)
	}
}

// ReLUInPlace is ReLU without the mask: the same values, NaN and -0 included.
func TestReLUInPlaceMatchesReLU(t *testing.T) {
	m := NewMat(1, 6)
	copy(m.Data, []float64{-1, 2, 0, math.Copysign(0, -1), math.NaN(), math.Inf(1)})
	ref := m.Clone()
	ReLU(ref)
	ReLUInPlace(m)
	for i := range m.Data {
		if math.Float64bits(m.Data[i]) != math.Float64bits(ref.Data[i]) {
			t.Fatalf("entry %d: %v, ReLU gives %v", i, m.Data[i], ref.Data[i])
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
	if math.Abs(grad.At(0, 0)-(0.25-1)/2) > 1e-12 {
		t.Fatalf("grad = %v", grad.Row(0))
	}
	if math.Abs(grad.At(0, 1)-0.25/2) > 1e-12 {
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
