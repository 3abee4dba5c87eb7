package nn

import (
	"math"
	"testing"

	"prophet/internal/tensor"
)

func smallNet() *MLP { return NewMLP([]int{4, 8, 3}, 7) }

func TestTensorEnumeration(t *testing.T) {
	m := smallNet()
	ts := m.Tensors()
	if len(ts) != 4 {
		t.Fatalf("tensors = %d, want 4 (2 layers × W,b)", len(ts))
	}
	want := []Tensor{
		{Index: 0, Layer: 0, IsBias: false, Elems: 32},
		{Index: 1, Layer: 0, IsBias: true, Elems: 8},
		{Index: 2, Layer: 1, IsBias: false, Elems: 24},
		{Index: 3, Layer: 1, IsBias: true, Elems: 3},
	}
	for i, w := range want {
		if ts[i] != w {
			t.Fatalf("tensor %d = %+v, want %+v", i, ts[i], w)
		}
	}
	if m.TotalParams() != 32+8+24+3 {
		t.Fatalf("total params %d", m.TotalParams())
	}
}

func TestBackwardEmissionOrder(t *testing.T) {
	// Gradients must emit back-to-front: tensor 3, 2, 1, 0.
	m := smallNet()
	ds := Blobs(8, 4, 3, 1)
	x, labels := ds.Batch(0, 8)
	logits := m.Forward(x)
	var order []int
	m.Backward(logits, labels, func(idx int) { order = append(order, idx) })
	want := []int{3, 2, 1, 0}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestGradientsNumerically(t *testing.T) {
	m := smallNet()
	ds := Blobs(6, 4, 3, 2)
	x, labels := ds.Batch(0, 6)
	logits := m.Forward(x)
	m.Backward(logits, labels, nil)

	const eps = 1e-6
	for idx := 0; idx < m.NumTensors(); idx++ {
		params := m.ParamData(idx)
		grads := m.GradData(idx).Clone()
		// Check a few entries per tensor to keep the test fast.
		stride := len(params)/5 + 1
		for i := 0; i < len(params); i += stride {
			old := params[i]
			params[i] = old + eps
			lossPlus := m.Loss(x, labels)
			params[i] = old - eps
			lossMinus := m.Loss(x, labels)
			params[i] = old
			numeric := (lossPlus - lossMinus) / (2 * eps)
			if math.Abs(numeric-grads[i]) > 1e-5*(1+math.Abs(numeric)) {
				t.Fatalf("tensor %d grad[%d] = %v, numeric %v", idx, i, grads[i], numeric)
			}
		}
	}
}

func TestTrainingConverges(t *testing.T) {
	m := NewMLP([]int{8, 32, 4}, 3)
	ds := Blobs(512, 8, 4, 4)
	first := m.Loss(ds.X, ds.Labels)
	batch := 64
	for epoch := 0; epoch < 20; epoch++ {
		for lo := 0; lo+batch <= ds.X.Rows; lo += batch {
			x, labels := ds.Batch(lo, lo+batch)
			logits := m.Forward(x)
			m.Backward(logits, labels, nil)
			m.Step(0.1)
		}
	}
	last := m.Loss(ds.X, ds.Labels)
	if last >= first/4 {
		t.Fatalf("loss did not converge: %v -> %v", first, last)
	}
	if _, acc := m.Evaluate(ds.X, ds.Labels); acc < 0.9 {
		t.Fatalf("accuracy %v < 0.9", acc)
	}
}

// TestEvaluationMatchesWholeBatch: Loss and Evaluate walk the dataset a
// block at a time, and must return exactly — bit for bit — what one
// whole-batch Forward followed by SoftmaxCrossEntropy or a row-wise argmax
// does, at initialisation and after training, on a row count the block does
// not divide.
func TestEvaluationMatchesWholeBatch(t *testing.T) {
	wholeBatch := func(m *MLP, ds *Dataset) (loss, acc float64) {
		logits := m.Forward(ds.X)
		loss = tensor.SoftmaxCrossEntropy(tensor.NewMat(logits.Rows, logits.Cols), logits, ds.Labels)
		correct := 0
		for r := 0; r < logits.Rows; r++ {
			row := logits.Row(r)
			best := 0
			for c, v := range row {
				if v > row[best] {
					best = c
				}
			}
			if best == ds.Labels[r] {
				correct++
			}
		}
		return loss, float64(correct) / float64(logits.Rows)
	}
	for _, sizes := range [][]int{{16, 32, 32, 4}, {16, 128, 128, 4}, {16, 8, 4}} {
		for seed := uint64(1); seed <= 5; seed++ {
			m := NewMLP(sizes, seed)
			ds := Blobs(2007, 16, 4, seed)
			check := func(when string) {
				t.Helper()
				loss, acc := wholeBatch(m, ds)
				if got := m.Loss(ds.X, ds.Labels); math.Float64bits(got) != math.Float64bits(loss) {
					t.Errorf("%v seed %d %s: Loss %v, whole batch %v", sizes, seed, when, got, loss)
				}
				gotLoss, got := m.Evaluate(ds.X, ds.Labels)
				if math.Float64bits(gotLoss) != math.Float64bits(loss) {
					t.Errorf("%v seed %d %s: Evaluate's loss %v, whole batch %v", sizes, seed, when, gotLoss, loss)
				}
				if math.Float64bits(got) != math.Float64bits(acc) {
					t.Errorf("%v seed %d %s: Evaluate's accuracy %v, whole batch %v", sizes, seed, when, got, acc)
				}
			}
			check("at init")
			for step := 0; step < 20; step++ {
				x, labels := ds.Batch(step*32, step*32+32)
				m.Backward(m.Forward(x), labels, nil)
				m.Step(0.1)
			}
			check("after 20 steps")
		}
	}
}

// TestTrainingAllocations pins a warm training step of the live-ring MLP and
// a full-dataset evaluation to nothing: Forward and Backward reuse the
// activations, masks and gradients of the last step of the same batch size,
// and the kernels underneath allocate nothing of their own.
func TestTrainingAllocations(t *testing.T) {
	m := NewMLP([]int{16, 32, 32, 4}, 1)
	ds := Blobs(2048, 16, 4, 1)
	x, labels := ds.Batch(0, 16)
	for _, tc := range []struct {
		name string
		want float64
		run  func()
	}{
		// Forward, Backward and Step write buffers the first step of
		// this batch size allocated.
		{"Forward+Backward+Step", 0, func() {
			m.Backward(m.Forward(x), labels, nil)
			m.Step(0.05)
		}},
		// Evaluation walks the dataset in scratch the MLP already owns.
		{"full-dataset Loss", 0, func() { m.Loss(ds.X, ds.Labels) }},
		{"full-dataset Evaluate", 0, func() { m.Evaluate(ds.X, ds.Labels) }},
	} {
		tc.run()
		if got := testing.AllocsPerRun(10, tc.run); got != tc.want {
			t.Errorf("%s allocates %v times, want %v", tc.name, got, tc.want)
		}
	}
}

// BenchmarkLoss times one full-dataset evaluation — worker 0's per-iteration
// Loss on the live path — at the MLP shapes of the live-ring and
// live-ps-shaped workloads: the benchmark's nn.loss_eval_ms, per op.
func BenchmarkLoss(b *testing.B) {
	for _, bc := range []struct {
		name  string
		sizes []int
	}{
		{"live-ring", []int{16, 32, 32, 4}},
		{"live-ps-shaped", []int{16, 128, 128, 4}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			m := NewMLP(bc.sizes, 1)
			ds := Blobs(2048, 16, 4, 1)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m.Loss(ds.X, ds.Labels)
			}
		})
	}
}

func TestDeterministicInit(t *testing.T) {
	a := NewMLP([]int{4, 8, 3}, 42)
	b := NewMLP([]int{4, 8, 3}, 42)
	for idx := 0; idx < a.NumTensors(); idx++ {
		pa, pb := a.ParamData(idx), b.ParamData(idx)
		for i := range pa {
			if pa[i] != pb[i] {
				t.Fatalf("tensor %d differs at %d", idx, i)
			}
		}
	}
	c := NewMLP([]int{4, 8, 3}, 43)
	if c.ParamData(0)[0] == a.ParamData(0)[0] {
		t.Fatal("different seeds gave identical weights")
	}
}

func TestSetGradReplacesStorage(t *testing.T) {
	m := smallNet()
	ds := Blobs(4, 4, 3, 5)
	x, labels := ds.Batch(0, 4)
	m.Backward(m.Forward(x), labels, nil)
	repl := tensor.NewVec(len(m.GradData(0)))
	for i := range repl {
		repl[i] = 1
	}
	m.SetGrad(0, repl)
	if m.GradData(0)[0] != 1 {
		t.Fatal("SetGrad did not take")
	}
}

func TestSetGradLengthPanics(t *testing.T) {
	m := smallNet()
	ds := Blobs(4, 4, 3, 5)
	x, labels := ds.Batch(0, 4)
	m.Backward(m.Forward(x), labels, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	m.SetGrad(0, tensor.NewVec(1))
}

func TestBlobsShapeAndDeterminism(t *testing.T) {
	a := Blobs(100, 5, 3, 9)
	b := Blobs(100, 5, 3, 9)
	if a.X.Rows != 100 || a.X.Cols != 5 || len(a.Labels) != 100 {
		t.Fatal("bad shape")
	}
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			t.Fatal("labels nondeterministic")
		}
	}
	for i := range a.X.Data {
		if a.X.Data[i] != b.X.Data[i] {
			t.Fatal("features nondeterministic")
		}
	}
	for _, l := range a.Labels {
		if l < 0 || l >= 3 {
			t.Fatalf("label %d out of range", l)
		}
	}
}

func TestBatchViewIsLive(t *testing.T) {
	ds := Blobs(10, 2, 2, 1)
	x, _ := ds.Batch(2, 5)
	if x.Rows != 3 || x.Cols != 2 {
		t.Fatalf("batch shape %dx%d", x.Rows, x.Cols)
	}
	x.Set(0, 0, 123)
	if ds.X.Row(2)[0] != 123 {
		t.Fatal("batch is not a view")
	}
}

func TestBatchBadRangePanics(t *testing.T) {
	ds := Blobs(10, 2, 2, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	ds.Batch(5, 3)
}

func TestNewMLPTooFewSizesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewMLP([]int{3}, 1)
}
