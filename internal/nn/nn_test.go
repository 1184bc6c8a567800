package nn

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	ag "repro/internal/autograd"
	"repro/internal/binfmt"
	"repro/internal/snap"
	"repro/internal/tensor"
)

func TestLinearShapesAndForward(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewLinear(rng, 4, 3)
	if l.In() != 4 || l.Out() != 3 {
		t.Fatalf("In/Out = %d/%d", l.In(), l.Out())
	}
	x := ag.Const(tensor.Randn(rng, 5, 4, 0, 1))
	y := l.Forward(x, true)
	if r, c := y.Shape(); r != 5 || c != 3 {
		t.Fatalf("forward shape = %dx%d", r, c)
	}
	// y = xW + b exactly.
	want := tensor.Add(tensor.MatMul(x.Data(), l.W.Data()), l.B.Data())
	if !y.Data().AllClose(want, 1e-12) {
		t.Fatal("linear forward mismatch")
	}
}

func TestLinearGradientDescentFitsLine(t *testing.T) {
	// A single linear layer should fit y = 2x + 1 almost exactly.
	rng := rand.New(rand.NewSource(2))
	l := NewLinear(rng, 1, 1)
	x := tensor.RandUniform(rng, 64, 1, -1, 1)
	y := tensor.Add(x.Scale(2), tensor.Full(64, 1, 1))
	var loss float64
	for i := 0; i < 200; i++ {
		pred := l.Forward(ag.Const(x), true)
		lv := ag.MeanAll(ag.Square(ag.Sub(pred, ag.Const(y))))
		loss = lv.Item()
		// A hand-rolled descent step: the layer is what is under test.
		for i, g := range Grads(lv, l) {
			l.Params()[i].Data().AxpyInPlace(-0.1, g.Data())
		}
	}
	if loss > 1e-4 {
		t.Fatalf("final loss %v, want < 1e-4", loss)
	}
	if math.Abs(l.W.Data().At(0, 0)-2) > 0.05 || math.Abs(l.B.Data().At(0, 0)-1) > 0.05 {
		t.Fatalf("fitted W=%v B=%v want 2, 1", l.W.Data().At(0, 0), l.B.Data().At(0, 0))
	}
}

func TestBatchNormTrainStats(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	bn := NewBatchNorm(3)
	x := ag.Const(tensor.Randn(rng, 128, 3, 5, 2)) // mean 5, std 2
	y := bn.Forward(x, true)
	mean := y.Data().MeanRows()
	for j := 0; j < 3; j++ {
		if math.Abs(mean.At(0, j)) > 1e-9 {
			t.Fatalf("normalized column %d mean = %v", j, mean.At(0, j))
		}
	}
	// Column variance should be ~1.
	centered := tensor.Sub(y.Data(), mean)
	variance := tensor.Mul(centered, centered).MeanRows()
	for j := 0; j < 3; j++ {
		if math.Abs(variance.At(0, j)-1) > 1e-4 {
			t.Fatalf("normalized column %d variance = %v", j, variance.At(0, j))
		}
	}
}

func TestBatchNormEvalUsesRunningStats(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	bn := NewBatchNorm(2)
	// Feed many training batches so running stats converge to (5, 4).
	for i := 0; i < 200; i++ {
		bn.Forward(ag.Const(tensor.Randn(rng, 256, 2, 5, 2)), true)
	}
	// In eval mode a batch at the training mean should map near zero.
	y := bn.Forward(ag.Const(tensor.Full(4, 2, 5)), false)
	for j := 0; j < 2; j++ {
		if math.Abs(y.Data().At(0, j)) > 0.2 {
			t.Fatalf("eval output at running mean = %v, want ~0", y.Data().At(0, j))
		}
	}
}

func TestBatchNormGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	bn := NewBatchNorm(3)
	xd := tensor.Randn(rng, 6, 3, 0, 1)
	f := func() *ag.Value {
		// Re-create running-stat side effects deterministically per call.
		return ag.SumAll(ag.Square(bn.Forward(ag.Const(xd), true)))
	}
	y := f()
	grads := ag.Grad(y, bn.Gamma, bn.Beta)
	const h = 1e-5
	for vi, p := range []*ag.Value{bn.Gamma, bn.Beta} {
		for j := 0; j < 3; j++ {
			orig := p.Data().At(0, j)
			p.Data().Set(0, j, orig+h)
			fp := f().Item()
			p.Data().Set(0, j, orig-h)
			fm := f().Item()
			p.Data().Set(0, j, orig)
			num := (fp - fm) / (2 * h)
			if math.Abs(grads[vi].Data().At(0, j)-num) > 1e-3 {
				t.Fatalf("batchnorm param %d[%d] grad %v numeric %v", vi, j, grads[vi].Data().At(0, j), num)
			}
		}
	}
}

func TestDropout(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	d := NewDropout(rng, 0.5)
	x := ag.Const(tensor.Full(100, 100, 1))
	yTrain := d.Forward(x, true)
	zeros := 0
	for _, v := range yTrain.Data().Data() {
		switch v {
		case 0:
			zeros++
		case 2:
			// kept and rescaled by 1/(1-0.5)
		default:
			t.Fatalf("dropout produced value %v, want 0 or 2", v)
		}
	}
	frac := float64(zeros) / 10000
	if frac < 0.4 || frac > 0.6 {
		t.Fatalf("dropout zero fraction = %v, want ~0.5", frac)
	}
	if yEval := d.Forward(x, false); !yEval.Data().Equal(x.Data()) {
		t.Fatal("dropout must be identity in eval mode")
	}
}

func TestResidualBlockConcatenates(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rb := NewResidualBlock(rng, 4, 6)
	x := ag.Const(tensor.Randn(rng, 3, 4, 0, 1))
	y := rb.Forward(x, true)
	if _, c := y.Shape(); c != 10 {
		t.Fatalf("residual output width = %d want 10", c)
	}
	if rb.OutWidth() != 10 {
		t.Fatalf("OutWidth = %d want 10", rb.OutWidth())
	}
	// The trailing columns must be the unchanged input (skip connection).
	tail := y.Data().SliceCols(6, 10)
	if !tail.Equal(x.Data()) {
		t.Fatal("residual block must pass input through unchanged")
	}
}

func TestDiscBlockShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	db := NewDiscBlock(rng, 5, 7)
	x := ag.Const(tensor.Randn(rng, 4, 5, 0, 1))
	y := db.Forward(x, false)
	if r, c := y.Shape(); r != 4 || c != 7 {
		t.Fatalf("disc block output %dx%d want 4x7", r, c)
	}
}

func TestSequentialComposesAndCollectsParams(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	seq := NewSequential(
		NewLinear(rng, 3, 8),
		ReLU{},
		NewLinear(rng, 8, 2),
	)
	if got := len(seq.Params()); got != 4 {
		t.Fatalf("params = %d want 4", got)
	}
	x := ag.Const(tensor.Randn(rng, 5, 3, 0, 1))
	if r, c := seq.Forward(x, true).Shape(); r != 5 || c != 2 {
		t.Fatalf("sequential output %dx%d", r, c)
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimize f(w) = ||w - target||^2 with Adam.
	target := tensor.FromRows([][]float64{{1, -2, 3}})
	w := ag.Var(tensor.New(1, 3))
	opt := NewAdam(0.05)
	opt.WeightDecay = 0
	for i := 0; i < 500; i++ {
		loss := ag.SumAll(ag.Square(ag.Sub(w, ag.Const(target))))
		g := ag.Grad(loss, w)
		opt.Step([]*ag.Value{w}, g)
	}
	if !w.Data().AllClose(target, 1e-2) {
		t.Fatalf("Adam converged to %v want %v", w.Data(), target)
	}
}

// TestAdamStepRejectsMisshapenGradient: a gradient with its parameter's
// element count but another shape (here the transpose) is refused with a
// panic that names the parameter and both shapes, before any parameter —
// the well-shaped one ahead of it included — or the step count moves.
func TestAdamStepRejectsMisshapenGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	params := []*ag.Value{ag.Var(tensor.Randn(rng, 2, 2, 0, 1)), ag.Var(tensor.Randn(rng, 2, 3, 0, 1))}
	before := []*tensor.Dense{params[0].Data().Clone(), params[1].Data().Clone()}
	grads := []*ag.Value{ag.Const(tensor.Randn(rng, 2, 2, 0, 1)), ag.Const(tensor.Randn(rng, 3, 2, 0, 1))}
	opt := NewAdam(0.1)
	func() {
		defer func() {
			const want = "nn: Adam.Step param 1 is 2x3, its gradient 3x2"
			if r := recover(); r != want {
				t.Fatalf("panic %v, want %q", r, want)
			}
		}()
		opt.Step(params, grads)
	}()
	for i, p := range params {
		if !p.Data().Equal(before[i]) {
			t.Errorf("param %d changed by a refused step", i)
		}
	}
	if st := opt.StateFor(params); st.T != 0 || st.M[0] != nil {
		t.Errorf("a refused step left step count %d and moments %v", st.T, st.M)
	}
}

// TestAdamRestoreRejectsStepCount: a checkpoint's step count must leave a
// next step with positive bias corrections and no overflow.
func TestAdamRestoreRejectsStepCount(t *testing.T) {
	params := []*ag.Value{ag.Var(tensor.New(1, 3))}
	for _, bad := range []int{-1, math.MinInt, math.MaxInt} {
		opt := NewAdam(0.1)
		err := opt.Restore(params, AdamState{T: bad, M: make([]*tensor.Dense, 1), V: make([]*tensor.Dense, 1)})
		if err == nil || !strings.Contains(err.Error(), "step count T") {
			t.Errorf("T = %d: Restore returned %v, want an error naming the step count T", bad, err)
		}
	}
	opt := NewAdam(0.1)
	if err := opt.Restore(params, AdamState{T: math.MaxInt - 1, M: make([]*tensor.Dense, 1), V: make([]*tensor.Dense, 1)}); err != nil {
		t.Errorf("T = MaxInt-1: %v", err)
	}
}

// encodedParams returns EncodeParams' bytes for l.
func encodedParams(l Layer) []byte {
	var e snap.Enc
	EncodeParams(&e, l)
	return e.Buf
}

func TestEncodeRestoreParamsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	build := func() *Sequential {
		return NewSequential(NewLinear(rng, 3, 4), NewBatchNorm(4), ReLU{}, NewResidualBlock(rng, 4, 3), NewLinear(rng, 7, 2))
	}
	src, dst := build(), build()
	// Two training-mode passes move src's running statistics off their
	// initial values, so the round trip has to carry them.
	for i := 0; i < 2; i++ {
		src.Forward(ag.Const(tensor.Randn(rng, 6, 3, 1, 2)), true)
	}
	if bytes.Equal(encodedParams(src), encodedParams(dst)) {
		t.Fatal("the two replicas already agree; the test would prove nothing")
	}

	d := snap.NewDec(encodedParams(src))
	RestoreParams(d, dst)
	if err := d.Finish(); err != nil {
		t.Fatalf("RestoreParams: %v", err)
	}
	if !bytes.Equal(encodedParams(src), encodedParams(dst)) {
		t.Fatal("restored layer re-encodes differently")
	}
	// Evaluation mode reads the running statistics, which Params() omits.
	x := ag.Const(tensor.Randn(rng, 5, 3, 0, 1))
	if !src.Forward(x, false).Data().Equal(dst.Forward(x, false).Data()) {
		t.Fatal("restored model evaluates differently from the encoded one")
	}
}

func TestRestoreParamsMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	src := NewSequential(NewLinear(rng, 3, 4), NewBatchNorm(4))
	full := encodedParams(src)
	var nilParam, nilStat snap.Enc
	nilParam.U32(2)
	nilParam.Matrix(tensor.New(3, 4))
	nilParam.Matrix(nil)
	nilStat.U32(2)
	nilStat.Matrix(tensor.New(1, 4))
	nilStat.Matrix(tensor.New(1, 4))
	nilStat.U32(1)
	nilStat.Matrix(nil)
	extraStat := snap.Enc{Writer: binfmt.Writer{Buf: encodedParams(NewLinear(rng, 3, 4))}}
	extraStat.Buf = extraStat.Buf[:len(extraStat.Buf)-4] // drop the zero statistics count
	extraStat.U32(1)
	extraStat.Matrix(tensor.New(1, 4))
	extraStat.Matrix(tensor.New(1, 4))

	for _, c := range []struct {
		name    string
		payload []byte
		dst     Layer
	}{
		{"more params than the layer", full, NewLinear(rng, 3, 4)},
		{"fewer params than the layer", full, NewSequential(NewLinear(rng, 3, 4), NewBatchNorm(4), NewLinear(rng, 4, 1))},
		{"param shape", full, NewSequential(NewLinear(rng, 3, 5), NewBatchNorm(4))},
		{"batch-norm width", full, NewSequential(NewLinear(rng, 3, 4), NewBatchNorm(5))},
		{"batch-norm count", extraStat.Buf, NewLinear(rng, 3, 4)},
		{"nil param", nilParam.Buf, NewLinear(rng, 3, 4)},
		{"nil running statistic", nilStat.Buf, NewBatchNorm(4)},
		{"truncated", full[:len(full)-1], src},
	} {
		d := snap.NewDec(c.payload)
		RestoreParams(d, c.dst)
		if err := d.Finish(); err == nil {
			t.Errorf("%s: RestoreParams accepted the snapshot", c.name)
		}
	}
}

// TestRestoreParamsReleasesDecodeBuffers restores a snapshot whose last
// matrix has the wrong shape, over and over: each attempt decodes three
// 32 KiB matrices before it fails, and all three must go back to the tensor
// free list. Leaking even one of them per attempt would allocate it afresh
// every time; recycling allocates next to nothing.
func TestRestoreParamsReleasesDecodeBuffers(t *testing.T) {
	if testing.Short() {
		t.Skip("sync.Pool drops Puts at random under the race detector, which CI runs in -short mode")
	}
	rng := rand.New(rand.NewSource(12))
	payload := encodedParams(NewSequential(NewLinear(rng, 64, 64), NewLinear(rng, 64, 64), NewLinear(rng, 64, 63)))
	dst := NewSequential(NewLinear(rng, 64, 64), NewLinear(rng, 64, 64), NewLinear(rng, 64, 64))
	const runs = 40
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		d := snap.NewDec(payload)
		RestoreParams(d, dst)
		if err := d.Finish(); err == nil {
			t.Fatal("RestoreParams accepted a 64x63 matrix for a 64x64 parameter")
		}
	}
	runtime.ReadMemStats(&after)
	if got, oneLeak := after.TotalAlloc-before.TotalAlloc, uint64(runs*64*64*8); got > oneLeak/2 {
		t.Fatalf("%d failing restores allocated %d bytes; one leaked matrix per restore would be %d", runs, got, oneLeak)
	}
}

// TestXORWithMLP is an end-to-end sanity check that the full layer stack can
// learn a non-linear function.
func TestXORWithMLP(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	net := NewSequential(
		NewLinear(rng, 2, 16),
		ReLU{},
		NewLinear(rng, 16, 1),
	)
	x := tensor.FromRows([][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}})
	y := tensor.FromRows([][]float64{{0}, {1}, {1}, {0}})
	opt := NewAdam(0.02)
	opt.WeightDecay = 0
	for i := 0; i < 2000; i++ {
		pred := net.Forward(ag.Const(x), true)
		loss := ag.MeanAll(ag.Square(ag.Sub(pred, ag.Const(y))))
		opt.Step(net.Params(), Grads(loss, net))
	}
	pred := net.Forward(ag.Const(x), false).Data()
	for i := 0; i < 4; i++ {
		want := y.At(i, 0)
		got := pred.At(i, 0)
		if math.Abs(got-want) > 0.2 {
			t.Fatalf("XOR row %d: predicted %v want %v", i, got, want)
		}
	}
}
