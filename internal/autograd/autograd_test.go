package autograd

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

// Exp and Sigmoid are ops no model uses; they stay here as smooth ops
// whose backward reads the op's own output, for the gradient checks.

type expOp struct{}

func (expOp) backward(_ []*Value, output, grad *Value, _ []bool) []*Value {
	return []*Value{Mul(grad, output)}
}

// Exp returns the element-wise exponential of a.
func Exp(a *Value) *Value {
	return newValue(a.data.Apply(math.Exp), expOp{}, a)
}

type sigmoidOp struct{}

func (sigmoidOp) backward(_ []*Value, output, grad *Value, _ []bool) []*Value {
	return []*Value{Mul(grad, Mul(output, AddScalar(Neg(output), 1)))}
}

// Sigmoid returns 1/(1+exp(-a)) element-wise.
func Sigmoid(a *Value) *Value {
	out := a.data.Apply(func(v float64) float64 { return 1 / (1 + math.Exp(-v)) })
	return newValue(out, sigmoidOp{}, a)
}

// numericGrad estimates d f / d x with central finite differences.
func numericGrad(f func() float64, x *tensor.Dense) *tensor.Dense {
	const h = 1e-5
	out := tensor.New(x.Rows(), x.Cols())
	for i := 0; i < x.Rows(); i++ {
		for j := 0; j < x.Cols(); j++ {
			orig := x.At(i, j)
			x.Set(i, j, orig+h)
			fp := f()
			x.Set(i, j, orig-h)
			fm := f()
			x.Set(i, j, orig)
			out.Set(i, j, (fp-fm)/(2*h))
		}
	}
	return out
}

// checkGrad verifies the analytic gradient of a scalar-valued function
// against finite differences on every listed variable.
func checkGrad(t *testing.T, name string, f func() *Value, vars ...*Value) {
	t.Helper()
	y := f()
	grads := Grad(y, vars...)
	for vi, v := range vars {
		num := numericGrad(func() float64 { return f().Item() }, v.Data())
		if !grads[vi].Data().AllClose(num, 1e-4) {
			t.Errorf("%s: analytic grad of var %d = %v, numeric = %v", name, vi, grads[vi].Data(), num)
		}
	}
}

func randVar(rng *rand.Rand, r, c int) *Value {
	return Var(tensor.Randn(rng, r, c, 0, 1))
}

func TestGradBinaryOps(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randVar(rng, 3, 4)
	b := randVar(rng, 3, 4)
	tests := []struct {
		name string
		f    func() *Value
	}{
		{"add", func() *Value { return SumAll(Add(a, b)) }},
		{"sub", func() *Value { return SumAll(Square(Sub(a, b))) }},
		{"mul", func() *Value { return SumAll(Mul(a, b)) }},
		{"div", func() *Value { return SumAll(Div(a, AddScalar(Square(b), 1))) }},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) { checkGrad(t, tc.name, tc.f, a, b) })
	}
}

func TestGradBroadcastOps(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randVar(rng, 4, 3)
	row := randVar(rng, 1, 3)
	col := randVar(rng, 4, 1)
	scalar := randVar(rng, 1, 1)
	tests := []struct {
		name string
		f    func() *Value
		vars []*Value
	}{
		{"add row", func() *Value { return SumAll(Square(Add(a, row))) }, []*Value{a, row}},
		{"mul col", func() *Value { return SumAll(Square(Mul(a, col))) }, []*Value{a, col}},
		{"sub scalar", func() *Value { return SumAll(Square(Sub(a, scalar))) }, []*Value{a, scalar}},
		{"div row", func() *Value { return SumAll(Div(a, AddScalar(Square(row), 1))) }, []*Value{a, row}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) { checkGrad(t, tc.name, tc.f, tc.vars...) })
	}
}

func TestGradMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randVar(rng, 3, 5)
	b := randVar(rng, 5, 2)
	checkGrad(t, "matmul", func() *Value { return SumAll(Square(MatMul(a, b))) }, a, b)
}

func TestGradUnaryOps(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randVar(rng, 3, 3)
	pos := Var(tensor.RandUniform(rng, 3, 3, 0.5, 2.0))
	tests := []struct {
		name string
		f    func() *Value
		v    *Value
	}{
		{"neg", func() *Value { return SumAll(Neg(Square(a))) }, a},
		{"scale", func() *Value { return SumAll(Scale(Square(a), 2.5)) }, a},
		{"addScalar", func() *Value { return SumAll(Square(AddScalar(a, 3))) }, a},
		{"sqrt", func() *Value { return SumAll(Sqrt(pos)) }, pos},
		{"exp", func() *Value { return SumAll(Exp(a)) }, a},
		{"log", func() *Value { return SumAll(Log(pos)) }, pos},
		{"tanh", func() *Value { return SumAll(Tanh(a)) }, a},
		{"sigmoid", func() *Value { return SumAll(Sigmoid(a)) }, a},
		{"relu", func() *Value { return SumAll(Square(ReLU(a))) }, a},
		{"leakyrelu", func() *Value { return SumAll(Square(LeakyReLU(a, 0.2))) }, a},
		{"transpose", func() *Value { return SumAll(Square(Transpose(a))) }, a},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) { checkGrad(t, tc.name, tc.f, tc.v) })
	}
}

func TestGradSoftmax(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randVar(rng, 4, 5)
	w := Const(tensor.Randn(rng, 4, 5, 0, 1))
	checkGrad(t, "softmax", func() *Value { return SumAll(Mul(SoftmaxRows(a), w)) }, a)
}

func TestGradShapeOps(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := randVar(rng, 3, 4)
	b := randVar(rng, 3, 2)
	small := randVar(rng, 1, 4)
	idx := []int{2, 0, 0, 1}
	tests := []struct {
		name string
		f    func() *Value
		vars []*Value
	}{
		{"concat", func() *Value { return SumAll(Square(ConcatCols(a, b))) }, []*Value{a, b}},
		{"slice", func() *Value { return SumAll(Square(SliceCols(a, 1, 3))) }, []*Value{a}},
		{"pad", func() *Value { return SumAll(Square(PadCols(b, 1, 5))) }, []*Value{b}},
		{"gather", func() *Value { return SumAll(Square(GatherRows(a, idx))) }, []*Value{a}},
		{"scatter", func() *Value { return SumAll(Square(ScatterRows(GatherRows(a, idx), idx, 3))) }, []*Value{a}},
		{"expand", func() *Value { return SumAll(Square(Expand(small, 3, 4))) }, []*Value{small}},
		{"sumCols", func() *Value { return SumAll(Square(SumCols(a))) }, []*Value{a}},
		{"sumRows", func() *Value { return SumAll(Square(SumRows(a))) }, []*Value{a}},
		{"meanRows", func() *Value { return SumAll(Square(MeanRows(a))) }, []*Value{a}},
		{"rowNorm", func() *Value { return SumAll(RowL2Norm(a, 1e-12)) }, []*Value{a}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) { checkGrad(t, tc.name, tc.f, tc.vars...) })
	}
}

func TestGradMLPChain(t *testing.T) {
	// A two-layer network with every op class in one graph.
	rng := rand.New(rand.NewSource(7))
	x := Const(tensor.Randn(rng, 6, 4, 0, 1))
	w1 := randVar(rng, 4, 5)
	b1 := randVar(rng, 1, 5)
	w2 := randVar(rng, 5, 1)
	b2 := randVar(rng, 1, 1)
	f := func() *Value {
		h := LeakyReLU(Add(MatMul(x, w1), b1), 0.2)
		out := Add(MatMul(h, w2), b2)
		return MeanAll(Square(out))
	}
	checkGrad(t, "mlp", f, w1, b1, w2, b2)
}

func TestGradUnreachableIsZero(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := randVar(rng, 2, 2)
	b := randVar(rng, 3, 3)
	g := Grad(SumAll(a), b)
	if g[0].Data().Norm() != 0 {
		t.Fatalf("unreachable var gradient = %v, want zeros", g[0].Data())
	}
	if r, c := g[0].Shape(); r != 3 || c != 3 {
		t.Fatalf("unreachable var gradient shape %dx%d, want 3x3", r, c)
	}
}

func TestGradAccumulatesFanOut(t *testing.T) {
	a := Var(tensor.Scalar(3))
	y := Add(Mul(a, a), a) // y = a^2 + a, dy/da = 2a+1 = 7
	g := Grad(y, a)
	if got := g[0].Item(); math.Abs(got-7) > 1e-12 {
		t.Fatalf("fan-out grad = %v want 7", got)
	}
}

func TestDetachStopsGradient(t *testing.T) {
	a := Var(tensor.Scalar(2))
	y := Mul(a.Detach(), a) // treated as const*a, dy/da = 2
	g := Grad(y, a)
	if got := g[0].Item(); math.Abs(got-2) > 1e-12 {
		t.Fatalf("detached grad = %v want 2", got)
	}
}

// TestSecondOrderCubic checks grad-of-grad on y = sum(x^3):
// dy/dx = 3x^2 and d(sum(dy/dx))/dx = 6x.
func TestSecondOrderCubic(t *testing.T) {
	x := Var(tensor.FromRows([][]float64{{1, -2}, {0.5, 3}}))
	y := SumAll(Mul(Square(x), x))
	g1 := Grad(y, x)[0]
	g2 := Grad(SumAll(g1), x)[0]
	want := x.Data().Scale(6)
	if !g2.Data().AllClose(want, 1e-9) {
		t.Fatalf("second-order grad = %v want %v", g2.Data(), want)
	}
}

// TestSecondOrderGradientPenalty exercises the exact double-backprop shape
// used by WGAN-GP: a penalty on the input-gradient norm of a small
// discriminator, differentiated with respect to the weights.
func TestSecondOrderGradientPenalty(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	x := Const(tensor.Randn(rng, 5, 3, 0, 1))
	w1 := randVar(rng, 3, 4)
	w2 := randVar(rng, 4, 1)

	penalty := func() *Value {
		xv := Var(x.Data()) // differentiable input
		score := MatMul(LeakyReLU(MatMul(xv, w1), 0.2), w2)
		gradIn := Grad(score, xv)[0]
		norms := RowL2Norm(gradIn, 1e-12)
		return MeanAll(Square(AddScalar(norms, -1)))
	}

	y := penalty()
	analytic := Grad(y, w1, w2)
	for vi, v := range []*Value{w1, w2} {
		num := numericGrad(func() float64 { return penalty().Item() }, v.Data())
		if !analytic[vi].Data().AllClose(num, 1e-3) {
			t.Errorf("gradient-penalty second-order grad of w%d mismatch:\nanalytic %v\nnumeric  %v",
				vi+1, analytic[vi].Data(), num)
		}
	}
}

func TestGradWithSeed(t *testing.T) {
	a := Var(tensor.FromRows([][]float64{{1, 2}, {3, 4}}))
	y := Square(a)
	seed := Const(tensor.FromRows([][]float64{{1, 0}, {0, 2}}))
	g := GradWithSeed(y, seed, a)[0]
	want := tensor.FromRows([][]float64{{2, 0}, {0, 16}}) // 2*a*seed
	if !g.Data().AllClose(want, 1e-12) {
		t.Fatalf("seeded grad = %v want %v", g.Data(), want)
	}
}

func TestItemPanicsOnMatrix(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Var(tensor.New(2, 2)).Item()
}

// Property: for random polynomials p(x) = sum(a*x^2 + b*x), the analytic
// gradient 2*a*x + b matches Grad.
func TestQuickPolynomialGrad(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		x := Var(tensor.Randn(rng, 1, n, 0, 1))
		a := tensor.Randn(rng, 1, n, 0, 1)
		b := tensor.Randn(rng, 1, n, 0, 1)
		y := SumAll(Add(Mul(Const(a), Square(x)), Mul(Const(b), x)))
		g := Grad(y, x)[0]
		want := tensor.Add(tensor.Mul(a.Scale(2), x.Data()), b)
		return g.Data().AllClose(want, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkForwardBackwardMLP(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	x := Const(tensor.Randn(rng, 64, 32, 0, 1))
	w1 := randVar(rng, 32, 64)
	w2 := randVar(rng, 64, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		y := MeanAll(Square(MatMul(LeakyReLU(MatMul(x, w1), 0.2), w2)))
		Grad(y, w1, w2)
	}
}

func BenchmarkGradientPenalty(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	x := tensor.Randn(rng, 64, 32, 0, 1)
	w1 := randVar(rng, 32, 64)
	w2 := randVar(rng, 64, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		xv := Var(x)
		score := MatMul(LeakyReLU(MatMul(xv, w1), 0.2), w2)
		gradIn := Grad(score, xv)[0]
		pen := MeanAll(Square(AddScalar(RowL2Norm(gradIn, 1e-12), -1)))
		Grad(pen, w1, w2)
	}
}

func TestSecondOrderThroughExpLog(t *testing.T) {
	// y = sum(exp(log(x)^2)): both exp and log must support grad-of-grad.
	x := Var(tensor.FromRows([][]float64{{1.5, 2.5}}))
	y := SumAll(Exp(Square(Log(x))))
	g1 := Grad(y, x)[0]
	g2 := Grad(SumAll(g1), x)[0]
	// Verify second order numerically.
	const h = 1e-4
	for j := 0; j < 2; j++ {
		orig := x.Data().At(0, j)
		grad := func(v float64) float64 {
			x.Data().Set(0, j, v)
			yy := SumAll(Exp(Square(Log(x))))
			gg := Grad(yy, x)[0].Data().At(0, j)
			x.Data().Set(0, j, orig)
			return gg
		}
		num := (grad(orig+h) - grad(orig-h)) / (2 * h)
		if math.Abs(g2.Data().At(0, j)-num) > 1e-3 {
			t.Fatalf("second-order at %d: analytic %v numeric %v", j, g2.Data().At(0, j), num)
		}
	}
}

func TestReduceToUnsupportedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	// 3x4 cannot reduce to 2x2.
	g := Const(tensor.New(3, 4))
	reduceTo(g, 2, 2)
}

func TestGradWithSeedShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	x := Var(tensor.New(2, 2))
	GradWithSeed(Square(x), Const(tensor.New(1, 1)), x)
}

func TestPadColsOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	PadCols(Const(tensor.New(1, 3)), 2, 4)
}

func TestScatterRowsLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ScatterRows(Const(tensor.New(2, 2)), []int{0}, 4)
}

func TestMeanAllEmptyAndScalar(t *testing.T) {
	if got := MeanAll(Const(tensor.New(0, 0))).Item(); got != 0 {
		t.Fatalf("MeanAll(empty) = %v", got)
	}
	if got := Scalar(3.5).Item(); got != 3.5 {
		t.Fatalf("Scalar = %v", got)
	}
}

func TestGradReshape(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	a := randVar(rng, 4, 6)
	w := Const(tensor.Randn(rng, 2, 12, 0, 1))
	checkGrad(t, "reshape", func() *Value {
		return SumAll(Square(Mul(Reshape(a, 2, 12), w)))
	}, a)
}

func TestReshapeBadShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Reshape(Const(tensor.New(2, 3)), 4, 4)
}
