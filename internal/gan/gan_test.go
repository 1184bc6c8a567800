package gan

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	ag "repro/internal/autograd"
	"repro/internal/condvec"
	"repro/internal/encoding"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/tensor"
)

func TestActivateOutputSpans(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Layout: scalar(1) + one-hot(3) + scalar(1).
	spans := []encoding.Span{
		{Start: 0, Width: 1, Type: encoding.SpanScalar},
		{Start: 1, Width: 3, Type: encoding.SpanOneHot},
		{Start: 4, Width: 1, Type: encoding.SpanScalar},
	}
	raw := ag.Const(tensor.Randn(rng, 8, 5, 0, 3))
	out := ActivateOutput(raw, spans, rng)
	if r, c := out.Shape(); r != 8 || c != 5 {
		t.Fatalf("shape %dx%d", r, c)
	}
	for i := 0; i < 8; i++ {
		// Scalars in [-1, 1] (tanh).
		for _, j := range []int{0, 4} {
			if v := out.Data().At(i, j); v < -1 || v > 1 {
				t.Fatalf("tanh output %v out of range", v)
			}
		}
		// One-hot block: positive, sums to 1 (softmax).
		var sum float64
		for j := 1; j < 4; j++ {
			v := out.Data().At(i, j)
			if v < 0 {
				t.Fatalf("softmax output %v negative", v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("one-hot block sums to %v", sum)
		}
	}
}

func TestSampleOutputIsOneHot(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	spans := []encoding.Span{{Start: 0, Width: 4, Type: encoding.SpanOneHot}}
	raw := tensor.Randn(rng, 10, 4, 0, 1)
	out := SampleOutput(raw, spans, rng)
	defer out.Release()
	for i := 0; i < 10; i++ {
		ones, zeros := 0, 0
		for j := 0; j < 4; j++ {
			switch out.At(i, j) {
			case 1:
				ones++
			case 0:
				zeros++
			}
		}
		if ones != 1 || zeros != 3 {
			t.Fatalf("hard sample row %d not one-hot: %v", i, out.RawRow(i))
		}
	}
}

// straightThroughSample is the synthesis sample as the autograd graph formed
// it before SampleOutput: ActivateOutput's soft sample per one-hot span,
// then soft + (one-hot of its argmax − soft).
func straightThroughSample(raw *tensor.Dense, spans []encoding.Span, rng *rand.Rand) *tensor.Dense {
	in := ag.Const(raw)
	parts := make([]*ag.Value, 0, len(spans))
	for _, sp := range spans {
		slice := ag.SliceCols(in, sp.Start, sp.End())
		if sp.Type == encoding.SpanScalar {
			parts = append(parts, ag.Tanh(slice))
			continue
		}
		soft := gumbelSoftmax(slice, rng)
		rows, cols := soft.Shape()
		onehot := tensor.NewPooledOneHot(rows, cols, soft.Data().ArgmaxRows())
		shift := tensor.Sub(onehot, soft.Data())
		parts = append(parts, ag.AddConst(soft, shift))
	}
	return ag.ConcatCols(parts...).Data()
}

// TestSampleOutputMatchesStraightThrough: SampleOutput's bits, and the draws
// it leaves rng at, are the straight-through graph's, on both kernel paths,
// for scalar spans and one-hot spans from 2 to 12 wide (Log and Exp with and
// without a vector group, and its tail), with logits large enough that rows
// saturate to exact zeros and ones.
func TestSampleOutputMatchesStraightThrough(t *testing.T) {
	var spans []encoding.Span
	start := 0
	for w := 2; w <= 12; w++ {
		spans = append(spans, encoding.Span{Start: start, Width: 1, Type: encoding.SpanScalar},
			encoding.Span{Start: start + 1, Width: w, Type: encoding.SpanOneHot})
		start += 1 + w
	}
	for _, path := range []string{"asm", "go"} {
		if !tensor.SetKernelPath(path) {
			continue
		}
		for _, scale := range []float64{1, 40} {
			raw := tensor.Randn(rand.New(rand.NewSource(6)), 37, start, 0, scale)
			gotRng, wantRng := rand.New(rand.NewSource(7)), rand.New(rand.NewSource(7))
			got := SampleOutput(raw, spans, gotRng)
			want := straightThroughSample(raw, spans, wantRng)
			for i, w := range want.Data() {
				if g := got.Data()[i]; math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("%s path, scale %v: element %d = %v, the straight-through graph %v", path, scale, i, g, w)
				}
			}
			if g, w := gotRng.Int63(), wantRng.Int63(); g != w {
				t.Fatalf("%s path: the two samples leave rng at different draws", path)
			}
			got.Release()
		}
	}
	tensor.SetKernelPath("asm")
}

func TestActivateOutputCoverageMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	rng := rand.New(rand.NewSource(3))
	ActivateOutput(ag.Const(tensor.New(2, 5)), []encoding.Span{{Start: 0, Width: 2, Type: encoding.SpanScalar}}, rng)
}

func TestActivateOutputIsDifferentiable(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	spans := []encoding.Span{
		{Start: 0, Width: 1, Type: encoding.SpanScalar},
		{Start: 1, Width: 3, Type: encoding.SpanOneHot},
	}
	x := ag.Var(tensor.Randn(rng, 4, 4, 0, 1))
	out := ActivateOutput(x, spans, rng)
	g := ag.Grad(ag.SumAll(ag.Square(out)), x)[0]
	if g.Data().Norm() == 0 {
		t.Fatal("no gradient through activations")
	}
}

func TestCriticAndGeneratorLossSigns(t *testing.T) {
	fake := ag.Const(tensor.FromRows([][]float64{{2}, {4}}))  // mean 3
	real := ag.Const(tensor.FromRows([][]float64{{10}, {0}})) // mean 5
	if got := CriticLoss(fake, real).Item(); math.Abs(got-(-2)) > 1e-12 {
		t.Fatalf("critic loss = %v want -2", got)
	}
	if got := GeneratorLoss(fake).Item(); math.Abs(got-(-3)) > 1e-12 {
		t.Fatalf("generator loss = %v want -3", got)
	}
}

func TestGradientPenaltyAtUnitNormIsZero(t *testing.T) {
	// critic(x) = sum of first column => grad = (1, 0, ...) with norm 1
	// everywhere => penalty 0.
	rng := rand.New(rand.NewSource(5))
	critic := func(x *ag.Value) *ag.Value {
		return ag.SliceCols(x, 0, 1)
	}
	real := tensor.Randn(rng, 16, 3, 0, 1)
	fake := tensor.Randn(rng, 16, 3, 0, 1)
	gp := GradientPenalty(rng, real, fake, critic)
	if gp.Item() > 1e-9 {
		t.Fatalf("GP = %v want 0 for unit-gradient critic", gp.Item())
	}
}

func TestGradientPenaltyScalesWithSlope(t *testing.T) {
	// critic(x) = 3 * x_0 => |grad| = 3 => penalty = lambda * (3-1)^2 = 40.
	rng := rand.New(rand.NewSource(6))
	critic := func(x *ag.Value) *ag.Value {
		return ag.Scale(ag.SliceCols(x, 0, 1), 3)
	}
	real := tensor.Randn(rng, 8, 2, 0, 1)
	fake := tensor.Randn(rng, 8, 2, 0, 1)
	gp := GradientPenalty(rng, real, fake, critic)
	if math.Abs(gp.Item()-40) > 1e-6 {
		t.Fatalf("GP = %v want 40", gp.Item())
	}
}

func TestGradientPenaltyTrainsLipschitz(t *testing.T) {
	// Minimizing only the GP should drive a linear critic's weight norm
	// towards 1 — proof that the double-backprop path reaches the weights.
	rng := rand.New(rand.NewSource(7))
	w := ag.Var(tensor.Randn(rng, 3, 1, 0, 5))
	opt := nn.NewAdam(0.05)
	opt.WeightDecay = 0
	real := tensor.Randn(rng, 32, 3, 0, 1)
	fake := tensor.Randn(rng, 32, 3, 0, 1)
	for i := 0; i < 300; i++ {
		gp := GradientPenalty(rng, real, fake, func(x *ag.Value) *ag.Value {
			return ag.MatMul(x, w)
		})
		opt.Step([]*ag.Value{w}, ag.Grad(gp, w))
	}
	if norm := w.Data().Norm(); math.Abs(norm-1) > 0.05 {
		t.Fatalf("weight norm after GP-only training = %v want ~1", norm)
	}
}

// oldInterpolate is how GradientPenalty built x̂ before it did so in one
// pass: ε drawn into a column, expanded, and x̂ = real*ε + fake*(1-ε) out of
// six full-size temporaries.
func oldInterpolate(rng *rand.Rand, realIn, fakeIn *tensor.Dense) *tensor.Dense {
	rows, cols := realIn.Shape()
	eps := tensor.New(rows, 1)
	for i := 0; i < rows; i++ {
		eps.Set(i, 0, rng.Float64())
	}
	epsFull := eps.Expand(rows, cols)
	return tensor.Add(tensor.Mul(realIn, epsFull), tensor.Mul(fakeIn, tensor.Sub(tensor.Full(rows, cols, 1), epsFull)))
}

// TestGradientPenaltyMatchesOldComposition: x̂, the penalty and every critic
// weight gradient equal, bit for bit, what the composition of tensor ops
// gave, through a 2-block critic with live dropout; both generators end in
// the same state.
func TestGradientPenaltyMatchesOldComposition(t *testing.T) {
	src := rand.New(rand.NewSource(8))
	const rows, cols = 25, 47
	realIn := tensor.Randn(src, rows, cols, 0, 1)
	fakeIn := tensor.Randn(src, rows, cols, 0, 1)
	realIn.Set(3, 4, 0)
	fakeIn.Set(3, 4, math.Copysign(0, -1))

	a, b := rng.New(9), rng.New(9)
	if got, want := interpolate(a.Rand, realIn, fakeIn), oldInterpolate(b.Rand, realIn, fakeIn); !got.Equal(want) {
		t.Fatal("one-pass x̂ differs from the composed x̂")
	}

	type result struct {
		penalty float64
		grads   []*tensor.Dense
		state   rng.State
	}
	run := func(old bool) result {
		r := rng.New(10)
		disc := NewDiscriminator(r.Rand, cols, 17, 2)
		critic := func(x *ag.Value) *ag.Value { return disc.Forward(x, true) }
		var gp *ag.Value
		if old {
			x := ag.Var(oldInterpolate(r.Rand, realIn, fakeIn))
			norms := ag.RowL2Norm(ag.Grad(critic(x), x)[0], 1e-12)
			gp = ag.Scale(ag.MeanAll(ag.Square(ag.AddScalar(norms, -1))), GradientPenaltyWeight)
		} else {
			gp = GradientPenalty(r.Rand, realIn, fakeIn, critic)
		}
		res := result{penalty: gp.Item(), state: r.State()}
		for _, g := range nn.Grads(gp, disc) {
			res.grads = append(res.grads, g.Data())
		}
		return res
	}
	got, want := run(false), run(true)
	if math.Float64bits(got.penalty) != math.Float64bits(want.penalty) {
		t.Fatalf("penalty %v, composed %v", got.penalty, want.penalty)
	}
	for i := range want.grads {
		if !got.grads[i].Equal(want.grads[i]) {
			t.Fatalf("critic parameter %d: gradient differs from the composed penalty's", i)
		}
	}
	if got.state != want.state {
		t.Fatal("the generator ended somewhere else")
	}
}

func TestConditionLossPrefersCorrectCategory(t *testing.T) {
	catSpans := []encoding.Span{{Start: 0, Width: 3, Type: encoding.SpanOneHot, Categorical: true}}
	// Logits strongly favoring category 2 in both rows.
	good := ag.Const(tensor.FromRows([][]float64{{-5, -5, 5}, {-5, -5, 5}}))
	bad := ag.Const(tensor.FromRows([][]float64{{5, -5, -5}, {5, -5, -5}}))
	choices := []condvec.Choice{{Span: 0, Category: 2}, {Span: 0, Category: 2}}
	lGood := ConditionLoss(good, catSpans, choices).Item()
	lBad := ConditionLoss(bad, catSpans, choices).Item()
	if lGood >= lBad {
		t.Fatalf("loss for matching logits %v should be below mismatch %v", lGood, lBad)
	}
	if lGood > 0.01 {
		t.Fatalf("near-perfect match loss = %v", lGood)
	}
}

func TestConditionLossUnconditionedRowsIgnored(t *testing.T) {
	catSpans := []encoding.Span{{Start: 0, Width: 2, Type: encoding.SpanOneHot, Categorical: true}}
	out := ag.Const(tensor.FromRows([][]float64{{1, 2}}))
	choices := []condvec.Choice{{Span: -1, Category: -1}}
	if got := ConditionLoss(out, catSpans, choices).Item(); got != 0 {
		t.Fatalf("unconditioned loss = %v want 0", got)
	}
}

func TestNewGeneratorShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := NewGenerator(rng, 10, 32, 2, 7)
	x := ag.Const(tensor.Randn(rng, 4, 10, 0, 1))
	out := g.Forward(x, true)
	if r, c := out.Shape(); r != 4 || c != 7 {
		t.Fatalf("generator output %dx%d want 4x7", r, c)
	}
	// Zero blocks: a plain linear projection.
	g0 := NewGenerator(rng, 10, 32, 0, 7)
	if r, c := g0.Forward(x, true).Shape(); r != 4 || c != 7 {
		t.Fatalf("blockless generator output %dx%d", r, c)
	}
}

func TestNewDiscriminatorShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	d := NewDiscriminator(rng, 12, 32, 2)
	x := ag.Const(tensor.Randn(rng, 6, 12, 0, 1))
	out := d.Forward(x, false)
	if r, c := out.Shape(); r != 6 || c != 1 {
		t.Fatalf("discriminator output %dx%d want 6x1", r, c)
	}
}

func TestConfigValidate(t *testing.T) {
	cfg := Config{}
	if err := cfg.validate(); err == nil {
		t.Fatal("zero config must fail validation")
	}
	cfg = DefaultConfig()
	if err := cfg.validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	for _, lr := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		cfg := DefaultConfig()
		cfg.LR = lr
		if err := cfg.validate(); err == nil || !strings.Contains(err.Error(), "gan: LR") {
			t.Errorf("LR %v: validate = %v, want an error naming LR", lr, err)
		}
	}
}

// TestConfigRefusesNonPositive: a zero or negative size or rate is refused
// by name; validate supplies no default of its own for any of them.
func TestConfigRefusesNonPositive(t *testing.T) {
	for name, set := range map[string]func(*Config, int){
		"DiscSteps": func(c *Config, v int) { c.DiscSteps = v },
		"NoiseDim":  func(c *Config, v int) { c.NoiseDim = v },
		"BlockDim":  func(c *Config, v int) { c.BlockDim = v },
		"LR":        func(c *Config, v int) { c.LR = float64(v) },
	} {
		t.Run(name, func(t *testing.T) {
			for _, v := range []int{0, -1} {
				cfg := DefaultConfig()
				set(&cfg, v)
				if err := cfg.validate(); err == nil || !strings.Contains(err.Error(), "gan: "+name+" ") {
					t.Errorf("%s %d: validate = %v, want an error naming %s", name, v, err, name)
				}
			}
		})
	}
}

func TestSampleNoiseShape(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	n := SampleNoise(rng, 5, 8)
	if n.Rows() != 5 || n.Cols() != 8 {
		t.Fatalf("noise shape %dx%d", n.Rows(), n.Cols())
	}
}
