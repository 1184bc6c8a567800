package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// adamReference is the update loop AdamStep replaced (nn.Adam.Step's own
// loop), one element at a time: both bias corrections recomputed from t and
// divided by whatever they are. The float64 conversions keep it from being
// fused into multiply-adds on any build, which pins the rounding the loop
// had on a default amd64 build and makes the comparison meaningful on every
// other one.
func adamReference(w, g, m, v []float64, h AdamHyper, t int) {
	bc1 := 1 - math.Pow(h.Beta1, float64(t))
	bc2 := 1 - math.Pow(h.Beta2, float64(t))
	for k := range w {
		gk := g[k] + float64(h.WeightDecay*w[k])
		m[k] = float64(h.Beta1*m[k]) + float64((1-h.Beta1)*gk)
		v[k] = float64(h.Beta2*v[k]) + float64(float64((1-h.Beta2)*gk)*gk)
		mhat := m[k] / bc1
		vhat := v[k] / bc2
		w[k] -= float64(h.LR*mhat) / (math.Sqrt(vhat) + h.Eps)
	}
}

// adamHypers: CTGAN's (lr 2e-4, β = (0.5, 0.9), weight decay 1e-6), the
// experiment grid's learning rate, and a β₂ = 0.999 set without decay whose
// second bias correction reaches 1.0 only after tens of thousands of steps.
var adamHypers = []AdamHyper{
	{LR: 2e-4, Beta1: 0.5, Beta2: 0.9, Eps: 1e-8, WeightDecay: 1e-6},
	{LR: 5e-4, Beta1: 0.5, Beta2: 0.9, Eps: 1e-8, WeightDecay: 1e-6},
	{LR: 1e-3, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8},
}

// firstExactOne is the first step at which the bias correction 1-βᵗ is 1.0
// bit for bit, found the way AdamStep computes it.
func firstExactOne(beta float64) int {
	for t := 1; ; t++ {
		if math.Float64bits(1-math.Pow(beta, float64(t))) == math.Float64bits(1) {
			return t
		}
	}
}

// adamSteps: the first steps, and either side of each exact-one crossover.
func adamSteps(h AdamHyper) []int {
	t1, t2 := firstExactOne(h.Beta1), firstExactOne(h.Beta2)
	return []int{1, 2, 3, t1 - 1, t1, t1 + 1, t2 - 1, t2, t2 + 1}
}

// adamSpecials are the values the divisions, the square root and the
// products could treat specially.
var adamSpecials = []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 2.2e-308, -1e-310,
	math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64, 1e-160}

// adamOperands returns w, g, m and v of n elements, v non-negative as Adam
// keeps it, and with specials a third of the time on each when salted.
func adamOperands(rng *rand.Rand, n int, salted bool) (w, g, m, v []float64) {
	ops := make([][]float64, 4)
	for i := range ops {
		ops[i] = make([]float64, n)
		for k := range ops[i] {
			ops[i][k] = rng.NormFloat64()
			if i == 3 {
				ops[i][k] *= ops[i][k]
			}
			if salted && rng.Intn(3) == 0 {
				ops[i][k] = adamSpecials[rng.Intn(len(adamSpecials))]
			}
		}
	}
	return ops[0], ops[1], ops[2], ops[3]
}

// requireAdamMatchesReference runs one AdamStep on the live kernel path and
// the reference on copies of the same operands, and requires w, m and v to
// agree bit for bit, or to both be NaN.
func requireAdamMatchesReference(t *testing.T, w, g, m, v []float64, h AdamHyper, step int) {
	t.Helper()
	n := len(w)
	clone := func(x []float64) []float64 { return append([]float64(nil), x...) }
	rw, rm, rv := clone(w), clone(m), clone(v)
	adamReference(rw, g, rm, rv, h, step)
	gw, gm, gv := FromSlice(1, n, clone(w)), FromSlice(1, n, clone(m)), FromSlice(1, n, clone(v))
	AdamStep(gw, FromSlice(1, n, g), gm, gv, h, step)
	for _, out := range []struct {
		name       string
		have, want []float64
	}{{"w", gw.data, rw}, {"m", gm.data, rm}, {"v", gv.data, rv}} {
		for k, want := range out.want {
			have := out.have[k]
			if math.IsNaN(want) && math.IsNaN(have) {
				continue
			}
			if math.Float64bits(have) != math.Float64bits(want) {
				t.Fatalf("n=%d t=%d %+v: %s[%d] = %v (%#x), reference %v (%#x); inputs w %v g %v m %v v %v",
					n, step, h, out.name, k, have, math.Float64bits(have), want, math.Float64bits(want), w[k], g[k], m[k], v[k])
			}
		}
	}
}

// TestAdamStepMatchesReference holds AdamStep, on both kernel paths, to the
// loop it replaced: every length from 0 to 67 (no vector, every vector count
// with every tail), three hyperparameter sets, the steps either side of both
// exact-one crossovers (where a division is left out), and operands salted
// with signed zeros, denormals, infinities and NaN.
func TestAdamStepMatchesReference(t *testing.T) {
	EachKernelPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(31))
		for _, h := range adamHypers {
			for _, step := range adamSteps(h) {
				for n := 0; n <= 67; n++ {
					for _, salted := range []bool{false, true} {
						w, g, m, v := adamOperands(rng, n, salted)
						requireAdamMatchesReference(t, w, g, m, v, h, step)
					}
				}
			}
		}
	})
}

// TestAdamCrossovers pins what the exact-one rule sees at CTGAN's β: the
// first bias correction reaches 1.0 at step 54, the second at step 356, and
// not one step earlier.
func TestAdamCrossovers(t *testing.T) {
	for _, tc := range []struct {
		beta float64
		t    int
	}{{0.5, 54}, {0.9, 356}} {
		if got := firstExactOne(tc.beta); got != tc.t {
			t.Errorf("1-%v^t is first exactly 1 at t=%d, want %d", tc.beta, got, tc.t)
		}
		c := newAdamCoefs(AdamHyper{Beta1: tc.beta, Beta2: tc.beta}, tc.t-1)
		if !c.div1 || !c.div2 {
			t.Errorf("β=%v: the division is left out at t=%d, one step early", tc.beta, tc.t-1)
		}
		if c = newAdamCoefs(AdamHyper{Beta1: tc.beta, Beta2: tc.beta}, tc.t); c.div1 || c.div2 {
			t.Errorf("β=%v: the division by exactly 1.0 still runs at t=%d", tc.beta, tc.t)
		}
	}
}

// FuzzAdamStep drives AdamStep on every kernel path against the reference
// with fuzzed lengths, steps, hyperparameter set and operand salting.
func FuzzAdamStep(f *testing.F) {
	f.Add(int64(1), 7, 1, uint8(0))
	f.Add(int64(2), 64, 54, uint8(1))
	f.Add(int64(3), 67, 356, uint8(2))
	f.Add(int64(4), 3, 53, uint8(5))
	f.Fuzz(func(t *testing.T, seed int64, n, step int, flags uint8) {
		n, step = int(uint(n)%300), 1+int(uint(step)%5000)
		h := adamHypers[int(flags>>1)%len(adamHypers)]
		w, g, m, v := adamOperands(rand.New(rand.NewSource(seed)), n, flags&1 != 0)
		defer func() { useAsm = HasAsmKernels }()
		for _, path := range KernelPaths() {
			useAsm = path == "asm"
			requireAdamMatchesReference(t, w, g, m, v, h, step)
		}
	})
}
