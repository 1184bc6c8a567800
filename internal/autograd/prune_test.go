package autograd

import (
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// Grad differentiates only towards the variables it was asked for. These
// tests pin the two halves of that: asking for fewer variables changes no bit
// of the gradients that are returned, and ops are not run (and not asked for
// inputs) that lead to no requested variable.

// critic is a two-layer MLP over every multi-input op family: affine, mul,
// div, add/sub with broadcasting, concat.
func pruneCritic(x *Value, ps []*Value) *Value {
	h := LeakyReLU(Affine(x, ps[0], ps[1]), 0.2)
	h = ConcatCols(h, Mul(x, x))
	h = Sub(Add(MatMul(h, ps[2]), ps[3]), Div(ps[3], AddScalar(Square(ps[3]), 1)))
	return MatMul(Tanh(h), ps[4])
}

func pruneParams(rng *rand.Rand) []*Value {
	return []*Value{
		randVar(rng, 6, 5), randVar(rng, 1, 5), // affine
		randVar(rng, 11, 4), randVar(rng, 1, 4), // second layer over concat(5+6)
		randVar(rng, 4, 1),
	}
}

// sameBits fails unless got equals want element for element (Dense.Equal:
// exact comparison, no tolerance).
func sameBits(t *testing.T, what string, got, want *tensor.Dense) {
	t.Helper()
	if !got.Equal(want) {
		t.Fatalf("%s: got %v want %v", what, got, want)
	}
}

func TestGradSubsetIsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	ps := pruneParams(rng)
	x := randVar(rng, 7, 6)
	all := append([]*Value{x}, ps...)
	full := Grad(SumAll(pruneCritic(x, ps)), all...)
	for i, v := range all {
		alone := Grad(SumAll(pruneCritic(x, ps)), v)[0]
		sameBits(t, "single variable", alone.Data(), full[i].Data())
	}
	pair := Grad(SumAll(pruneCritic(x, ps)), ps[3], x)
	sameBits(t, "pair[0]", pair[0].Data(), full[4].Data())
	sameBits(t, "pair[1]", pair[1].Data(), full[0].Data())
}

// TestGradientPenaltySubsetIsBitIdentical is the double-backward case: the
// inner Grad asks for the input gradient only, and the outer gradient with
// respect to the weights must not notice whether the inner one also built the
// weight gradients it then threw away.
func TestGradientPenaltySubsetIsBitIdentical(t *testing.T) {
	penalty := func(innerAll bool) []*Value {
		rng := rand.New(rand.NewSource(32))
		ps := pruneParams(rng)
		x := randVar(rng, 7, 6)
		targets := []*Value{x}
		if innerAll {
			targets = append(targets, ps...)
		}
		gx := Grad(pruneCritic(x, ps), targets...)[0]
		gp := MeanAll(Square(AddScalar(RowL2Norm(gx, 1e-12), -1)))
		return Grad(gp, ps...)
	}
	pruned, full := penalty(false), penalty(true)
	for i := range full {
		sameBits(t, "penalty weight gradient", pruned[i].Data(), full[i].Data())
	}
}

// probeOp is an identity op on its first input that records what backward
// was told.
type probeOp struct{ seen *[][]bool }

func (probeOp) name() string { return "probe" }
func (o probeOp) backward(inputs []*Value, _, grad *Value, need []bool) []*Value {
	*o.seen = append(*o.seen, append([]bool(nil), need...))
	out := make([]*Value, len(inputs))
	for i := range inputs {
		if need[i] {
			out[i] = grad
		}
	}
	return out
}

func TestGradSkipsUnneededInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	a, b, c := randVar(rng, 2, 3), randVar(rng, 2, 3), Const(tensor.New(2, 3))
	var seen [][]bool
	probe := func(ins ...*Value) *Value {
		return newValue(ins[0].Data().Clone(), probeOp{seen: &seen}, ins...)
	}
	// y depends on a through the outer probe's first input and on b through
	// the inner probe, which feeds the outer one's second input.
	inner := probe(b, c)
	y := SumAll(probe(Scale(a, 2), inner, nil))

	seen = nil
	Grad(y, a)
	if len(seen) != 1 || !seen[0][0] || seen[0][1] || seen[0][2] {
		t.Fatalf("Grad(y, a): backward calls %v, want one call with need [true false false]", seen)
	}
	seen = nil
	Grad(y, b)
	if len(seen) != 2 || seen[0][0] || !seen[0][1] || !seen[1][0] || seen[1][1] {
		t.Fatalf("Grad(y, b): backward calls %v, want [false true false] then [true false]", seen)
	}
	seen = nil
	if g := Grad(y, c)[0]; g.Data().Norm() != 0 || len(seen) != 0 {
		t.Fatalf("Grad(y, const): %d backward calls, gradient norm %v; want none and zero", len(seen), g.Data().Norm())
	}
}
