package autograd

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// RestrictRows' own rules. The contract it exists for — the restricted
// backward pass is the full one bit for bit, on both kernel paths, under a
// fuzzer — is tested from internal/tensor (restrict_test.go there), where the
// kernel-path switch can be reached.

// restrictStack is two critic blocks over x and their parameters.
func restrictStack(rng *rand.Rand, x *Value, in, width int) (*Value, []*Value) {
	ps := []*Value{randVar(rng, in, width), randVar(rng, 1, width), randVar(rng, width, width), randVar(rng, 1, width)}
	h := LeakyReLU(Affine(x, ps[0], ps[1]), 0.2)
	return Dropout(LeakyReLU(Affine(h, ps[2], ps[3]), 0.2), rng, 0.5), ps
}

func TestRestrictRowsOfEveryRowIsTheGraphItself(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	y, _ := restrictStack(rng, Const(tensor.Randn(rng, 12, 5, 0, 1)), 5, 7)
	rows := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
	allocs := testing.AllocsPerRun(100, func() {
		if r, err := RestrictRows(y, rows); r != y || err != nil {
			t.Fatalf("RestrictRows over every row returned (%p, %v), want the input %p", r, err, y)
		}
	})
	if allocs != 0 {
		t.Fatalf("RestrictRows over every row allocates %v times a call, want 0", allocs)
	}
}

// The restricted graph is the forward pass over the rows: every node holds
// those rows of the node it stands for, the parameters are the same Values,
// and a differentiable input leaf gets the gradient it would have got, with
// +0 in the rows left out.
func TestRestrictRowsGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	x := Var(tensor.Randn(rng, 16, 5, 0, 1))
	y, ps := restrictStack(rng, x, 5, 7)
	rows := []int{4, 5, 6, 7, 12, 13, 14, 15}
	r, err := RestrictRows(y, rows)
	if err != nil || r == y {
		t.Fatalf("RestrictRows: (%p, %v) for input %p", r, err, y)
	}
	for full, part := y, r; full.op != nil; full, part = full.inputs[0], part.inputs[0] {
		sameBits(t, full.op.name()+" rows", part.data, full.data.GatherRows(rows))
		if fm, ok := full.op.(*dropoutOp); ok {
			sameBits(t, "mask rows", part.op.(*dropoutOp).mask, fm.mask.GatherRows(rows))
		}
		for i := 1; i < len(full.inputs); i++ {
			if part.inputs[i] != full.inputs[i] {
				t.Fatalf("%s input %d is a copy, want the parameter itself", full.op.name(), i)
			}
		}
	}

	grad := tensor.New(16, 7)
	for _, i := range rows[2:6] {
		for j := range grad.RawRow(i) {
			grad.RawRow(i)[j] = rng.NormFloat64()
		}
	}
	targets := append([]*Value{x}, ps...)
	want := Grad(SumAll(Mul(y, Const(grad))), targets...)
	got := Grad(SumAll(Mul(r, Const(grad.GatherRows(rows)))), targets...)
	for i := range want {
		sameBitsNaN(t, "gradient", got[i].Data(), want[i].Data())
	}
}

func TestRestrictRowsRefusesOpsThatMixRows(t *testing.T) {
	x := Const(tensor.New(8, 3))
	w, b := Var(tensor.New(3, 3)), Var(tensor.New(1, 3))
	rows := []int{0, 1, 2, 3}
	for name, y := range map[string]*Value{
		"softmax under an affine": Affine(SoftmaxRows(x), w, b),
		"row gather":              LeakyReLU(GatherRows(x, []int{7, 6, 5, 4, 3, 2, 1, 0}), 0.2),
		"row sum":                 Dropout(Add(x, SumRows(x)), rand.New(rand.NewSource(1)), 0.5),
		"matmul":                  MatMul(x, w),
	} {
		if r, err := RestrictRows(y, rows); !errors.Is(err, ErrNotRowWise) || r != nil {
			t.Errorf("%s: RestrictRows returned (%v, %v), want a refusal", name, r, err)
		}
	}
}

func TestRestrictRowsFallsBackOnNonFiniteState(t *testing.T) {
	rows := []int{0, 1, 2, 3}
	for name, spoil := range map[string]func(x *tensor.Dense, ps []*Value){
		"NaN in a row left out": func(x *tensor.Dense, _ []*Value) { x.Set(6, 2, math.NaN()) },
		"Inf in a row kept":     func(x *tensor.Dense, _ []*Value) { x.Set(1, 0, math.Inf(1)) },
	} {
		rng := rand.New(rand.NewSource(53))
		x := tensor.Randn(rng, 8, 5, 0, 1)
		spoil(x, nil)
		y, _ := restrictStack(rng, Const(x), 5, 7)
		if r, err := RestrictRows(y, rows); r != y || err != nil {
			t.Errorf("%s: RestrictRows returned (%p, %v), want the input %p", name, r, err, y)
		}
	}
	// A weight that turned non-finite after the forward pass left y finite.
	rng := rand.New(rand.NewSource(54))
	y, ps := restrictStack(rng, Const(tensor.Randn(rng, 8, 5, 0, 1)), 5, 7)
	ps[2].Data().Set(3, 3, math.Inf(-1))
	if r, err := RestrictRows(y, rows); r != y || err != nil {
		t.Errorf("late Inf weight: RestrictRows returned (%p, %v), want the input %p", r, err, y)
	}
}

func TestRestrictRowsPanicsOnABadRowSet(t *testing.T) {
	y := LeakyReLU(Const(tensor.New(8, 3)), 0.2)
	for name, rows := range map[string][]int{
		"descending":   {3, 2},
		"repeated":     {1, 1},
		"negative":     {-1, 0},
		"out of range": {6, 7, 8},
		// Eight entries for eight rows must not pass for the whole graph.
		"repeated to full length": {0, 0, 1, 2, 3, 4, 5, 6},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: RestrictRows accepted %v", name, rows)
				}
			}()
			RestrictRows(y, rows)
		}()
	}
}

// Releasing the restricted graph with the graph it was cut from puts every
// buffer back once — node data and the gathered masks — and leaves the shared
// leaves alone.
func TestReleaseOfRestrictedAndFullGraphTogether(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for i := 0; i < 10; i++ {
		xd := tensor.Randn(rng, 16, 16, 0, 1)
		y, ps := restrictStack(rng, Const(xd), 16, 16)
		r, err := RestrictRows(y, []int{8, 9, 10, 11})
		if err != nil || r == y {
			t.Fatalf("RestrictRows: (%p, %v)", r, err)
		}
		grads := Grad(SumAll(r), ps...)
		keep := xd.Clone()
		var tape Tape
		tape.Track(y, r)
		tape.Track(grads...)
		tape.Release()
		live := map[*float64]bool{&xd.Data()[0]: true, &keep.Data()[0]: true}
		for _, p := range ps {
			live[&p.Data().Data()[0]] = true
		}
		for j := 0; j < 64; j++ {
			p := &tensor.NewPooled(16, 16).Data()[0]
			if live[p] {
				t.Fatalf("round %d: the pool handed out a live or twice-released slab", i)
			}
			live[p] = true
		}
		sameBits(t, "input leaf after release", xd, keep)
	}
}
