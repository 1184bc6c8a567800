package autograd

import (
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// Gradient checks for the fused transposed-matmul ops and the fused affine
// op, plus coverage that their backward graphs stay differentiable (the
// WGAN-GP double-backprop requirement) and that Release recycles a step's
// graph without perturbing results.

func TestGradFusedMatMuls(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	t.Run("matmulTA", func(t *testing.T) {
		a := randVar(rng, 5, 3) // KxM
		b := randVar(rng, 5, 2) // KxN
		checkGrad(t, "matmulTA", func() *Value { return SumAll(Square(MatMulTA(a, b))) }, a, b)
	})
	t.Run("matmulTB", func(t *testing.T) {
		a := randVar(rng, 3, 5) // MxN
		b := randVar(rng, 4, 5) // PxN
		checkGrad(t, "matmulTB", func() *Value { return SumAll(Square(MatMulTB(a, b))) }, a, b)
	})
	t.Run("affine", func(t *testing.T) {
		x := randVar(rng, 4, 3)
		w := randVar(rng, 3, 2)
		bias := randVar(rng, 1, 2)
		checkGrad(t, "affine", func() *Value { return SumAll(Square(Affine(x, w, bias))) }, x, w, bias)
	})
}

func TestFusedMatMulsMatchComposedForms(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	a := randVar(rng, 6, 4)
	b := randVar(rng, 6, 3)
	if got, want := MatMulTA(a, b).Data(), MatMul(Transpose(a), b).Data(); !got.AllClose(want, 1e-12) {
		t.Error("MatMulTA forward differs from Transpose+MatMul")
	}
	c := randVar(rng, 5, 4)
	d := randVar(rng, 7, 4)
	if got, want := MatMulTB(c, d).Data(), MatMul(c, Transpose(d)).Data(); !got.AllClose(want, 1e-12) {
		t.Error("MatMulTB forward differs from MatMul+Transpose")
	}
	x := randVar(rng, 5, 4)
	w := randVar(rng, 4, 3)
	bias := randVar(rng, 1, 3)
	if got, want := Affine(x, w, bias).Data(), Add(MatMul(x, w), bias).Data(); !got.AllClose(want, 1e-12) {
		t.Error("Affine forward differs from MatMul+Add")
	}
}

// TestFusedDoubleBackprop differentiates the gradient of a fused-op graph —
// exactly what the gradient penalty does to the critic — and checks the
// second-order result against finite differences of the first-order one.
func TestFusedDoubleBackprop(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	x := randVar(rng, 3, 4)
	w := randVar(rng, 4, 2)
	bias := randVar(rng, 1, 2)

	// penalty(w) = sum_ij (d sum(affine(x,w,b)^2) / dx)_ij ^2, a scalar whose
	// w-gradient exercises backward-of-backward through affine/TA/TB.
	penalty := func() *Value {
		y := SumAll(Square(Affine(x, w, bias)))
		gx := Grad(y, x)[0]
		return SumAll(Square(gx))
	}
	y := penalty()
	gw := Grad(y, w)[0]
	num := numericGrad(func() float64 { return penalty().Item() }, w.Data())
	if !gw.Data().AllClose(num, 1e-3) {
		t.Errorf("double backprop through fused ops: analytic %v, numeric %v", gw.Data(), num)
	}
}

// TestReleasePreservesResults runs the same tiny training-style computation
// with and without tape releases and requires bitwise identical parameter
// trajectories: recycling must be invisible to the numerics.
func TestReleasePreservesResults(t *testing.T) {
	run := func(release bool) *tensor.Dense {
		rng := rand.New(rand.NewSource(31))
		w := Var(tensor.Randn(rng, 8, 6, 0, 1))
		bias := Var(tensor.Randn(rng, 1, 6, 0, 1))
		for step := 0; step < 20; step++ {
			x := Const(tensor.Randn(rng, 10, 8, 0, 1))
			loss := SumAll(Square(Affine(x, w, bias)))
			grads := Grad(loss, w, bias)
			// A hand-rolled SGD step keeps the test self-contained.
			w.Data().AxpyInPlace(-1e-3, grads[0].Data())
			bias.Data().AxpyInPlace(-1e-3, grads[1].Data())
			if release {
				var tape Tape
				tape.Track(loss)
				tape.Track(grads...)
				tape.Release()
			}
		}
		return w.Data().Clone()
	}
	if !run(false).Equal(run(true)) {
		t.Fatal("tape release changed the training trajectory")
	}
}

// TestReleaseProtectsLeaves: leaf data (parameters, detached buffers) must
// survive a release untouched even when interior nodes alias them.
func TestReleaseProtectsLeaves(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	w := Var(tensor.Randn(rng, 4, 4, 0, 1))
	snapshot := w.Data().Clone()

	x := Const(tensor.Randn(rng, 4, 4, 0, 1))
	h := MatMul(x, w)
	det := h.Detach() // leaf aliasing an interior node's buffer
	hData := h.Data()
	loss := SumAll(Square(Add(h, det)))
	grads := Grad(loss, w)

	Release(loss, grads[0])
	if !w.Data().Equal(snapshot) {
		t.Fatal("release corrupted a Var leaf")
	}
	// The detached buffer was shielded by the leaf: still readable, and the
	// next pooled allocation of the same class must not hand it back.
	probe := tensor.NewPooled(4, 4)
	if &probe.Data()[0] == &hData.Data()[0] {
		t.Fatal("release recycled a buffer shielded by a Detach leaf")
	}
}

// poolHas reports whether a pooled 16x16 matrix with the given backing storage
// can be drawn again. sync.Pool gives no ordering guarantee, but
// single-threaded it returns the most recent Puts first, so a few draws
// suffice. The mismatched probes are deliberately not released — putting one
// back would make the next probe return it again forever.
func poolHas(ptr *float64) bool {
	for j := 0; j < 8; j++ {
		if d := tensor.NewPooled(16, 16); &d.Data()[0] == ptr {
			return true
		}
	}
	return false
}

// TestReleaseRecyclesBuffers: without a shielding leaf, the buffers of a
// released step must actually return to the pool (this is the whole point of
// the tape) — an interior node's data, the buffer of an activation-gradient
// node, and the dropout mask, which is no node's data but belongs to the
// forward node that drew it. Under the race detector sync.Pool deliberately
// drops roughly a quarter of Puts, so no single attempt is conclusive;
// instead the test retries until each kind has been observably recycled. 25
// independent attempts a kind make a spurious failure (every Put dropped)
// vanishingly unlikely (~4^-25) while a genuine recycling bug still fails
// every time.
func TestReleaseRecyclesBuffers(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	kinds := []string{"interior node data", "activation gradient", "dropout mask"}
	const attempts = 25
	for kind, name := range kinds {
		recycled := false
		for i := 0; i < attempts && !recycled; i++ {
			x := Var(tensor.Randn(rng, 16, 16, 0, 1))
			w := Var(tensor.Randn(rng, 16, 16, 0, 1))
			h := MatMul(x, w)
			y := Dropout(LeakyReLU(h, 0.2), rng, 0.5)
			loss := SumAll(y)
			g := Grad(loss, h)[0] // an actGrad node
			ptr := [](*float64){&h.Data().Data()[0], &g.Data().Data()[0], &y.op.(*dropoutOp).mask.Data()[0]}[kind]
			Release(loss, g)
			recycled = poolHas(ptr)
		}
		if !recycled {
			t.Errorf("%s: no released buffer came back from the pool in %d attempts", name, attempts)
		}
	}
}
