package autograd

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// The fused activation-gradient and dropout ops against the compositions
// they replaced, kept here as the references: an Apply-built mask behind a
// Const leaf multiplied in (activations), a drawn mask in a fresh matrix
// behind a Const leaf (dropout). Value, gradient and gradient of the
// gradient must agree bit for bit, the generator must end where the reference
// leaves it, and a borrowed mask must never go back to the pool twice (that
// the buffers do go back is TestReleaseRecyclesBuffers). (These run on the kernel path the process started with;
// that the two paths of every routine underneath agree is internal/tensor's
// kernels_paths_test.go, whose switch this package cannot reach.)

type refLeakyOp struct{ slope float64 }

func (refLeakyOp) name() string { return "refLeaky" }
func (o refLeakyOp) backward(inputs []*Value, _, grad *Value, _ []bool) []*Value {
	mask := inputs[0].data.Apply(func(v float64) float64 {
		if v > 0 {
			return 1
		}
		return o.slope
	})
	return []*Value{Mul(grad, Const(mask))}
}

func refLeakyReLU(a *Value, slope float64) *Value {
	out := a.data.Apply(func(v float64) float64 {
		if v > 0 {
			return v
		}
		return slope * v
	})
	return newValue(out, refLeakyOp{slope: slope}, a)
}

type refReLUOp struct{}

func (refReLUOp) name() string { return "refReLU" }
func (refReLUOp) backward(inputs []*Value, _, grad *Value, _ []bool) []*Value {
	return refLeakyOp{slope: 0}.backward(inputs, nil, grad, nil)
}

func refReLU(a *Value) *Value {
	out := a.data.Apply(func(v float64) float64 {
		if v > 0 {
			return v
		}
		return 0
	})
	return newValue(out, refReLUOp{}, a)
}

func refDropout(a *Value, r *rand.Rand, keep float64) *Value {
	rows, cols := a.Shape()
	mask := tensor.New(rows, cols)
	data := mask.Data()
	for i := range data {
		if r.Float64() < keep {
			data[i] = 1 / keep
		}
	}
	return Mul(a, Const(mask))
}

// actSet is one implementation of the three ops under test.
type actSet struct {
	relu    func(*Value) *Value
	leaky   func(*Value, float64) *Value
	dropout func(*Value, *rand.Rand, float64) *Value
}

var (
	fusedActs = actSet{ReLU, LeakyReLU, Dropout}
	refActs   = actSet{refReLU, refLeakyReLU, refDropout}
)

func sameBitsNaN(t *testing.T, what string, got, want *tensor.Dense) {
	t.Helper()
	if gr, gc := got.Shape(); gr != want.Rows() || gc != want.Cols() {
		t.Fatalf("%s: shape %dx%d, reference %dx%d", what, gr, gc, want.Rows(), want.Cols())
	}
	for i, w := range want.Data() {
		g := got.Data()[i]
		if math.IsNaN(g) && math.IsNaN(w) {
			continue
		}
		if math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s: element %d is %v (%#x), reference %v (%#x)", what, i, g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
}

// salted returns an r x c matrix of normals with the values the compare, the
// select and the products treat specially mixed in.
func salted(r *rand.Rand, rows, cols int) *tensor.Dense {
	specials := []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, math.Inf(1), math.Inf(-1), math.NaN(), 0.2, -0.2, math.MaxFloat64}
	m := tensor.Randn(r, rows, cols, 0, 2)
	for i := range m.Data() {
		if r.Intn(4) == 0 {
			m.Data()[i] = specials[r.Intn(len(specials))]
		}
	}
	return m
}

// TestFusedActivationOpsMatchReference: each op alone over salted inputs —
// the forward value, the gradient under a salted seed, and the gradient of
// that gradient with respect to the seed (which runs the gradient op's own
// backward on a second salted matrix).
func TestFusedActivationOpsMatchReference(t *testing.T) {
	for _, sh := range [][2]int{{1, 1}, {3, 5}, {7, 17}, {64, 33}} {
		for _, slope := range []float64{0.2, 0, -1.5} {
			run := func(acts actSet) (fwd, first, second []*tensor.Dense) {
				r := rand.New(rand.NewSource(51))
				drop := rng.New(52)
				x := Var(salted(r, sh[0], sh[1]))
				seed := Var(salted(r, sh[0], sh[1]))
				seed2 := Const(salted(r, sh[0], sh[1]))
				for _, f := range []func(*Value) *Value{
					acts.relu,
					func(v *Value) *Value { return acts.leaky(v, slope) },
					func(v *Value) *Value { return acts.dropout(v, drop.Rand, 0.5) },
				} {
					y := f(x)
					gx := GradWithSeed(y, seed, x)[0]
					gseed := GradWithSeed(gx, seed2, seed)[0]
					fwd, first, second = append(fwd, y.Data()), append(first, gx.Data()), append(second, gseed.Data())
				}
				// The generator's position is part of the result.
				st := drop.State()
				second = append(second, tensor.FromSlice(1, 4, []float64{float64(st[0] >> 11), float64(st[1] >> 11), float64(st[2] >> 11), float64(st[3] >> 11)}))
				return fwd, first, second
			}
			gf, g1, g2 := run(fusedActs)
			wf, w1, w2 := run(refActs)
			for i := range wf {
				sameBitsNaN(t, "forward", gf[i], wf[i])
				sameBitsNaN(t, "gradient", g1[i], w1[i])
			}
			for i := range w2 {
				sameBitsNaN(t, "second-order gradient / generator state", g2[i], w2[i])
			}
		}
	}
}

// twoBlockCritic is Linear -> LeakyReLU -> Dropout twice and a final Linear
// to one score, with a ReLU branch concatenated in so that all three ops sit
// on the double-backward path.
func twoBlockCritic(acts actSet, drop *rand.Rand, x *Value, ps []*Value) *Value {
	h := acts.dropout(acts.leaky(Affine(x, ps[0], ps[1]), 0.2), drop, 0.5)
	h = acts.dropout(acts.leaky(Affine(h, ps[2], ps[3]), 0.2), drop, 0.5)
	h = ConcatCols(h, acts.relu(Affine(x, ps[4], ps[5])))
	return Affine(h, ps[6], ps[7])
}

// TestFusedOpsMatchReferenceThroughGradientPenalty is the training use: a
// WGAN-GP critic step — two forwards, the penalty's input gradient, and the
// gradient of loss + penalty with respect to every weight — through a
// 2-block critic built from the fused ops and from the references. Every
// weight gradient, the loss and the dropout generator's final state must be
// equal; rows 13 and 500 put a vector tail and a long reduction under the
// narrow matmul path at the same time.
func TestFusedOpsMatchReferenceThroughGradientPenalty(t *testing.T) {
	for _, rows := range []int{13, 500} {
		step := func(acts actSet) ([]*tensor.Dense, float64, rng.State) {
			r := rand.New(rand.NewSource(61))
			drop := rng.New(62)
			const in, width = 9, 17
			ps := []*Value{
				randVar(r, in, width), randVar(r, 1, width),
				randVar(r, width, width), randVar(r, 1, width),
				randVar(r, in, 5), randVar(r, 1, 5),
				randVar(r, width+5, 1), randVar(r, 1, 1),
			}
			realIn := Const(tensor.Randn(r, rows, in, 0, 1))
			fakeIn := Const(tensor.Randn(r, rows, in, 0, 1))
			xhat := Var(tensor.Randn(r, rows, in, 0, 1))
			critic := func(x *Value) *Value { return twoBlockCritic(acts, drop.Rand, x, ps) }
			loss := Sub(MeanAll(critic(fakeIn)), MeanAll(critic(realIn)))
			gx := Grad(critic(xhat), xhat)[0]
			gp := Scale(MeanAll(Square(AddScalar(RowL2Norm(gx, 1e-12), -1))), 10)
			total := Add(loss, gp)
			grads := Grad(total, ps...)
			out := make([]*tensor.Dense, len(grads))
			for i, g := range grads {
				out[i] = g.Data().Clone()
			}
			item := total.Item()
			var tape Tape
			tape.Track(total)
			tape.Track(grads...)
			tape.Release()
			return out, item, drop.State()
		}
		got, gotLoss, gotState := step(fusedActs)
		want, wantLoss, wantState := step(refActs)
		for i := range want {
			sameBitsNaN(t, "critic weight gradient", got[i], want[i])
		}
		if math.Float64bits(gotLoss) != math.Float64bits(wantLoss) {
			t.Fatalf("rows %d: loss + penalty %v, reference %v", rows, gotLoss, wantLoss)
		}
		if gotState != wantState {
			t.Fatalf("rows %d: the dropout generator ended in %v, reference %v", rows, gotState, wantState)
		}
	}
}

// TestReleaseNeverDoubleReleasesBorrowedMask: the gradient nodes of a dropout
// borrow the forward node's mask. Releasing first- and second-order gradient
// graphs together with the forward graph must put the mask back once: a
// second Put would make the pool hand the same storage to two live matrices.
func TestReleaseNeverDoubleReleasesBorrowedMask(t *testing.T) {
	r := rand.New(rand.NewSource(72))
	for i := 0; i < 10; i++ {
		x := Var(tensor.Randn(r, 16, 16, 0, 1))
		seed := Var(tensor.Randn(r, 16, 16, 0, 1))
		y := Dropout(x, r, 0.5)
		gx := GradWithSeed(y, seed, x)[0]          // borrows the mask
		gseed := Grad(SumAll(Square(gx)), seed)[0] // and so does its gradient
		Release(y, gx, gseed)
		live := map[*float64]bool{}
		for j := 0; j < 64; j++ {
			p := &tensor.NewPooled(16, 16).Data()[0]
			if live[p] {
				t.Fatalf("round %d: the pool handed out one slab twice after a release", i)
			}
			live[p] = true
		}
	}
}
