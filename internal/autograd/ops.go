package autograd

import (
	"math"
	"math/rand"

	"repro/internal/tensor"
)

// ---- element-wise binary operations (with broadcasting) ----
//
// As in package tensor, the second operand may broadcast onto the first:
// its rows and cols must each equal the first operand's or be 1. The output
// always has the first operand's shape.

type addOp struct{}

func (addOp) backward(inputs []*Value, _, grad *Value, need []bool) []*Value {
	out := make([]*Value, 2)
	for i, in := range inputs {
		if need[i] {
			r, c := in.Shape()
			out[i] = reduceTo(grad, r, c)
		}
	}
	return out
}

// Add returns a+b, broadcasting b onto a.
func Add(a, b *Value) *Value {
	return newValue(tensor.Add(a.data, b.data), addOp{}, a, b)
}

type subOp struct{}

func (subOp) backward(inputs []*Value, _, grad *Value, need []bool) []*Value {
	out := make([]*Value, 2)
	if need[0] {
		ar, ac := inputs[0].Shape()
		out[0] = reduceTo(grad, ar, ac)
	}
	if need[1] {
		br, bc := inputs[1].Shape()
		out[1] = Neg(reduceTo(grad, br, bc))
	}
	return out
}

// Sub returns a-b, broadcasting b onto a.
func Sub(a, b *Value) *Value {
	return newValue(tensor.Sub(a.data, b.data), subOp{}, a, b)
}

type mulOp struct{}

func (mulOp) backward(inputs []*Value, _, grad *Value, need []bool) []*Value {
	a, b := inputs[0], inputs[1]
	out := make([]*Value, 2)
	if need[0] {
		ar, ac := a.Shape()
		out[0] = reduceTo(Mul(grad, b), ar, ac)
	}
	if need[1] {
		br, bc := b.Shape()
		out[1] = reduceTo(Mul(grad, a), br, bc)
	}
	return out
}

// Mul returns the element-wise product a*b, broadcasting b onto a.
func Mul(a, b *Value) *Value {
	return newValue(tensor.Mul(a.data, b.data), mulOp{}, a, b)
}

type divOp struct{}

func (divOp) backward(inputs []*Value, _, grad *Value, need []bool) []*Value {
	a, b := inputs[0], inputs[1]
	out := make([]*Value, 2)
	if need[0] {
		ar, ac := a.Shape()
		out[0] = reduceTo(Div(grad, b), ar, ac)
	}
	if need[1] {
		br, bc := b.Shape()
		out[1] = reduceTo(Neg(Div(Mul(grad, a), Mul(b, b))), br, bc)
	}
	return out
}

// Div returns the element-wise quotient a/b, broadcasting b onto a.
func Div(a, b *Value) *Value {
	return newValue(tensor.Div(a.data, b.data), divOp{}, a, b)
}

// ---- unary element-wise operations ----

type negOp struct{}

func (negOp) backward(_ []*Value, _, grad *Value, _ []bool) []*Value {
	return []*Value{Neg(grad)}
}

// Neg returns -a.
func Neg(a *Value) *Value {
	return newValue(a.data.Scale(-1), negOp{}, a)
}

type scaleOp struct{ s float64 }

func (o scaleOp) backward(_ []*Value, _, grad *Value, _ []bool) []*Value {
	return []*Value{Scale(grad, o.s)}
}

// Scale returns a*s for a scalar s.
func Scale(a *Value, s float64) *Value {
	return newValue(a.data.Scale(s), scaleOp{s: s}, a)
}

type addScalarOp struct{}

func (addScalarOp) backward(_ []*Value, _, grad *Value, _ []bool) []*Value {
	return []*Value{grad}
}

// AddScalar returns a+s element-wise for a scalar s.
func AddScalar(a *Value, s float64) *Value {
	return newValue(a.data.AddScalar(s), addScalarOp{}, a)
}

type addConstOp struct{}

func (addConstOp) backward(_ []*Value, _, grad *Value, _ []bool) []*Value {
	return []*Value{grad}
}

// AddConst returns a+c for a constant c of a's shape: the bits of
// Add(a, Const(c)), but the graph keeps no reference to c (the gradient with
// respect to a is the incoming one, to any order), so the caller may Release
// a pooled c as soon as AddConst returns. Under a Const leaf it would be
// shielded from every tape and left to the collector.
func AddConst(a *Value, c *tensor.Dense) *Value {
	return newValue(tensor.Add(a.data, c), addConstOp{}, a)
}

// Square returns the element-wise square of a.
func Square(a *Value) *Value { return Mul(a, a) }

type sqrtOp struct{}

func (sqrtOp) backward(_ []*Value, output, grad *Value, _ []bool) []*Value {
	// d/dx sqrt(x) = 1 / (2*sqrt(x)) = 1/(2*output).
	return []*Value{Div(grad, Scale(output, 2))}
}

// Sqrt returns the element-wise square root of a.
func Sqrt(a *Value) *Value {
	return newValue(a.data.Apply(math.Sqrt), sqrtOp{}, a)
}

type logOp struct{}

func (logOp) backward(inputs []*Value, _, grad *Value, _ []bool) []*Value {
	return []*Value{Div(grad, inputs[0])}
}

// Log returns the element-wise natural logarithm of a.
func Log(a *Value) *Value {
	rows, cols := a.data.Shape()
	out := tensor.NewPooledUninit(rows, cols)
	tensor.Log(out.Data(), a.data.Data())
	return newValue(out, logOp{}, a)
}

// ---- activations ----
//
// The piecewise-linear activations (ReLU, LeakyReLU) have an exactly-zero
// second derivative almost everywhere, so their gradient is linear in the
// incoming gradient and constant in the input: one fused op, actGrad, whose
// own backward is actGrad again. Differentiating to any order never leaves
// {ReLU, LeakyReLU, actGrad}, and no mask matrix is ever built.

// actGradOp is g*(x > 0 ? 1 : slope) for the forward input x of a ReLU
// (slope 0) or LeakyReLU. x is borrowed from the forward node, which owns it
// and is released in the same Release call as every gradient taken through
// it; it is not a graph input, because nothing flows back to it.
type actGradOp struct {
	slope float64
	x     *tensor.Dense
}

func (o actGradOp) backward(_ []*Value, _, grad *Value, _ []bool) []*Value {
	return []*Value{actGrad(grad, o.x, o.slope)}
}

func actGrad(g *Value, x *tensor.Dense, slope float64) *Value {
	return newValue(tensor.ActGrad(g.data, x, slope), actGradOp{slope: slope, x: x}, g)
}

type reluOp struct{}

func (reluOp) backward(inputs []*Value, _, grad *Value, _ []bool) []*Value {
	return []*Value{actGrad(grad, inputs[0].data, 0)}
}

// ReLU returns max(a, 0) element-wise.
func ReLU(a *Value) *Value {
	return newValue(tensor.ReLU(a.data), reluOp{}, a)
}

type leakyReLUOp struct{ slope float64 }

func (o leakyReLUOp) backward(inputs []*Value, _, grad *Value, _ []bool) []*Value {
	return []*Value{actGrad(grad, inputs[0].data, o.slope)}
}

// LeakyReLU returns a where a > 0 and slope*a elsewhere.
func LeakyReLU(a *Value, slope float64) *Value {
	return newValue(tensor.LeakyReLU(a.data, slope), leakyReLUOp{slope: slope}, a)
}

// dropoutOp multiplies by a dropout mask, in the forward pass (Dropout, which
// draws the mask and owns it) and in every gradient taken through it
// (its backward, which borrows it): the gradient of x*mask is g*mask, to any
// order. The mask is a pooled matrix that is no node's data, so Release
// returns it when it recycles the node that owns it.
type dropoutOp struct {
	mask  *tensor.Dense
	owned bool
}

func (o *dropoutOp) backward(_ []*Value, _, grad *Value, _ []bool) []*Value {
	return []*Value{newValue(tensor.Mul(grad.data, o.mask), &dropoutOp{mask: o.mask}, grad)}
}

// Dropout zeroes each element of a with probability 1-keep and scales the
// survivors by 1/keep (inverted dropout), drawing one rng.Float64 per element
// in row-major order.
func Dropout(a *Value, rng *rand.Rand, keep float64) *Value {
	out, mask := tensor.Dropout(rng, a.data, keep)
	return newValue(out, &dropoutOp{mask: mask, owned: true}, a)
}

type tanhOp struct{}

func (tanhOp) backward(_ []*Value, output, grad *Value, _ []bool) []*Value {
	// d tanh = 1 - tanh^2, expressed on the output so it stays differentiable.
	return []*Value{Mul(grad, AddScalar(Neg(Square(output)), 1))}
}

// Tanh returns the element-wise hyperbolic tangent of a.
func Tanh(a *Value) *Value {
	return newValue(a.data.Apply(math.Tanh), tanhOp{}, a)
}

type softmaxOp struct{}

func (softmaxOp) backward(_ []*Value, output, grad *Value, _ []bool) []*Value {
	// dL/dx = y * (g - sum_j g_j y_j), row-wise.
	dot := SumCols(Mul(grad, output)) // Rx1
	return []*Value{Mul(output, Sub(grad, dot))}
}

// SoftmaxRows applies a numerically stable softmax independently to each row:
// exp(v − max) over the row, each divided by the row's left-to-right sum. The
// rows of a one-hot span are 2 to 10 wide, so every row's v − max is written
// first and the whole matrix takes one tensor.Exp call.
func SoftmaxRows(a *Value) *Value {
	rows, cols := a.data.Shape()
	out := tensor.NewPooledUninit(rows, cols)
	for i := 0; i < rows; i++ {
		src := a.data.RawRow(i)
		dst := out.RawRow(i)
		maxv := math.Inf(-1)
		for _, v := range src {
			if v > maxv {
				maxv = v
			}
		}
		for j, v := range src {
			dst[j] = v - maxv
		}
	}
	tensor.Exp(out.Data(), out.Data())
	for i := 0; i < rows; i++ {
		dst := out.RawRow(i)
		var sum float64
		for _, e := range dst {
			sum += e
		}
		for j := range dst {
			dst[j] /= sum
		}
	}
	return newValue(out, softmaxOp{}, a)
}

// ---- matrix operations ----

type matmulOp struct{}

func (matmulOp) backward(inputs []*Value, _, grad *Value, need []bool) []*Value {
	// dA = G·Bᵀ and dB = Aᵀ·G via the fused kernels: no transpose is ever
	// materialized, and the fused ops' own backwards close over {MatMul,
	// MatMulTA, MatMulTB}, so differentiating these gradients again (as the
	// WGAN-GP penalty does) stays within the fused set.
	a, b := inputs[0], inputs[1]
	out := make([]*Value, 2)
	if need[0] {
		out[0] = MatMulTB(grad, b)
	}
	if need[1] {
		out[1] = MatMulTA(a, grad)
	}
	return out
}

// MatMul returns the matrix product a*b.
func MatMul(a, b *Value) *Value {
	return newValue(tensor.MatMul(a.data, b.data), matmulOp{}, a, b)
}

type matmulTAOp struct{}

func (matmulTAOp) backward(inputs []*Value, _, grad *Value, need []bool) []*Value {
	// y = aᵀ·b with a KxM and b KxN, G MxN: dA = B·Gᵀ (KxM), dB = A·G (KxN).
	a, b := inputs[0], inputs[1]
	out := make([]*Value, 2)
	if need[0] {
		out[0] = MatMulTB(b, grad)
	}
	if need[1] {
		out[1] = MatMul(a, grad)
	}
	return out
}

// MatMulTA returns aᵀ*b without materializing the transpose (a is KxM, b is
// KxN, the result is MxN).
func MatMulTA(a, b *Value) *Value {
	return newValue(tensor.MatMulTA(a.data, b.data), matmulTAOp{}, a, b)
}

type matmulTBOp struct{}

func (matmulTBOp) backward(inputs []*Value, _, grad *Value, need []bool) []*Value {
	// y = a·bᵀ with a MxN and b PxN, G MxP: dA = G·B (MxN), dB = Gᵀ·A (PxN).
	a, b := inputs[0], inputs[1]
	out := make([]*Value, 2)
	if need[0] {
		out[0] = MatMul(grad, b)
	}
	if need[1] {
		out[1] = MatMulTA(grad, a)
	}
	return out
}

// MatMulTB returns a*bᵀ without materializing the transpose (a is MxN, b is
// PxN, the result is MxP).
func MatMulTB(a, b *Value) *Value {
	return newValue(tensor.MatMulTB(a.data, b.data), matmulTBOp{}, a, b)
}

type affineOp struct{}

func (affineOp) backward(inputs []*Value, _, grad *Value, need []bool) []*Value {
	x, w := inputs[0], inputs[1]
	out := make([]*Value, 3)
	if need[0] {
		out[0] = MatMulTB(grad, w)
	}
	if need[1] {
		out[1] = MatMulTA(x, grad)
	}
	if need[2] {
		out[2] = SumRows(grad)
	}
	return out
}

// Affine returns x*w + bias in one fused kernel, where bias is a 1xCols(w)
// row broadcast over the rows of the product. It is the fused form of
// Add(MatMul(x, w), bias) used by Linear layers.
func Affine(x, w, bias *Value) *Value {
	return newValue(tensor.Affine(x.data, w.data, bias.data), affineOp{}, x, w, bias)
}

type transposeOp struct{}

func (transposeOp) backward(_ []*Value, _, grad *Value, _ []bool) []*Value {
	return []*Value{Transpose(grad)}
}

// Transpose returns the matrix transpose of a.
func Transpose(a *Value) *Value {
	return newValue(a.data.Transpose(), transposeOp{}, a)
}

// ---- shape operations ----

type expandOp struct{}

func (expandOp) backward(inputs []*Value, _, grad *Value, _ []bool) []*Value {
	ar, ac := inputs[0].Shape()
	return []*Value{reduceTo(grad, ar, ac)}
}

// Expand broadcasts a (1x1, 1xC or Rx1) to rows x cols.
func Expand(a *Value, rows, cols int) *Value {
	return newValue(a.data.Expand(rows, cols), expandOp{}, a)
}

type sumAllOp struct{}

func (sumAllOp) backward(inputs []*Value, _, grad *Value, _ []bool) []*Value {
	ar, ac := inputs[0].Shape()
	return []*Value{Expand(grad, ar, ac)}
}

// SumAll returns the 1x1 sum of all elements of a.
func SumAll(a *Value) *Value {
	out := tensor.NewPooled(1, 1)
	out.Set(0, 0, a.data.Sum())
	return newValue(out, sumAllOp{}, a)
}

// MeanAll returns the 1x1 mean of all elements of a.
func MeanAll(a *Value) *Value {
	r, c := a.Shape()
	n := r * c
	if n == 0 {
		return Scalar(0)
	}
	return Scale(SumAll(a), 1/float64(n))
}

type sumRowsOp struct{}

func (sumRowsOp) backward(inputs []*Value, _, grad *Value, _ []bool) []*Value {
	ar, ac := inputs[0].Shape()
	return []*Value{Expand(grad, ar, ac)}
}

// SumRows returns the 1xC per-column sums of a.
func SumRows(a *Value) *Value {
	return newValue(a.data.SumRows(), sumRowsOp{}, a)
}

// MeanRows returns the 1xC per-column means of a.
func MeanRows(a *Value) *Value {
	r, _ := a.Shape()
	if r == 0 {
		return SumRows(a)
	}
	return Scale(SumRows(a), 1/float64(r))
}

type sumColsOp struct{}

func (sumColsOp) backward(inputs []*Value, _, grad *Value, _ []bool) []*Value {
	ar, ac := inputs[0].Shape()
	return []*Value{Expand(grad, ar, ac)}
}

// SumCols returns the Rx1 per-row sums of a.
func SumCols(a *Value) *Value {
	return newValue(a.data.SumCols(), sumColsOp{}, a)
}

type concatColsOp struct{ widths []int }

func (o concatColsOp) backward(_ []*Value, _, grad *Value, need []bool) []*Value {
	out := make([]*Value, len(o.widths))
	off := 0
	for i, w := range o.widths {
		if need[i] {
			out[i] = SliceCols(grad, off, off+w)
		}
		off += w
	}
	return out
}

// ConcatCols horizontally concatenates values with equal row counts.
func ConcatCols(vs ...*Value) *Value {
	mats := make([]*tensor.Dense, len(vs))
	widths := make([]int, len(vs))
	for i, v := range vs {
		mats[i] = v.data
		widths[i] = v.data.Cols()
	}
	return newValue(tensor.ConcatCols(mats...), concatColsOp{widths: widths}, vs...)
}

type sliceColsOp struct{ from, to int }

func (o sliceColsOp) backward(inputs []*Value, _, grad *Value, _ []bool) []*Value {
	_, ac := inputs[0].Shape()
	return []*Value{PadCols(grad, o.from, ac)}
}

// SliceCols returns columns [from, to) of a.
func SliceCols(a *Value, from, to int) *Value {
	return newValue(a.data.SliceCols(from, to), sliceColsOp{from: from, to: to}, a)
}

type padColsOp struct{ left, total int }

func (o padColsOp) backward(inputs []*Value, _, grad *Value, _ []bool) []*Value {
	_, ac := inputs[0].Shape()
	return []*Value{SliceCols(grad, o.left, o.left+ac)}
}

// PadCols embeds a into a wider zero matrix with `left` zero columns before
// it and total columns overall.
func PadCols(a *Value, left, total int) *Value {
	ar, ac := a.Shape()
	if left < 0 || left+ac > total {
		panic("autograd: PadCols out of range")
	}
	out := tensor.NewPooled(ar, total)
	for i := 0; i < ar; i++ {
		copy(out.RawRow(i)[left:left+ac], a.data.RawRow(i))
	}
	return newValue(out, padColsOp{left: left, total: total}, a)
}

type gatherRowsOp struct{ idx []int }

func (o gatherRowsOp) backward(inputs []*Value, _, grad *Value, _ []bool) []*Value {
	ar, _ := inputs[0].Shape()
	return []*Value{ScatterRows(grad, o.idx, ar)}
}

// GatherRows returns the matrix whose row k is a's row idx[k].
func GatherRows(a *Value, idx []int) *Value {
	idxCopy := make([]int, len(idx))
	copy(idxCopy, idx)
	return newValue(a.data.GatherRows(idxCopy), gatherRowsOp{idx: idxCopy}, a)
}

type scatterRowsOp struct {
	idx  []int
	rows int
}

func (o scatterRowsOp) backward(_ []*Value, _, grad *Value, _ []bool) []*Value {
	return []*Value{GatherRows(grad, o.idx)}
}

// ScatterRows returns a rows x Cols(a) matrix where row idx[k] accumulates
// a's row k (the adjoint of GatherRows).
func ScatterRows(a *Value, idx []int, rows int) *Value {
	ar, ac := a.Shape()
	if len(idx) != ar {
		panic("autograd: ScatterRows index length mismatch")
	}
	out := tensor.NewPooled(rows, ac)
	for k, i := range idx {
		dst := out.RawRow(i)
		src := a.data.RawRow(k)
		for j, v := range src {
			dst[j] += v
		}
	}
	idxCopy := make([]int, len(idx))
	copy(idxCopy, idx)
	return newValue(out, scatterRowsOp{idx: idxCopy, rows: rows}, a)
}

// ---- composed helpers ----

// RowL2Norm returns the Rx1 Euclidean norm of each row of a, smoothed by
// eps inside the square root for differentiability at zero.
func RowL2Norm(a *Value, eps float64) *Value {
	return Sqrt(AddScalar(SumCols(Square(a)), eps))
}

type reshapeOp struct{ fromRows, fromCols int }

func (o reshapeOp) backward(_ []*Value, _, grad *Value, _ []bool) []*Value {
	return []*Value{Reshape(grad, o.fromRows, o.fromCols)}
}

// Reshape returns a value with the same elements viewed as rows x cols
// (row-major). The element count must match.
func Reshape(a *Value, rows, cols int) *Value {
	ar, ac := a.Shape()
	return newValue(a.Data().Reshape(rows, cols), reshapeOp{fromRows: ar, fromCols: ac}, a)
}
