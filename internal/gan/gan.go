// Package gan provides the CTGAN-style building blocks shared by the
// centralized baseline and the GTV vertical-federated trainer: generator
// output activations (tanh for mode offsets, Gumbel-softmax for one-hot
// groups), the WGAN-GP loss terms, the conditioning cross-entropy, and
// constructors for the ResNet-style generator and FN-block discriminator
// described in the paper's §4.1.
package gan

import (
	"fmt"
	"math/rand"
	"sort"

	ag "repro/internal/autograd"
	"repro/internal/condvec"
	"repro/internal/encoding"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// GumbelTau is the Gumbel-softmax temperature CTGAN uses for categorical
// outputs.
const GumbelTau = 0.2

// GradientPenaltyWeight is the WGAN-GP lambda.
const GradientPenaltyWeight = 10.0

// ActivateOutput applies the per-span output activations to a generator's
// raw output: tanh on scalar (mode offset) spans and Gumbel-softmax on
// one-hot spans. rng draws the Gumbel noise; pass hard=false during
// training (soft, differentiable samples) and hard=true at synthesis time
// (the decoded table argmaxes anyway, so hard sampling just sharpens).
//
//shape:in(B,W) out(B,W)
func ActivateOutput(raw *ag.Value, spans []encoding.Span, rng *rand.Rand, hard bool) *ag.Value {
	_, cols := raw.Shape()
	parts := make([]*ag.Value, 0, len(spans))
	covered := 0
	for _, sp := range spans {
		covered += sp.Width
		slice := ag.SliceCols(raw, sp.Start, sp.End())
		switch sp.Type {
		case encoding.SpanScalar:
			parts = append(parts, ag.Tanh(slice))
		case encoding.SpanOneHot:
			parts = append(parts, gumbelSoftmax(slice, rng, hard))
		}
	}
	if covered != cols {
		// Spans must tile the full output; a mismatch is a wiring bug.
		panic("gan: spans do not cover generator output")
	}
	return ag.ConcatCols(parts...)
}

// gumbelSoftmax draws a (soft or hard) Gumbel-softmax sample per row. The
// noise and the straight-through shift are pooled and go back as soon as
// AddConst has added them; the graph holds neither. Every u is drawn first,
// in row-major order and redrawn while it is 0, and then the whole buffer
// becomes −log(−log u) through two tensor.Log calls.
func gumbelSoftmax(logits *ag.Value, rng *rand.Rand, hard bool) *ag.Value {
	rows, cols := logits.Shape()
	noise := tensor.NewPooledUninit(rows, cols)
	data := noise.Data()
	for i := range data {
		u := rng.Float64()
		for u <= 0 {
			u = rng.Float64()
		}
		data[i] = u
	}
	for range 2 {
		tensor.Log(data, data)
		for i, v := range data {
			data[i] = -v
		}
	}
	perturbed := ag.AddConst(logits, noise)
	noise.Release()
	soft := ag.SoftmaxRows(ag.Scale(perturbed, 1/GumbelTau))
	if !hard {
		return soft
	}
	// Straight-through: output the argmax one-hot, but keep the soft sample
	// in the graph so gradients still flow (hard = soft + (onehot - soft).detach()).
	onehot := tensor.NewPooledOneHot(rows, cols, soft.Data().ArgmaxRows())
	shift := tensor.Sub(onehot, soft.Data())
	onehot.Release()
	hardOut := ag.AddConst(soft, shift)
	shift.Release()
	return hardOut
}

// ConditionLoss is the CTGAN conditioning term: the softmax cross-entropy
// between the generated logits of the conditioned categorical span and the
// category demanded by the conditional vector, averaged over the batch.
// Rows whose choice span is negative (unconditioned) contribute zero.
//
// rawOut is the generator's raw output (before activation), catSpans the
// party's categorical spans in encoded coordinates, and choices[i] names
// the (span, category) that row i's CV selected, where Span indexes
// catSpans.
//
//privacy:sanitizer batch-aggregated conditioning cross-entropy
//shape:in(B,W) out(1,1)
func ConditionLoss(rawOut *ag.Value, catSpans []encoding.Span, choices []condvec.Choice) *ag.Value {
	// Group rows by conditioned span so each span costs one graph slice.
	rowsBySpan := make(map[int][]int)
	for row, ch := range choices {
		if ch.Span >= 0 {
			rowsBySpan[ch.Span] = append(rowsBySpan[ch.Span], row)
		}
	}
	if len(rowsBySpan) == 0 {
		return ag.Scalar(0)
	}
	// Iterate spans in sorted order: map iteration order is randomized per
	// run, and float addition is not associative, so accumulating the span
	// terms in map order would make same-seed runs diverge bit-for-bit.
	spanIdxs := make([]int, 0, len(rowsBySpan))
	for spanIdx := range rowsBySpan {
		spanIdxs = append(spanIdxs, spanIdx)
	}
	sort.Ints(spanIdxs)
	total := ag.Scalar(0)
	var counted float64
	for _, spanIdx := range spanIdxs {
		rows := rowsBySpan[spanIdx]
		sp := catSpans[spanIdx]
		logits := ag.SliceCols(ag.GatherRows(rawOut, rows), sp.Start, sp.End())
		probs := ag.SoftmaxRows(logits)
		lp := ag.Log(ag.AddScalar(probs, 1e-12))
		onehot := tensor.New(len(rows), sp.Width)
		for i, row := range rows {
			onehot.Set(i, choices[row].Category, 1)
		}
		total = ag.Add(total, ag.Neg(ag.SumAll(ag.Mul(lp, ag.Const(onehot)))))
		counted += float64(len(rows))
	}
	return ag.Scale(total, 1/counted)
}

// CriticLoss is the Wasserstein critic loss to *minimize*:
// mean(D(fake)) - mean(D(real)). The two score batches may have
// different row counts (PacGAN packing divides them independently).
//
//shape:in(Bf,K) in(Br,K2) out(1,1)
func CriticLoss(fakeScores, realScores *ag.Value) *ag.Value {
	return ag.Sub(ag.MeanAll(fakeScores), ag.MeanAll(realScores))
}

// GeneratorLoss is the Wasserstein generator loss to minimize:
// -mean(D(fake)).
//
//shape:in(B,K) out(1,1)
func GeneratorLoss(fakeScores *ag.Value) *ag.Value {
	return ag.Neg(ag.MeanAll(fakeScores))
}

// GradientPenalty computes the WGAN-GP term for a critic function applied
// to interpolations between real and fake inputs:
//
//	lambda * E[(||grad_x critic(x_hat)||_2 - 1)^2]
//
// critic must build a differentiable graph from its input. The returned
// value is differentiable with respect to the critic's parameters thanks to
// the autograd engine's higher-order gradients.
//
//shape:in(B,C) in(B,C) out(1,1)
func GradientPenalty(rng *rand.Rand, realIn, fakeIn *tensor.Dense, critic func(*ag.Value) *ag.Value) *ag.Value {
	x := ag.Var(interpolate(rng, realIn, fakeIn))
	scores := critic(x)
	gradIn := ag.Grad(scores, x)[0]
	norms := ag.RowL2Norm(gradIn, 1e-12)
	return ag.Scale(ag.MeanAll(ag.Square(ag.AddScalar(norms, -1))), GradientPenaltyWeight)
}

// interpolate returns x̂ = real*ε + fake*(1-ε) with one ε ~ U[0,1) per row,
// drawn in row order; both products are rounded before they are added, and
// ε (Float64's inlined scale by 2⁻⁶³) before 1-ε (the conversions forbid a
// fused multiply-add). The matrix becomes a Var leaf, which no tape
// releases, so it is the one buffer built here and it is not taken from
// the pool.
//
//shape:in(B,C) in(B,C) out(B,C)
func interpolate(rng *rand.Rand, realIn, fakeIn *tensor.Dense) *tensor.Dense {
	rows, cols := realIn.Shape()
	if fr, fc := fakeIn.Shape(); fr != rows || fc != cols {
		panic(fmt.Sprintf("gan: interpolating %dx%d real rows with %dx%d fake rows", rows, cols, fr, fc))
	}
	out := tensor.New(rows, cols)
	for i := 0; i < rows; i++ {
		eps := float64(rng.Float64())
		rest := 1 - eps
		realRow, fakeRow, dst := realIn.RawRow(i), fakeIn.RawRow(i), out.RawRow(i)
		for j, r := range realRow {
			dst[j] = float64(r*eps) + float64(fakeRow[j]*rest)
		}
	}
	return out
}

// NewGenerator builds the CTGAN generator trunk: nBlocks residual blocks
// starting from inDim, followed by a final FC to outDim. blockDim is the
// width each residual block adds (256 in the paper).
func NewGenerator(rng *rand.Rand, inDim, blockDim, nBlocks, outDim int) *nn.Sequential {
	layers := make([]nn.Layer, 0, nBlocks+1)
	width := inDim
	for i := 0; i < nBlocks; i++ {
		rb := nn.NewResidualBlock(rng, width, blockDim)
		layers = append(layers, rb)
		width = rb.OutWidth()
	}
	layers = append(layers, nn.NewLinear(rng, width, outDim))
	return nn.NewSequential(layers...)
}

// NewDiscriminator builds the CTGAN discriminator trunk: nBlocks FN blocks
// (Linear + LeakyReLU(0.2) + Dropout(0.5)) from inDim to blockDim, followed
// by a final FC to a single critic score.
func NewDiscriminator(rng *rand.Rand, inDim, blockDim, nBlocks int) *nn.Sequential {
	layers := make([]nn.Layer, 0, nBlocks+1)
	width := inDim
	for i := 0; i < nBlocks; i++ {
		layers = append(layers, nn.NewDiscBlock(rng, width, blockDim))
		width = blockDim
	}
	layers = append(layers, nn.NewLinear(rng, width, 1))
	return nn.NewSequential(layers...)
}

// SampleNoise draws a batch of standard-normal noise rows into a pooled
// matrix, which the caller may Release once the generator has read it. The
// draws are tensor.Randn(rng, batch, dim, 0, 1)'s: x*1+0 is x for every
// value NormFloat64 returns, which is never -0.
//
//shape:in(B) in(D) out(B,D)
func SampleNoise(rng *rand.Rand, batch, dim int) *tensor.Dense {
	out := tensor.NewPooledUninit(batch, dim)
	data := out.Data()
	for i := range data {
		data[i] = rng.NormFloat64()
	}
	return out
}

// packRows implements PacGAN packing: it reshapes a batch of rows into
// batch/pac rows of pac concatenated samples, so the critic judges groups
// rather than individuals. pac=1 is the identity.
func packRows(v *ag.Value, pac int) *ag.Value {
	if pac <= 1 {
		return v
	}
	rows, cols := v.Shape()
	if rows%pac != 0 {
		panic("gan: batch not divisible by pac")
	}
	return ag.Reshape(v, rows/pac, cols*pac)
}
