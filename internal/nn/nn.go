// Package nn provides neural-network building blocks over the autograd
// engine: linear layers, batch normalization, activations, dropout, the
// CTGAN-style residual and discriminator blocks used by GTV, sequential
// composition, and the Adam optimizer.
//
// The layers implement the Layer interface, except Dropout, which only
// DiscBlock applies. Randomness (weight initialization, dropout masks) is
// drawn from an explicit *rand.Rand so training runs are reproducible and
// there are no mutable globals.
package nn

import (
	"fmt"
	"math"
	"math/rand"

	ag "repro/internal/autograd"
	"repro/internal/tensor"
)

// Layer is a differentiable module. Forward must be safe to call repeatedly;
// train toggles training-time behaviour (batch statistics, dropout masks).
type Layer interface {
	// Forward applies the layer to a batch (rows = samples).
	//
	//shape:in(B,Din) out(B,Dout)
	Forward(x *ag.Value, train bool) *ag.Value
	// Params returns the trainable parameters in a stable order.
	Params() []*ag.Value
}

// Grads computes the gradients of loss with respect to every parameter of l.
//
//shape:in(1,1)
func Grads(loss *ag.Value, l Layer) []*ag.Value {
	return ag.Grad(loss, l.Params()...)
}

// Linear is a fully-connected layer: y = x*W + b.
type Linear struct {
	//shape:(In,Out)
	W *ag.Value
	//shape:(1,Out)
	B *ag.Value
}

var _ Layer = (*Linear)(nil)

// NewLinear returns a Linear layer with Kaiming-uniform initialized weights,
// matching the PyTorch default used by CTGAN.
func NewLinear(rng *rand.Rand, in, out int) *Linear {
	if in <= 0 || out <= 0 {
		panic(fmt.Sprintf("nn: invalid Linear shape %dx%d", in, out))
	}
	bound := 1 / math.Sqrt(float64(in))
	return &Linear{
		W: ag.Var(tensor.RandUniform(rng, in, out, -bound, bound)),
		B: ag.Var(tensor.RandUniform(rng, 1, out, -bound, bound)),
	}
}

// Forward implements Layer.
//
//shape:in(B,In) out(B,Out)
func (l *Linear) Forward(x *ag.Value, _ bool) *ag.Value {
	return ag.Affine(x, l.W, l.B)
}

// Params implements Layer.
func (l *Linear) Params() []*ag.Value { return []*ag.Value{l.W, l.B} }

// In returns the input width of the layer.
func (l *Linear) In() int { r, _ := l.W.Shape(); return r }

// Out returns the output width of the layer.
func (l *Linear) Out() int { _, c := l.W.Shape(); return c }

// BatchNorm normalizes each feature column to zero mean and unit variance
// over the batch, then applies a learned affine transform. At evaluation
// time it uses exponential running statistics gathered during training.
type BatchNorm struct {
	//shape:(1,Dim)
	Gamma *ag.Value
	//shape:(1,Dim)
	Beta *ag.Value

	runningMean *tensor.Dense
	runningVar  *tensor.Dense
	momentum    float64
	eps         float64
}

var _ Layer = (*BatchNorm)(nil)

// NewBatchNorm returns a BatchNorm over dim features with PyTorch-default
// momentum 0.1 and eps 1e-5.
func NewBatchNorm(dim int) *BatchNorm {
	return &BatchNorm{
		Gamma:       ag.Var(tensor.Full(1, dim, 1)),
		Beta:        ag.Var(tensor.New(1, dim)),
		runningMean: tensor.New(1, dim),
		runningVar:  tensor.Full(1, dim, 1),
		momentum:    0.1,
		eps:         1e-5,
	}
}

// Forward implements Layer.
//
//shape:in(B,Dim) out(B,Dim)
func (b *BatchNorm) Forward(x *ag.Value, train bool) *ag.Value {
	rows, _ := x.Shape()
	var mean, variance *ag.Value
	if train && rows > 1 {
		mean = ag.MeanRows(x)
		centered := ag.Sub(x, mean)
		variance = ag.MeanRows(ag.Square(centered))
		// Update running statistics outside the graph, in place. PyTorch
		// tracks the unbiased variance in its running estimate. Every product
		// is rounded before it is added (the conversions forbid a fused
		// multiply-add), as when each was a matrix of its own.
		unbias := float64(rows) / float64(rows-1)
		keep, m := 1-b.momentum, b.momentum
		rm, rv := b.runningMean.Data(), b.runningVar.Data()
		md, vd := mean.Data().Data(), variance.Data().Data()
		for j := range rm {
			rm[j] = float64(rm[j]*keep) + float64(md[j]*m)
			rv[j] = float64(rv[j]*keep) + float64(float64(vd[j]*unbias)*m)
		}
		norm := ag.Div(centered, ag.Sqrt(ag.AddScalar(variance, b.eps)))
		return ag.Add(ag.Mul(norm, b.Gamma), b.Beta)
	}
	mean = ag.Const(b.runningMean)
	variance = ag.Const(b.runningVar)
	norm := ag.Div(ag.Sub(x, mean), ag.Sqrt(ag.AddScalar(variance, b.eps)))
	return ag.Add(ag.Mul(norm, b.Gamma), b.Beta)
}

// Params implements Layer.
func (b *BatchNorm) Params() []*ag.Value { return []*ag.Value{b.Gamma, b.Beta} }

// ReLU is the rectified linear activation.
type ReLU struct{}

var _ Layer = ReLU{}

// Forward implements Layer.
//
//shape:in(B,D) out(B,D)
func (ReLU) Forward(x *ag.Value, _ bool) *ag.Value { return ag.ReLU(x) }

// Params implements Layer.
func (ReLU) Params() []*ag.Value { return nil }

// LeakyReLU is the leaky rectified linear activation.
type LeakyReLU struct {
	Slope float64
}

var _ Layer = LeakyReLU{}

// Forward implements Layer.
//
//shape:in(B,D) out(B,D)
func (l LeakyReLU) Forward(x *ag.Value, _ bool) *ag.Value { return ag.LeakyReLU(x, l.Slope) }

// Params implements Layer.
func (LeakyReLU) Params() []*ag.Value { return nil }

// Dropout zeroes each element with probability P during training and
// rescales the survivors by 1/(1-P) (inverted dropout). It is the identity
// at evaluation time.
type Dropout struct {
	P   float64
	rng *rand.Rand
}

// NewDropout returns a Dropout layer drawing masks from rng.
func NewDropout(rng *rand.Rand, p float64) *Dropout {
	if p < 0 || p >= 1 {
		panic(fmt.Sprintf("nn: dropout probability %v out of [0,1)", p))
	}
	return &Dropout{P: p, rng: rng}
}

// Forward applies the mask when train is set and is the identity otherwise.
//
//shape:in(B,D) out(B,D)
func (d *Dropout) Forward(x *ag.Value, train bool) *ag.Value {
	if !train || d.P <= 0 {
		return x
	}
	return ag.Dropout(x, d.rng, 1-d.P)
}

// Sequential chains layers in order.
type Sequential struct {
	Layers []Layer
}

var _ Layer = (*Sequential)(nil)

// NewSequential returns a Sequential over the given layers.
func NewSequential(layers ...Layer) *Sequential { return &Sequential{Layers: layers} }

// Forward implements Layer. Passing private data through a bottom model
// is the paper's sanctioned disclosure: only the learned activation, not
// the raw input, becomes visible downstream.
//
//privacy:sanitizer bottom-model forward activation
//shape:in(B,Din) out(B,Dout)
func (s *Sequential) Forward(x *ag.Value, train bool) *ag.Value {
	for _, l := range s.Layers {
		x = l.Forward(x, train)
	}
	return x
}

// Params implements Layer.
func (s *Sequential) Params() []*ag.Value {
	var out []*ag.Value
	for _, l := range s.Layers {
		out = append(out, l.Params()...)
	}
	return out
}

// ResidualBlock is the CTGAN generator block: the input is passed through
// Linear -> BatchNorm -> ReLU and the result is concatenated with the input,
// so the block output width is in+out.
type ResidualBlock struct {
	FC *Linear
	BN *BatchNorm
}

var _ Layer = (*ResidualBlock)(nil)

// NewResidualBlock returns a residual block mapping in features to in+out.
func NewResidualBlock(rng *rand.Rand, in, out int) *ResidualBlock {
	return &ResidualBlock{FC: NewLinear(rng, in, out), BN: NewBatchNorm(out)}
}

// Forward implements Layer. The output width is the FC width plus the
// input width (the skip concatenation), which only the caller's dims can
// name — hence the free Dout.
//
//shape:in(B,Din) out(B,Dout)
func (r *ResidualBlock) Forward(x *ag.Value, train bool) *ag.Value {
	h := ag.ReLU(r.BN.Forward(r.FC.Forward(x, train), train))
	return ag.ConcatCols(h, x)
}

// Params implements Layer.
func (r *ResidualBlock) Params() []*ag.Value {
	return append(r.FC.Params(), r.BN.Params()...)
}

// OutWidth returns the block's output width for the given input width.
func (r *ResidualBlock) OutWidth() int { return r.FC.Out() + r.FC.In() }

// DiscBlock is the CTGAN discriminator block: Linear -> LeakyReLU(0.2) ->
// Dropout(0.5).
type DiscBlock struct {
	FC   *Linear
	Act  LeakyReLU
	Drop *Dropout
}

var _ Layer = (*DiscBlock)(nil)

// NewDiscBlock returns a discriminator block mapping in features to out.
func NewDiscBlock(rng *rand.Rand, in, out int) *DiscBlock {
	return &DiscBlock{
		FC:   NewLinear(rng, in, out),
		Act:  LeakyReLU{Slope: 0.2},
		Drop: NewDropout(rng, 0.5),
	}
}

// Forward implements Layer.
//
//shape:in(B,Din) out(B,Dout)
func (d *DiscBlock) Forward(x *ag.Value, train bool) *ag.Value {
	return d.Drop.Forward(d.Act.Forward(d.FC.Forward(x, train), train), train)
}

// Params implements Layer.
func (d *DiscBlock) Params() []*ag.Value { return d.FC.Params() }
