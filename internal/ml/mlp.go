package ml

import (
	"errors"
	"math/rand"

	ag "repro/internal/autograd"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// MLP is a one-hidden-layer perceptron classifier (the paper's evaluation
// and Shapley models use one hidden layer of 100 neurons) trained with Adam
// on the softmax cross-entropy loss.
type MLP struct {
	// Hidden is the hidden width (default 100).
	Hidden int
	// Epochs is the number of full-batch updates (default 120).
	Epochs int
	// LR is the Adam learning rate (default 1e-2).
	LR float64
	// Seed drives weight initialization.
	Seed int64

	net        *nn.Sequential
	numClasses int
}

var _ Classifier = (*MLP)(nil)

// Fit implements Classifier. The contract Fit needs — x has exactly len(y)
// rows — relates a matrix dim to a slice length, which the //shape: dim language
// cannot express; a dims-only contract would overpromise, so it is waived.
//
//lint:ignore shapeflow x-rows/len(y) coupling is not expressible in the dim language
func (m *MLP) Fit(x *tensor.Dense, y []int, numClasses int) error {
	if x.Rows() == 0 || x.Rows() != len(y) {
		return errors.New("ml: mlp fit with empty or misaligned data")
	}
	if m.Hidden == 0 {
		m.Hidden = 100
	}
	if m.Epochs == 0 {
		m.Epochs = 120
	}
	if m.LR <= 0 {
		m.LR = 1e-2
	}
	m.numClasses = numClasses
	rng := rand.New(rand.NewSource(m.Seed))
	m.net = nn.NewSequential(
		nn.NewLinear(rng, x.Cols(), m.Hidden),
		nn.ReLU{},
		nn.NewLinear(rng, m.Hidden, numClasses),
	)
	opt := nn.NewAdam(m.LR)
	opt.WeightDecay = 1e-5

	onehot := tensor.New(x.Rows(), numClasses)
	for i, c := range y {
		onehot.Set(i, c, 1)
	}
	xs := ag.Const(x)
	ys := ag.Const(onehot)
	for epoch := 0; epoch < m.Epochs; epoch++ {
		logits := m.net.Forward(xs, true)
		loss := CrossEntropy(logits, ys)
		opt.Step(m.net.Params(), nn.Grads(loss, m.net))
	}
	return nil
}

// PredictProba implements Classifier.
//
//shape:in(B,D) out(B,K)
func (m *MLP) PredictProba(x *tensor.Dense) *tensor.Dense {
	logits := m.net.Forward(ag.Const(x), false)
	return ag.SoftmaxRows(logits).Data()
}

// CrossEntropy returns the mean softmax cross-entropy between logits and
// one-hot targets, as an autograd value.
//
//shape:in(B,K) in(B,K) out(1,1)
func CrossEntropy(logits, onehot *ag.Value) *ag.Value {
	probs := ag.SoftmaxRows(logits)
	logp := ag.Log(ag.AddScalar(probs, 1e-12))
	perRow := ag.SumCols(ag.Mul(logp, onehot))
	return ag.Neg(ag.MeanAll(perRow))
}
