package ml

import (
	"errors"
	"math"
	"math/rand"

	"repro/internal/tensor"
)

// LogisticRegression is a multinomial (softmax) logistic regression trained
// with full-batch gradient descent and L2 regularization.
type LogisticRegression struct {
	// LR is the learning rate (default 0.5).
	LR float64
	// Epochs is the number of full-batch iterations (default 200).
	Epochs int
	// L2 is the regularization strength (default 1e-4).
	L2 float64

	w *tensor.Dense // features x classes
	b []float64
}

var _ Classifier = (*LogisticRegression)(nil)

// Fit implements Classifier.
//
//shape:in(B,D) in(K)
func (m *LogisticRegression) Fit(x *tensor.Dense, y []int, numClasses int) error {
	if x.Rows() == 0 || x.Rows() != len(y) {
		return errors.New("ml: logistic regression fit with empty or misaligned data")
	}
	if m.LR <= 0 {
		m.LR = 0.5
	}
	if m.Epochs == 0 {
		m.Epochs = 200
	}
	if m.L2 <= 0 {
		m.L2 = 1e-4
	}
	n, d := x.Shape()
	m.w = tensor.New(d, numClasses)
	m.b = make([]float64, numClasses)

	for epoch := 0; epoch < m.Epochs; epoch++ {
		probs := m.scores(x)
		softmaxInPlace(probs)
		// Gradient: X^T (P - Y) / n + l2*W.
		for i := 0; i < n; i++ {
			probs.Set(i, y[i], probs.At(i, y[i])-1)
		}
		gw := tensor.MatMulTA(x, probs).Scale(1 / float64(n))
		gw.AxpyInPlace(m.L2, m.w)
		gb := probs.MeanRows()
		m.w.AxpyInPlace(-m.LR, gw)
		for c := 0; c < numClasses; c++ {
			m.b[c] -= float64(m.LR * gb.At(0, c))
		}
	}
	return nil
}

// scores returns the raw linear scores x*w + b.
func (m *LogisticRegression) scores(x *tensor.Dense) *tensor.Dense {
	out := tensor.MatMul(x, m.w)
	for i := 0; i < out.Rows(); i++ {
		row := out.RawRow(i)
		for c := range row {
			row[c] += m.b[c]
		}
	}
	return out
}

// PredictProba implements Classifier.
//
//shape:in(B,D) out(B,K)
func (m *LogisticRegression) PredictProba(x *tensor.Dense) *tensor.Dense {
	out := m.scores(x)
	softmaxInPlace(out)
	return out
}

// LinearSVM is a one-vs-rest linear support vector machine trained with
// subgradient descent on the L2-regularized hinge loss. Probabilities are
// produced by a logistic squashing of the margins (Platt-style with fixed
// slope), sufficient for ranking-based AUC.
type LinearSVM struct {
	// LR is the learning rate (default 0.1).
	LR float64
	// Epochs is the number of full-batch iterations (default 150).
	Epochs int
	// C is the inverse regularization strength (default 1).
	C float64
	// Seed drives the (deterministic) initialization.
	Seed int64

	w *tensor.Dense
	b []float64
}

var _ Classifier = (*LinearSVM)(nil)

// Fit implements Classifier.
//
//shape:in(B,D) in(K)
func (m *LinearSVM) Fit(x *tensor.Dense, y []int, numClasses int) error {
	if x.Rows() == 0 || x.Rows() != len(y) {
		return errors.New("ml: svm fit with empty or misaligned data")
	}
	if m.LR <= 0 {
		m.LR = 0.1
	}
	if m.Epochs == 0 {
		m.Epochs = 150
	}
	if m.C <= 0 {
		m.C = 1
	}
	n, d := x.Shape()
	rng := rand.New(rand.NewSource(m.Seed))
	m.w = tensor.Randn(rng, d, numClasses, 0, 0.01)
	m.b = make([]float64, numClasses)
	lambda := 1 / (m.C * float64(n))

	for epoch := 0; epoch < m.Epochs; epoch++ {
		margins := m.margins(x)
		gw := tensor.New(d, numClasses)
		gb := make([]float64, numClasses)
		for i := 0; i < n; i++ {
			row := x.RawRow(i)
			for c := 0; c < numClasses; c++ {
				sign := -1.0
				if y[i] == c {
					sign = 1.0
				}
				if sign*margins.At(i, c) < 1 {
					// Subgradient of hinge: -sign * x.
					gRow := gw.Data()
					for j, v := range row {
						gRow[j*numClasses+c] -= float64(sign * v)
					}
					gb[c] -= sign
				}
			}
		}
		inv := 1 / float64(n)
		gw = gw.Scale(inv)
		gw.AxpyInPlace(lambda, m.w)
		m.w.AxpyInPlace(-m.LR, gw)
		for c := 0; c < numClasses; c++ {
			m.b[c] -= float64(m.LR * gb[c] * inv)
		}
	}
	return nil
}

// margins returns the raw decision values x*w + b.
func (m *LinearSVM) margins(x *tensor.Dense) *tensor.Dense {
	out := tensor.MatMul(x, m.w)
	for i := 0; i < out.Rows(); i++ {
		row := out.RawRow(i)
		for c := range row {
			row[c] += m.b[c]
		}
	}
	return out
}

// PredictProba implements Classifier.
//
//shape:in(B,D) out(B,K)
func (m *LinearSVM) PredictProba(x *tensor.Dense) *tensor.Dense {
	out := m.margins(x)
	// Squash margins through a sigmoid then renormalize per row.
	for i := 0; i < out.Rows(); i++ {
		row := out.RawRow(i)
		var sum float64
		for c := range row {
			row[c] = 1 / (1 + math.Exp(-row[c]))
			sum += row[c]
		}
		if sum > 0 {
			for c := range row {
				row[c] /= sum
			}
		}
	}
	return out
}

// softmaxInPlace applies a numerically stable row-wise softmax.
func softmaxInPlace(m *tensor.Dense) {
	for i := 0; i < m.Rows(); i++ {
		row := m.RawRow(i)
		maxv := math.Inf(-1)
		for _, v := range row {
			if v > maxv {
				maxv = v
			}
		}
		var sum float64
		for c, v := range row {
			row[c] = math.Exp(v - maxv)
			sum += row[c]
		}
		for c := range row {
			row[c] /= sum
		}
	}
}
