// Package ml implements the machine-learning utility pipeline of the GTV
// evaluation (§4.2.1): five from-scratch classifiers (decision tree, random
// forest, linear SVM, multinomial logistic regression, MLP), the
// accuracy/F1/AUC metrics, and a featurizer that converts raw tables into
// classifier inputs the way the paper's sklearn pipeline does (one-hot
// categorical features, standardized numeric features).
package ml

import (
	"fmt"
	"math"

	"repro/internal/encoding"
	"repro/internal/tensor"
)

// Classifier is a multi-class probabilistic classifier.
type Classifier interface {
	// Fit trains on feature matrix x (rows = samples) with labels y in
	// [0, numClasses).
	//
	//shape:in(B,D) in(K)
	Fit(x *tensor.Dense, y []int, numClasses int) error
	// PredictProba returns a rows x numClasses matrix of class probabilities.
	//
	//shape:in(B,D) out(B,K)
	PredictProba(x *tensor.Dense) *tensor.Dense
}

// Predict returns argmax-class predictions from a classifier.
//
//shape:in(B,D)
func Predict(c Classifier, x *tensor.Dense) []int {
	return c.PredictProba(x).ArgmaxRows()
}

// Featurizer converts raw tables into numeric classifier features:
// categorical columns are one-hot encoded and numeric (continuous or mixed)
// columns are standardized with statistics learned from the fitted table.
type Featurizer struct {
	specs  []encoding.ColumnSpec
	target int
	means  []float64
	stds   []float64
	width  int
}

// NewFeaturizer learns featurization statistics from the table, excluding
// the target column.
func NewFeaturizer(t *encoding.Table, target int) (*Featurizer, error) {
	if target < 0 || target >= t.Cols() {
		return nil, fmt.Errorf("ml: target column %d out of range %d", target, t.Cols())
	}
	if t.Specs[target].Kind != encoding.KindCategorical {
		return nil, fmt.Errorf("ml: target column %q is not categorical", t.Specs[target].Name)
	}
	f := &Featurizer{
		specs:  t.Specs,
		target: target,
		means:  make([]float64, t.Cols()),
		stds:   make([]float64, t.Cols()),
	}
	for j := range t.Specs {
		if j == target {
			continue
		}
		switch t.Specs[j].Kind {
		case encoding.KindCategorical:
			f.width += t.Specs[j].NumCategories()
		default:
			col := t.Column(j)
			mu, sd := meanStd(col)
			if sd < 1e-9 {
				sd = 1
			}
			f.means[j], f.stds[j] = mu, sd
			f.width++
		}
	}
	return f, nil
}

// Range is a contiguous block of feature columns produced by one raw column.
type Range struct {
	// Column is the raw column index (never the target).
	Column int
	// Start and Width locate the block in the feature matrix.
	Start, Width int
}

// ColumnRanges returns the feature-matrix block produced by each raw
// column, in raw column order (excluding the target). Shapley-value
// estimation uses this to knock out a raw column by perturbing its block.
func (f *Featurizer) ColumnRanges() []Range {
	out := make([]Range, 0, len(f.specs)-1)
	off := 0
	for j := range f.specs {
		if j == f.target {
			continue
		}
		w := 1
		if f.specs[j].Kind == encoding.KindCategorical {
			w = f.specs[j].NumCategories()
		}
		out = append(out, Range{Column: j, Start: off, Width: w})
		off += w
	}
	return out
}

// NumClasses returns the number of target classes.
func (f *Featurizer) NumClasses() int { return f.specs[f.target].NumCategories() }

// Transform converts a table (with the same schema as the fitted one) into
// a feature matrix and label vector.
//
//shape:out(B,D)
func (f *Featurizer) Transform(t *encoding.Table) (*tensor.Dense, []int, error) {
	if len(t.Specs) != len(f.specs) {
		return nil, nil, fmt.Errorf("ml: table has %d columns, featurizer fitted on %d", len(t.Specs), len(f.specs))
	}
	x := tensor.New(t.Rows(), f.width)
	y := make([]int, t.Rows())
	for i := 0; i < t.Rows(); i++ {
		src := t.Data.RawRow(i)
		dst := x.RawRow(i)
		off := 0
		for j := range f.specs {
			if j == f.target {
				cls := int(src[j])
				if cls < 0 || cls >= f.NumClasses() {
					return nil, nil, fmt.Errorf("ml: row %d target class %v out of range", i, src[j])
				}
				y[i] = cls
				continue
			}
			switch f.specs[j].Kind {
			case encoding.KindCategorical:
				k := int(src[j])
				n := f.specs[j].NumCategories()
				if k >= 0 && k < n {
					dst[off+k] = 1
				}
				off += n
			default:
				dst[off] = (src[j] - f.means[j]) / f.stds[j]
				off++
			}
		}
	}
	return x, y, nil
}

func meanStd(xs []float64) (float64, float64) {
	if len(xs) == 0 {
		return 0, 1
	}
	var mu float64
	for _, v := range xs {
		mu += v
	}
	mu /= float64(len(xs))
	var va float64
	for _, v := range xs {
		d := v - mu
		va += float64(d * d)
	}
	return mu, math.Sqrt(va / float64(len(xs)))
}
