// Package shapley estimates per-feature Shapley values for the task of
// predicting a table's target column with an MLP, using the Monte Carlo
// permutation-sampling estimator of Castro et al. A feature "absent" from a
// coalition is marginalized by replacing its values with values drawn from
// random background rows, the standard sampling approximation of the
// conditional expectation.
//
// The GTV paper uses these importances twice: for the motivation case study
// (Fig. 3) and to construct the 1090/5050/9010 feature partitions of the
// data-partition experiments (§4.3.2).
package shapley

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/encoding"
	"repro/internal/ml"
)

// Config controls the Shapley estimation.
type Config struct {
	// Permutations is the number of sampled feature permutations
	// (default 20).
	Permutations int
	// EvalRows caps the number of rows used to evaluate coalition accuracy
	// (default 256).
	EvalRows int
	// Hidden is the MLP hidden width; the paper uses 100.
	Hidden int
	// Epochs trains the underlying MLP (default 80).
	Epochs int
	// Seed drives every random choice.
	Seed int64
}

// DefaultConfig returns the paper-flavoured configuration: an MLP with one
// hidden layer of 100 neurons.
func DefaultConfig() Config {
	return Config{Permutations: 20, EvalRows: 256, Hidden: 100, Epochs: 80, Seed: 1}
}

// FeatureImportance returns one Shapley value per non-target column of the
// table (indexed by raw column order, skipping the target). Higher means
// the feature contributes more accuracy to the MLP's target prediction.
func FeatureImportance(t *encoding.Table, target int, cfg Config) ([]float64, error) {
	if cfg.Permutations <= 0 {
		cfg.Permutations = 20
	}
	if cfg.EvalRows <= 0 {
		cfg.EvalRows = 256
	}
	if cfg.Hidden <= 0 {
		cfg.Hidden = 100
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 80
	}
	feat, err := ml.NewFeaturizer(t, target)
	if err != nil {
		return nil, fmt.Errorf("shapley: %w", err)
	}
	x, y, err := feat.Transform(t)
	if err != nil {
		return nil, fmt.Errorf("shapley: featurizing: %w", err)
	}
	model := &ml.MLP{Hidden: cfg.Hidden, Epochs: cfg.Epochs, Seed: cfg.Seed}
	if err := model.Fit(x, y, feat.NumClasses()); err != nil {
		return nil, fmt.Errorf("shapley: training MLP: %w", err)
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	evalRows := cfg.EvalRows
	if evalRows > x.Rows() {
		evalRows = x.Rows()
	}
	evalIdx := rng.Perm(x.Rows())[:evalRows]
	xEval := x.GatherRows(evalIdx)
	yEval := make([]int, evalRows)
	for i, r := range evalIdx {
		yEval[i] = y[r]
	}

	ranges := feat.ColumnRanges()
	nFeatures := len(ranges)
	values := make([]float64, nFeatures)

	// value evaluates coalition accuracy: features in the coalition keep
	// their true values; the rest are replaced by values from random
	// background rows (drawn fresh for every evaluation).
	value := func(inCoalition []bool) float64 {
		perturbed := xEval.Clone()
		for fi, in := range inCoalition {
			if in {
				continue
			}
			r := ranges[fi]
			for i := 0; i < perturbed.Rows(); i++ {
				bg := x.RawRow(rng.Intn(x.Rows()))
				copy(perturbed.RawRow(i)[r.Start:r.Start+r.Width], bg[r.Start:r.Start+r.Width])
			}
		}
		return ml.Accuracy(ml.Predict(model, perturbed), yEval)
	}

	in := make([]bool, nFeatures)
	for p := 0; p < cfg.Permutations; p++ {
		perm := rng.Perm(nFeatures)
		for i := range in {
			in[i] = false
		}
		prev := value(in)
		for _, fi := range perm {
			in[fi] = true
			cur := value(in)
			values[fi] += cur - prev
			prev = cur
		}
	}
	for i := range values {
		values[i] /= float64(cfg.Permutations)
	}
	return values, nil
}

// Rank returns the raw-table column indices of the non-target features in
// descending importance order. ranges must pair with the importance slice
// as produced by FeatureImportance (raw column order, target skipped).
func Rank(t *encoding.Table, target int, importance []float64) ([]int, error) {
	var cols []int
	for j := range t.Specs {
		if j != target {
			cols = append(cols, j)
		}
	}
	if len(cols) != len(importance) {
		return nil, fmt.Errorf("shapley: %d importances for %d features", len(importance), len(cols))
	}
	order := make([]int, len(cols))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return importance[order[a]] > importance[order[b]] })
	out := make([]int, len(cols))
	for i, o := range order {
		out[i] = cols[o]
	}
	return out, nil
}

// SplitByImportance partitions the non-target columns into a "most
// important" head holding frac of the features (at least one) and the
// remaining tail, per the paper's 1090/5050/9010 data partitions.
func SplitByImportance(ranked []int, frac float64) (head, tail []int, err error) {
	if len(ranked) < 2 {
		return nil, nil, fmt.Errorf("shapley: cannot split %d features", len(ranked))
	}
	if frac <= 0 || frac >= 1 {
		return nil, nil, fmt.Errorf("shapley: fraction %v out of (0,1)", frac)
	}
	n := int(float64(float64(len(ranked))*frac) + 0.5)
	if n < 1 {
		n = 1
	}
	if n >= len(ranked) {
		n = len(ranked) - 1
	}
	head = append([]int(nil), ranked[:n]...)
	tail = append([]int(nil), ranked[n:]...)
	return head, tail, nil
}

// TopFraction is a convenience that ranks features by Shapley importance
// and returns the top-frac columns and the remainder.
func TopFraction(t *encoding.Table, target int, frac float64, cfg Config) (head, tail []int, err error) {
	imp, err := FeatureImportance(t, target, cfg)
	if err != nil {
		return nil, nil, err
	}
	ranked, err := Rank(t, target, imp)
	if err != nil {
		return nil, nil, err
	}
	return SplitByImportance(ranked, frac)
}
