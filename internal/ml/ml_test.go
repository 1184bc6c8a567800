package ml

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/datasets"
	"repro/internal/tensor"
)

// blobs generates a linearly separable 2-class problem with margin.
func blobs(rng *rand.Rand, n int) (*tensor.Dense, []int) {
	x := tensor.New(n, 2)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		c := i % 2
		y[i] = c
		shift := -2.0
		if c == 1 {
			shift = 2.0
		}
		x.Set(i, 0, rng.NormFloat64()*0.5+shift)
		x.Set(i, 1, rng.NormFloat64()*0.5-shift)
	}
	return x, y
}

// rings generates a non-linearly separable problem (inner disk vs ring).
func rings(rng *rand.Rand, n int) (*tensor.Dense, []int) {
	x := tensor.New(n, 2)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		var r float64
		c := i % 2
		y[i] = c
		if c == 0 {
			r = rng.Float64() * 1.0
		} else {
			r = 2.0 + rng.Float64()
		}
		theta := rng.Float64() * 2 * math.Pi
		x.Set(i, 0, r*math.Cos(theta))
		x.Set(i, 1, r*math.Sin(theta))
	}
	return x, y
}

func checkAccuracy(t *testing.T, c Classifier, x *tensor.Dense, y []int, k int, min float64) {
	t.Helper()
	if err := c.Fit(x, y, k); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	acc := Accuracy(Predict(c, x), y)
	if acc < min {
		t.Fatalf("train accuracy = %v want >= %v", acc, min)
	}
	proba := c.PredictProba(x)
	for i := 0; i < proba.Rows(); i++ {
		var sum float64
		for j := 0; j < proba.Cols(); j++ {
			p := proba.At(i, j)
			if p < -1e-9 || p > 1+1e-9 {
				t.Fatalf("probability %v out of range", p)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-6 {
			t.Fatalf("probabilities sum to %v", sum)
		}
	}
}

func TestClassifiersOnSeparableBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x, y := blobs(rng, 300)
	tests := []struct {
		name string
		c    Classifier
		min  float64
	}{
		{"decision_tree", &DecisionTree{}, 0.95},
		{"random_forest", &RandomForest{Seed: 1}, 0.95},
		{"logistic", &LogisticRegression{}, 0.95},
		{"svm", &LinearSVM{Seed: 1}, 0.95},
		{"mlp", &MLP{Seed: 1}, 0.95},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			checkAccuracy(t, tc.c, x, y, 2, tc.min)
		})
	}
}

func TestNonLinearModelsOnRings(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x, y := rings(rng, 400)
	// Trees and MLP handle the ring; linear models cannot (~50%).
	for _, tc := range []struct {
		name string
		c    Classifier
	}{
		{"decision_tree", &DecisionTree{}},
		{"random_forest", &RandomForest{Seed: 2}},
		{"mlp", &MLP{Seed: 2, Epochs: 250}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkAccuracy(t, tc.c, x, y, 2, 0.9)
		})
	}
	lin := &LogisticRegression{}
	if err := lin.Fit(x, y, 2); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if acc := Accuracy(Predict(lin, x), y); acc > 0.7 {
		t.Fatalf("linear model should fail on rings, got accuracy %v", acc)
	}
}

func TestMulticlass(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 300
	x := tensor.New(n, 2)
	y := make([]int, n)
	centers := [][2]float64{{-3, 0}, {3, 0}, {0, 4}}
	for i := 0; i < n; i++ {
		c := i % 3
		y[i] = c
		x.Set(i, 0, rng.NormFloat64()*0.5+centers[c][0])
		x.Set(i, 1, rng.NormFloat64()*0.5+centers[c][1])
	}
	for _, tc := range []struct {
		name string
		c    Classifier
	}{
		{"decision_tree", &DecisionTree{}},
		{"random_forest", &RandomForest{Seed: 3}},
		{"logistic", &LogisticRegression{}},
		{"svm", &LinearSVM{Seed: 3}},
		{"mlp", &MLP{Seed: 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkAccuracy(t, tc.c, x, y, 3, 0.93)
		})
	}
}

func TestFitErrors(t *testing.T) {
	for _, c := range []Classifier{
		&DecisionTree{}, &RandomForest{}, &LogisticRegression{}, &LinearSVM{}, &MLP{},
	} {
		if err := c.Fit(tensor.New(0, 2), nil, 2); err == nil {
			t.Fatalf("%T: expected error on empty data", c)
		}
	}
}

func TestAccuracyMetric(t *testing.T) {
	if got := Accuracy([]int{1, 0, 1}, []int{1, 1, 1}); math.Abs(got-2.0/3) > 1e-12 {
		t.Fatalf("Accuracy = %v", got)
	}
	if got := Accuracy(nil, nil); got != 0 {
		t.Fatalf("Accuracy(empty) = %v", got)
	}
}

func TestMacroF1(t *testing.T) {
	// Perfect predictions: F1 = 1.
	if got := MacroF1([]int{0, 1, 0, 1}, []int{0, 1, 0, 1}, 2); got != 1 {
		t.Fatalf("perfect F1 = %v", got)
	}
	// All predicted class 0 on a balanced set: F1_0 = 2/3, F1_1 = 0.
	got := MacroF1([]int{0, 0, 0, 0}, []int{0, 0, 1, 1}, 2)
	if math.Abs(got-1.0/3) > 1e-9 {
		t.Fatalf("degenerate F1 = %v want 1/3", got)
	}
}

func TestBinaryAUC(t *testing.T) {
	// Perfectly ranked scores: AUC = 1.
	if got := BinaryAUC([]float64{0.1, 0.2, 0.8, 0.9}, []int{0, 0, 1, 1}); got != 1 {
		t.Fatalf("perfect AUC = %v", got)
	}
	// Reversed ranking: AUC = 0.
	if got := BinaryAUC([]float64{0.9, 0.8, 0.2, 0.1}, []int{0, 0, 1, 1}); got != 0 {
		t.Fatalf("reversed AUC = %v", got)
	}
	// Constant scores (all tied): AUC = 0.5.
	if got := BinaryAUC([]float64{0.5, 0.5, 0.5, 0.5}, []int{0, 1, 0, 1}); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("tied AUC = %v", got)
	}
	// Single class: degenerate 0.5.
	if got := BinaryAUC([]float64{0.1, 0.2}, []int{1, 1}); got != 0.5 {
		t.Fatalf("single-class AUC = %v", got)
	}
}

func TestMacroAUCMulticlass(t *testing.T) {
	proba := tensor.FromRows([][]float64{
		{0.8, 0.1, 0.1},
		{0.1, 0.8, 0.1},
		{0.1, 0.1, 0.8},
	})
	if got := MacroAUC(proba, []int{0, 1, 2}, 3); got != 1 {
		t.Fatalf("MacroAUC = %v", got)
	}
}

func TestScoresArithmetic(t *testing.T) {
	a := Scores{Accuracy: 0.9, F1: 0.8, AUC: 0.95}
	b := Scores{Accuracy: 0.85, F1: 0.9, AUC: 0.90}
	d := a.Sub(b).Abs()
	if math.Abs(d.Accuracy-0.05) > 1e-12 || math.Abs(d.F1-0.1) > 1e-12 || math.Abs(d.AUC-0.05) > 1e-12 {
		t.Fatalf("diff = %+v", d)
	}
	s := a.Add(b).Scale(0.5)
	if math.Abs(s.Accuracy-0.875) > 1e-12 {
		t.Fatalf("avg = %+v", s)
	}
}

func TestFeaturizer(t *testing.T) {
	d, err := datasets.Generate("loan", datasets.Config{Rows: 300, Seed: 1})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	f, err := NewFeaturizer(d.Table, d.Target)
	if err != nil {
		t.Fatalf("NewFeaturizer: %v", err)
	}
	x, y, err := f.Transform(d.Table)
	if err != nil {
		t.Fatalf("Transform: %v", err)
	}
	if x.Rows() != 300 || len(y) != 300 {
		t.Fatalf("transformed shape %dx%d labels %d", x.Rows(), x.Cols(), len(y))
	}
	if x.Cols() != f.width {
		t.Fatalf("width mismatch %d vs %d", x.Cols(), f.width)
	}
	if f.NumClasses() != 2 {
		t.Fatalf("NumClasses = %d", f.NumClasses())
	}
	// Numeric columns must be standardized: overall column means ~0.
	means := x.MeanRows()
	// Locate the first numeric output column (age is column 0, numeric).
	if math.Abs(means.At(0, 0)) > 1e-9 {
		t.Fatalf("standardized mean = %v", means.At(0, 0))
	}
}

func TestFeaturizerErrors(t *testing.T) {
	d, err := datasets.Generate("loan", datasets.Config{Rows: 50, Seed: 1})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if _, err := NewFeaturizer(d.Table, -1); err == nil {
		t.Fatal("expected range error")
	}
	if _, err := NewFeaturizer(d.Table, 0); err == nil {
		t.Fatal("expected non-categorical-target error (age)")
	}
}

func TestUtilityPipelineRealVsReal(t *testing.T) {
	// Real vs real difference must be ~0: same data trains both sides.
	d, err := datasets.Generate("adult", datasets.Config{Rows: 600, Seed: 4})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	rng := rand.New(rand.NewSource(1))
	train, test, err := d.TrainTestSplit(rng, 0.25)
	if err != nil {
		t.Fatalf("TrainTestSplit: %v", err)
	}
	diff, err := UtilityDifference(train, train, test, d.Target, 1)
	if err != nil {
		t.Fatalf("UtilityDifference: %v", err)
	}
	if diff.Accuracy > 1e-9 || diff.F1 > 1e-9 || diff.AUC > 1e-9 {
		t.Fatalf("real-vs-real difference = %+v want 0", diff)
	}
}

func TestUtilityDetectsGarbageData(t *testing.T) {
	// A shuffled-label clone of the training data must measurably reduce
	// utility, otherwise the metric could not separate good from bad
	// synthetic data.
	d, err := datasets.Generate("adult", datasets.Config{Rows: 600, Seed: 5})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	rng := rand.New(rand.NewSource(2))
	train, test, err := d.TrainTestSplit(rng, 0.25)
	if err != nil {
		t.Fatalf("TrainTestSplit: %v", err)
	}
	// Garbage: permute the target column, destroying feature-label links.
	garbage := train.GatherRows(seq(train.Rows()))
	perm := rng.Perm(train.Rows())
	col := garbage.Data.Col(d.Target)
	for i, p := range perm {
		garbage.Data.Set(i, d.Target, col[p])
	}
	diff, err := UtilityDifference(train, garbage, test, d.Target, 1)
	if err != nil {
		t.Fatalf("UtilityDifference: %v", err)
	}
	if diff.F1 < 0.02 && diff.AUC < 0.02 {
		t.Fatalf("garbage data difference = %+v, should be clearly nonzero", diff)
	}
}

func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestEvaluateOnDataset(t *testing.T) {
	// End-to-end: classifiers trained on a real synthetic-stand-in dataset
	// should beat the majority-class baseline on F1.
	d, err := datasets.Generate("loan", datasets.Config{Rows: 800, Seed: 6})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	rng := rand.New(rand.NewSource(3))
	train, test, err := d.TrainTestSplit(rng, 0.25)
	if err != nil {
		t.Fatalf("TrainTestSplit: %v", err)
	}
	per, avg, err := UtilityScores(train, test, d.Target, 1)
	if err != nil {
		t.Fatalf("UtilityScores: %v", err)
	}
	if len(per) != 5 {
		t.Fatalf("classifier count = %d want 5", len(per))
	}
	if avg.AUC < 0.6 {
		t.Fatalf("average AUC = %v, features should predict the target", avg.AUC)
	}
	// The average sums the classifiers in name order, so it is the same
	// bits on every run; a sum in map order would differ in the last place
	// on most runs. Four seeds give four sets of scores to sum.
	names := make([]string, 0, len(per))
	for name := range per {
		names = append(names, name)
	}
	sort.Strings(names)
	for seed := int64(1); seed <= 4; seed++ {
		if seed > 1 {
			if per, avg, err = UtilityScores(train, test, d.Target, seed); err != nil {
				t.Fatalf("UtilityScores(seed %d): %v", seed, err)
			}
		}
		var want Scores
		for _, name := range names {
			want = want.Add(per[name])
		}
		if want = want.Scale(1 / float64(len(per))); avg != want {
			t.Fatalf("seed %d: average %+v is not the name-ordered mean %+v", seed, avg, want)
		}
	}
}
