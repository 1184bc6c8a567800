package ml

import (
	"errors"
	"math"
	"math/rand"
	"sort"

	"repro/internal/tensor"
)

// DecisionTree is a CART classifier with Gini-impurity splits.
type DecisionTree struct {
	// MaxDepth bounds tree depth (0 means the default of 12).
	MaxDepth int
	// MinSamplesSplit is the minimum node size eligible for splitting.
	MinSamplesSplit int
	// MaxFeatures, when positive, restricts each split to a random subset
	// of that many features (used by random forests). Rng must be set when
	// MaxFeatures is positive.
	MaxFeatures int
	Rng         *rand.Rand

	root       *treeNode
	numClasses int
}

var _ Classifier = (*DecisionTree)(nil)

type treeNode struct {
	feature   int
	threshold float64
	left      *treeNode
	right     *treeNode
	// proba is set on leaves: class distribution of training rows.
	proba []float64
}

// Fit implements Classifier.
//
//shape:in(B,D) in(K)
func (t *DecisionTree) Fit(x *tensor.Dense, y []int, numClasses int) error {
	if x.Rows() == 0 || x.Rows() != len(y) {
		return errors.New("ml: tree fit with empty or misaligned data")
	}
	if t.MaxDepth == 0 {
		t.MaxDepth = 12
	}
	if t.MinSamplesSplit < 2 {
		t.MinSamplesSplit = 2
	}
	t.numClasses = numClasses
	idx := make([]int, x.Rows())
	for i := range idx {
		idx[i] = i
	}
	t.root = t.build(x, y, idx, 0)
	return nil
}

// build grows the tree recursively on the rows in idx.
func (t *DecisionTree) build(x *tensor.Dense, y []int, idx []int, depth int) *treeNode {
	counts := make([]float64, t.numClasses)
	for _, i := range idx {
		counts[y[i]]++
	}
	node := &treeNode{}
	pure := false
	for _, c := range counts {
		if int(c) == len(idx) { // counts are exact integers
			pure = true
		}
	}
	if pure || depth >= t.MaxDepth || len(idx) < t.MinSamplesSplit {
		node.proba = normalizeCounts(counts, len(idx))
		return node
	}

	feature, threshold, gain := t.bestSplit(x, y, idx, counts)
	if gain <= 1e-12 {
		node.proba = normalizeCounts(counts, len(idx))
		return node
	}
	var left, right []int
	for _, i := range idx {
		if x.At(i, feature) <= threshold {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) == 0 || len(right) == 0 {
		node.proba = normalizeCounts(counts, len(idx))
		return node
	}
	node.feature = feature
	node.threshold = threshold
	node.left = t.build(x, y, left, depth+1)
	node.right = t.build(x, y, right, depth+1)
	return node
}

// bestSplit scans candidate features for the split with maximal Gini gain.
func (t *DecisionTree) bestSplit(x *tensor.Dense, y []int, idx []int, parentCounts []float64) (int, float64, float64) {
	n := float64(len(idx))
	parentGini := gini(parentCounts, n)

	features := t.candidateFeatures(x.Cols())
	bestGain := 0.0
	bestFeature, bestThreshold := -1, 0.0

	type sv struct {
		v float64
		y int
	}
	vals := make([]sv, len(idx))
	for _, f := range features {
		for k, i := range idx {
			vals[k] = sv{x.At(i, f), y[i]}
		}
		sort.Slice(vals, func(a, b int) bool { return vals[a].v < vals[b].v })

		leftCounts := make([]float64, t.numClasses)
		rightCounts := append([]float64(nil), parentCounts...)
		for k := 0; k < len(vals)-1; k++ {
			leftCounts[vals[k].y]++
			rightCounts[vals[k].y]--
			if !(vals[k].v < vals[k+1].v) { // sorted: not-less means equal value
				continue
			}
			nl, nr := float64(k+1), n-float64(k+1)
			gain := parentGini - (float64(nl*gini(leftCounts, nl))+float64(nr*gini(rightCounts, nr)))/n
			if gain > bestGain {
				bestGain = gain
				bestFeature = f
				bestThreshold = (vals[k].v + vals[k+1].v) / 2
			}
		}
	}
	return bestFeature, bestThreshold, bestGain
}

// candidateFeatures returns all features, or a random subset when
// MaxFeatures is set.
func (t *DecisionTree) candidateFeatures(total int) []int {
	if t.MaxFeatures <= 0 || t.MaxFeatures >= total || t.Rng == nil {
		out := make([]int, total)
		for i := range out {
			out[i] = i
		}
		return out
	}
	perm := t.Rng.Perm(total)
	return perm[:t.MaxFeatures]
}

// PredictProba implements Classifier.
//
//shape:in(B,D) out(B,K)
func (t *DecisionTree) PredictProba(x *tensor.Dense) *tensor.Dense {
	out := tensor.New(x.Rows(), t.numClasses)
	for i := 0; i < x.Rows(); i++ {
		node := t.root
		for node.proba == nil {
			if x.At(i, node.feature) <= node.threshold {
				node = node.left
			} else {
				node = node.right
			}
		}
		copy(out.RawRow(i), node.proba)
	}
	return out
}

func gini(counts []float64, n float64) float64 {
	if n < 1 {
		return 0
	}
	s := 1.0
	for _, c := range counts {
		p := c / n
		s -= float64(p * p)
	}
	return s
}

func normalizeCounts(counts []float64, n int) []float64 {
	out := make([]float64, len(counts))
	if n == 0 {
		return out
	}
	for i, c := range counts {
		out[i] = c / float64(n)
	}
	return out
}

// RandomForest is a bagged ensemble of Gini decision trees with random
// feature subsets at each split.
type RandomForest struct {
	// NumTrees is the ensemble size (default 20).
	NumTrees int
	// MaxDepth bounds each tree (default 10).
	MaxDepth int
	// Seed drives bootstrap and feature sampling.
	Seed int64

	trees      []*DecisionTree
	numClasses int
}

var _ Classifier = (*RandomForest)(nil)

// Fit implements Classifier.
//
//shape:in(B,D) in(K)
func (f *RandomForest) Fit(x *tensor.Dense, y []int, numClasses int) error {
	if x.Rows() == 0 || x.Rows() != len(y) {
		return errors.New("ml: forest fit with empty or misaligned data")
	}
	if f.NumTrees == 0 {
		f.NumTrees = 20
	}
	if f.MaxDepth == 0 {
		f.MaxDepth = 10
	}
	f.numClasses = numClasses
	rng := rand.New(rand.NewSource(f.Seed))
	maxFeatures := int(math.Ceil(math.Sqrt(float64(x.Cols()))))

	f.trees = make([]*DecisionTree, f.NumTrees)
	n := x.Rows()
	for ti := range f.trees {
		// Bootstrap sample.
		idx := make([]int, n)
		for i := range idx {
			idx[i] = rng.Intn(n)
		}
		bx := x.GatherRows(idx)
		by := make([]int, n)
		for i, j := range idx {
			by[i] = y[j]
		}
		tree := &DecisionTree{
			MaxDepth:    f.MaxDepth,
			MaxFeatures: maxFeatures,
			Rng:         rand.New(rand.NewSource(rng.Int63())),
		}
		if err := tree.Fit(bx, by, numClasses); err != nil {
			return err
		}
		f.trees[ti] = tree
	}
	return nil
}

// PredictProba implements Classifier.
//
//shape:in(B,D) out(B,K)
func (f *RandomForest) PredictProba(x *tensor.Dense) *tensor.Dense {
	out := tensor.New(x.Rows(), f.numClasses)
	for _, tree := range f.trees {
		out.AddInPlace(tree.PredictProba(x))
	}
	return out.Scale(1 / float64(len(f.trees)))
}
