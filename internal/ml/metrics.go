package ml

import (
	"fmt"
	"sort"

	"repro/internal/tensor"
)

// Accuracy returns the fraction of predictions equal to the labels.
func Accuracy(pred, y []int) float64 {
	if len(pred) == 0 {
		return 0
	}
	var ok int
	for i := range pred {
		if pred[i] == y[i] {
			ok++
		}
	}
	return float64(ok) / float64(len(pred))
}

// MacroF1 returns the unweighted mean of per-class F1 scores over
// numClasses classes. Classes absent from both predictions and labels
// contribute an F1 of zero, matching sklearn's zero_division=0 behaviour.
func MacroF1(pred, y []int, numClasses int) float64 {
	if numClasses <= 0 {
		return 0
	}
	var total float64
	for c := 0; c < numClasses; c++ {
		var tp, fp, fn float64
		for i := range pred {
			switch {
			case pred[i] == c && y[i] == c:
				tp++
			case pred[i] == c && y[i] != c:
				fp++
			case pred[i] != c && y[i] == c:
				fn++
			}
		}
		if tp > 0 {
			precision := tp / (tp + fp)
			recall := tp / (tp + fn)
			total += 2 * precision * recall / (precision + recall)
		}
	}
	return total / float64(numClasses)
}

// BinaryAUC returns the area under the ROC curve given scores for the
// positive class and binary labels. Tied scores are handled by the
// rank-based (Mann-Whitney) formulation.
func BinaryAUC(scores []float64, y []int) float64 {
	type pair struct {
		s float64
		y int
	}
	ps := make([]pair, len(scores))
	var pos, neg float64
	for i := range scores {
		ps[i] = pair{scores[i], y[i]}
		if y[i] == 1 {
			pos++
		} else {
			neg++
		}
	}
	if pos < 1 || neg < 1 {
		return 0.5
	}
	sort.Slice(ps, func(a, b int) bool { return ps[a].s < ps[b].s })

	// Assign average ranks to ties.
	ranks := make([]float64, len(ps))
	for i := 0; i < len(ps); {
		j := i
		for j < len(ps) && !(ps[i].s < ps[j].s) { // sorted: not-less means tied
			j++
		}
		avg := float64(i+j+1) / 2 // 1-based average rank
		for k := i; k < j; k++ {
			ranks[k] = avg
		}
		i = j
	}
	var rankSum float64
	for i := range ps {
		if ps[i].y == 1 {
			rankSum += ranks[i]
		}
	}
	return (rankSum - float64(pos*(pos+1)/2)) / (pos * neg)
}

// MacroAUC returns the macro-averaged one-vs-rest AUC for a probability
// matrix (rows x classes). For binary problems it equals the standard AUC.
//
//shape:in(B,K) in(K)
func MacroAUC(proba *tensor.Dense, y []int, numClasses int) float64 {
	if numClasses == 2 {
		return BinaryAUC(proba.Col(1), binarize(y, 1))
	}
	var total float64
	var counted int
	for c := 0; c < numClasses; c++ {
		lbl := binarize(y, c)
		var pos int
		for _, v := range lbl {
			pos += v
		}
		if pos == 0 || pos == len(lbl) {
			continue
		}
		total += BinaryAUC(proba.Col(c), lbl)
		counted++
	}
	if counted == 0 {
		return 0.5
	}
	return total / float64(counted)
}

func binarize(y []int, c int) []int {
	out := make([]int, len(y))
	for i, v := range y {
		if v == c {
			out[i] = 1
		}
	}
	return out
}

// Scores bundles the three ML-utility metrics the paper reports.
type Scores struct {
	Accuracy float64
	F1       float64
	AUC      float64
}

// Sub returns the element-wise difference s - o (real minus synthetic).
func (s Scores) Sub(o Scores) Scores {
	return Scores{Accuracy: s.Accuracy - o.Accuracy, F1: s.F1 - o.F1, AUC: s.AUC - o.AUC}
}

// Abs returns the element-wise absolute value.
func (s Scores) Abs() Scores {
	abs := func(v float64) float64 {
		if v < 0 {
			return -v
		}
		return v
	}
	return Scores{Accuracy: abs(s.Accuracy), F1: abs(s.F1), AUC: abs(s.AUC)}
}

// Add returns the element-wise sum.
func (s Scores) Add(o Scores) Scores {
	return Scores{Accuracy: s.Accuracy + o.Accuracy, F1: s.F1 + o.F1, AUC: s.AUC + o.AUC}
}

// Scale returns the scores multiplied by k.
func (s Scores) Scale(k float64) Scores {
	return Scores{Accuracy: s.Accuracy * k, F1: s.F1 * k, AUC: s.AUC * k}
}

// String renders the scores compactly.
func (s Scores) String() string {
	return fmt.Sprintf("acc=%.4f f1=%.4f auc=%.4f", s.Accuracy, s.F1, s.AUC)
}

// Evaluate computes all three metrics for a classifier on a test set.
//
//shape:in(B,D) in(K)
func Evaluate(c Classifier, x *tensor.Dense, y []int, numClasses int) Scores {
	proba := c.PredictProba(x)
	pred := proba.ArgmaxRows()
	return Scores{
		Accuracy: Accuracy(pred, y),
		F1:       MacroF1(pred, y, numClasses),
		AUC:      MacroAUC(proba, y, numClasses),
	}
}
