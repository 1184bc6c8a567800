package nn

import (
	"fmt"

	ag "repro/internal/autograd"
	"repro/internal/tensor"
)

// Adam implements the Adam optimizer with optional decoupled weight decay.
// CTGAN trains both networks with lr=2e-4, betas=(0.5, 0.9) and weight
// decay 1e-6, which NewAdam uses as defaults.
type Adam struct {
	LR          float64
	Beta1       float64
	Beta2       float64
	Eps         float64
	WeightDecay float64

	t int
	m map[*ag.Value]*tensor.Dense
	v map[*ag.Value]*tensor.Dense
}

// NewAdam returns an Adam optimizer with the CTGAN defaults at the given
// learning rate.
func NewAdam(lr float64) *Adam {
	return &Adam{
		LR:          lr,
		Beta1:       0.5,
		Beta2:       0.9,
		Eps:         1e-8,
		WeightDecay: 1e-6,
		m:           make(map[*ag.Value]*tensor.Dense),
		v:           make(map[*ag.Value]*tensor.Dense),
	}
}

// Step applies one update in place: params[i] is updated using grads[i]. The
// two slices must be the same length and grads[i] must have params[i]'s
// shape; Step panics before it updates anything if they do not.
func (a *Adam) Step(params, grads []*ag.Value) {
	if len(params) != len(grads) {
		panic("nn: Adam.Step params/grads length mismatch")
	}
	for i, p := range params {
		pr, pc := p.Shape()
		if gr, gc := grads[i].Shape(); gr != pr || gc != pc {
			panic(fmt.Sprintf("nn: Adam.Step param %d is %dx%d, its gradient %dx%d", i, pr, pc, gr, gc))
		}
	}
	a.t++
	h := tensor.AdamHyper{LR: a.LR, Beta1: a.Beta1, Beta2: a.Beta2, Eps: a.Eps, WeightDecay: a.WeightDecay}
	for i, p := range params {
		w := p.Data()
		m, ok := a.m[p]
		if !ok {
			m = tensor.New(w.Rows(), w.Cols())
			a.m[p] = m
		}
		v, ok := a.v[p]
		if !ok {
			v = tensor.New(w.Rows(), w.Cols())
			a.v[p] = v
		}
		tensor.AdamStep(w, grads[i].Data(), m, v, h, a.t)
	}
}
