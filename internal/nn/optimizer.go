package nn

import (
	"math"

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

// Step applies one update in place: params[i] is updated using grads[i]; the
// two slices must be the same length and shape-aligned.
func (a *Adam) Step(params, grads []*ag.Value) {
	if len(params) != len(grads) {
		panic("nn: Adam.Step params/grads length mismatch")
	}
	a.t++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for i, p := range params {
		g := grads[i].Data()
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
		// Weight decay is folded into the element loop (gk = g + wd*w)
		// instead of materializing a decayed-gradient matrix per parameter.
		md, vd, gd, wd := m.Data(), v.Data(), g.Data(), w.Data()
		decay := a.WeightDecay
		for k := range wd {
			gk := gd[k] + decay*wd[k]
			md[k] = a.Beta1*md[k] + (1-a.Beta1)*gk
			vd[k] = a.Beta2*vd[k] + (1-a.Beta2)*gk*gk
			mhat := md[k] / bc1
			vhat := vd[k] / bc2
			wd[k] -= a.LR * mhat / (math.Sqrt(vhat) + a.Eps)
		}
	}
}
