package tensor

import (
	"fmt"
	"math"
)

// AdamHyper holds the hyperparameters of AdamStep.
type AdamHyper struct {
	LR, Beta1, Beta2, Eps, WeightDecay float64
}

// AdamStep applies step t (counted from 1) of Adam to the parameter w in
// place, given its gradient g and its first and second moment estimates m
// and v, which it updates. Weight decay is folded into the gradient. All four
// must have w's shape.
func AdamStep(w, g, m, v *Dense, h AdamHyper, t int) {
	for _, x := range [...]*Dense{g, m, v} {
		if x.rows != w.rows || x.cols != w.cols {
			panic(fmt.Sprintf("tensor: AdamStep shape mismatch w %dx%d, g %dx%d, m %dx%d, v %dx%d",
				w.rows, w.cols, g.rows, g.cols, m.rows, m.cols, v.rows, v.cols))
		}
	}
	c := newAdamCoefs(h, t)
	adamStep(w.data, g.data, m.data, v.data, &c)
}

// adamCoefs are the constants of one step: the hyperparameters, 1−β₁ and
// 1−β₂, and the bias corrections bc = 1−βᵗ. A bias correction that is
// exactly 1.0 — bc1 from t = 54 and bc2 from t = 356 at β = (0.5, 0.9) — is
// not divided by (div1, div2 false): x/1.0 is x bit for bit, so leaving the
// division out changes nothing but the time the divider takes.
type adamCoefs struct {
	lr, beta1, beta2, eps, decay float64
	oneMinusBeta1, oneMinusBeta2 float64
	bc1, bc2                     float64
	div1, div2                   bool
}

func newAdamCoefs(h AdamHyper, t int) adamCoefs {
	bc1 := 1 - math.Pow(h.Beta1, float64(t))
	bc2 := 1 - math.Pow(h.Beta2, float64(t))
	one := math.Float64bits(1)
	return adamCoefs{
		lr: h.LR, beta1: h.Beta1, beta2: h.Beta2, eps: h.Eps, decay: h.WeightDecay,
		oneMinusBeta1: 1 - h.Beta1, oneMinusBeta2: 1 - h.Beta2,
		bc1: bc1, bc2: bc2,
		div1: math.Float64bits(bc1) != one, div2: math.Float64bits(bc2) != one,
	}
}

// adamStepGeneric is the update and the specification of every routine that
// performs it. Per element, in this order: gk = g + wd·w; m = β₁·m +
// (1−β₁)·gk; v = β₂·v + ((1−β₂)·gk)·gk; w −= (lr·(m/bc1)) / (√(v/bc2) + ε).
// Every product is converted to float64 before it is added, which the Go
// spec makes a rounding no build may fuse into a multiply-add.
func adamStepGeneric(w, g, m, v []float64, c *adamCoefs) {
	g, m, v = g[:len(w)], m[:len(w)], v[:len(w)]
	for k, wk := range w {
		gk := g[k] + float64(c.decay*wk)
		mk := float64(c.beta1*m[k]) + float64(c.oneMinusBeta1*gk)
		vk := float64(c.beta2*v[k]) + float64(float64(c.oneMinusBeta2*gk)*gk)
		m[k], v[k] = mk, vk
		if c.div1 {
			mk /= c.bc1
		}
		if c.div2 {
			vk /= c.bc2
		}
		w[k] = wk - float64(c.lr*mk)/(math.Sqrt(vk)+c.eps)
	}
}
