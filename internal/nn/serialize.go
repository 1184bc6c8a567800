package nn

import (
	"fmt"

	ag "repro/internal/autograd"
)

// CountParams returns the total number of scalar parameters in a layer.
func CountParams(l Layer) int {
	var n int
	for _, p := range l.Params() {
		n += p.Data().Size()
	}
	return n
}

// CloneInto copies the parameter values of src into dst, which must have the
// same architecture. It is used to synchronize model replicas in tests.
func CloneInto(dst, src Layer) error {
	sp, dp := src.Params(), dst.Params()
	if len(sp) != len(dp) {
		return fmt.Errorf("nn: cannot clone %d params into %d", len(sp), len(dp))
	}
	for i := range sp {
		sr, sc := sp[i].Shape()
		dr, dc := dp[i].Shape()
		if sr != dr || sc != dc {
			return fmt.Errorf("nn: param %d shape mismatch %dx%d vs %dx%d", i, sr, sc, dr, dc)
		}
		dp[i].Data().CopyFrom(sp[i].Data())
	}
	return nil
}

// Grads computes the gradients of loss with respect to every parameter of l.
//
//shape:in(1,1)
func Grads(loss *ag.Value, l Layer) []*ag.Value {
	return ag.Grad(loss, l.Params()...)
}
