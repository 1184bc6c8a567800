package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Fused elementwise operations of the training path: the piecewise-linear
// activations, their gradient, and dropout, each one pass over its operands
// into pooled, unzeroed buffers. As with the matmul kernels the innermost
// loops exist twice — the *Generic Go loops below are the specification,
// the AVX2 routines of kernels_amd64.s run the same operation on four
// independent elements at a time — and the result does not depend on which
// ran (see DESIGN.md "Kernel architecture", the elementwise contract).

// ReLU returns max(x, 0) element-wise: x where x > 0 and +0 elsewhere (for
// a negative zero and for NaN too).
func ReLU(x *Dense) *Dense {
	out := newPooledNoZero(x.rows, x.cols)
	relu(out.data, x.data)
	return out
}

// LeakyReLU returns x where x > 0 and the product slope*x elsewhere, so a
// NaN stays NaN and a negative zero keeps the sign slope*-0 has.
func LeakyReLU(x *Dense, slope float64) *Dense {
	out := newPooledNoZero(x.rows, x.cols)
	leakyReLU(out.data, x.data, slope)
	return out
}

// ActGrad returns the gradient of LeakyReLU (ReLU at slope 0) at x applied
// to g: the product g*1 where x > 0 and g*slope elsewhere. Both are formed
// as multiplications, so g*0 is a zero with g's sign (NaN for an infinite
// g) exactly as multiplying by a 0/1 mask leaves it. g and x must have the
// same shape.
func ActGrad(g, x *Dense, slope float64) *Dense {
	if g.rows != x.rows || g.cols != x.cols {
		panic(fmt.Sprintf("tensor: ActGrad shape mismatch %dx%d vs %dx%d", g.rows, g.cols, x.rows, x.cols))
	}
	out := newPooledNoZero(g.rows, g.cols)
	actGrad(out.data, g.data, x.data, slope)
	return out
}

// Dropout draws an inverted-dropout mask for x from rng — one rng.Float64
// per element in row-major order, 1/keep where the draw is below keep and 0
// elsewhere — and returns it together with the product x*mask. A dropped
// element is still that product, so a negative x leaves -0. Both results are
// pooled; the caller owns them.
func Dropout(rng *rand.Rand, x *Dense, keep float64) (out, mask *Dense) {
	out = newPooledNoZero(x.rows, x.cols)
	mask = newPooledNoZero(x.rows, x.cols)
	od, md := out.data, mask.data[:len(out.data)]
	scale := math.Float64bits(1 / keep)
	for i, v := range x.data {
		// u-keep is negative exactly when u < keep (a difference of two
		// distinct floats never rounds to zero), so its sign bit selects the
		// scale without a branch the predictor cannot learn. The draw is
		// rounded before the subtraction: arm64 would fuse rng.Float64's
		// scaling product into it.
		below := math.Float64bits(float64(rng.Float64())-keep) >> 63
		m := math.Float64frombits(scale & -below)
		md[i] = m
		od[i] = v * m
	}
	return out, mask
}

func reluGeneric(dst, x []float64) {
	dst = dst[:len(x)]
	for i, v := range x {
		if v > 0 {
			dst[i] = v
		} else {
			dst[i] = 0
		}
	}
}

func leakyReLUGeneric(dst, x []float64, slope float64) {
	dst = dst[:len(x)]
	for i, v := range x {
		if v > 0 {
			dst[i] = v
		} else {
			dst[i] = slope * v
		}
	}
}

func actGradGeneric(dst, g, x []float64, slope float64) {
	dst, g = dst[:len(x)], g[:len(x)]
	for i, v := range x {
		m := slope
		if v > 0 {
			m = 1
		}
		dst[i] = g[i] * m
	}
}
