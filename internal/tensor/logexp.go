package tensor

import "math"

// Log and Exp over a slice. Their specification is not a Go loop but the
// math function itself: every element comes out as math.Log or math.Exp
// would return it, bit for bit. On amd64 those are fixed instruction
// sequences ($GOROOT/src/math/log_amd64.s, exp_amd64.s), and the vector
// routines run the same sequence in each of four lanes (see DESIGN.md
// "Kernel architecture", the libm contract); the *Generic loops below call
// the math functions and are what every other build runs.

// Log sets dst[i] = math.Log(x[i]) for every i in x. dst must be at least as
// long as x; it may be x itself, but must not otherwise overlap it.
func Log(dst, x []float64) { logSlice(dst[:len(x)], x) }

// Exp sets dst[i] = math.Exp(x[i]) for every i in x, with Log's rules for
// dst.
func Exp(dst, x []float64) { expSlice(dst[:len(x)], x) }

func logGeneric(dst, x []float64) {
	dst = dst[:len(x)]
	for i, v := range x {
		dst[i] = math.Log(v)
	}
}

func expGeneric(dst, x []float64) {
	dst = dst[:len(x)]
	for i, v := range x {
		dst[i] = math.Exp(v)
	}
}
