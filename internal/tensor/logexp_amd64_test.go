package tensor

import (
	"math"
	"testing"
)

// TestLogExpVectorCoverage holds the vector routines to the groups they
// promise to take: every group of ordinary inputs (so the bit-equality tests
// above compare lanes, not a fallback), and none from the first group
// holding a lane the sequence does not cover — for Exp that includes the
// inputs archExp sends to a denormal or to +0.
func TestLogExpVectorCoverage(t *testing.T) {
	if !HasAsmKernels || !hasFMA {
		t.Skip("no vector Log and Exp on this CPU")
	}
	dst := make([]float64, 12)
	for _, tc := range []struct {
		name    string
		routine func(dst, x *float64, n int) int
		x       []float64
		want    int
	}{
		{"log", logAVX2, []float64{0.5, 1, 2, 1e-310, 3, 1e300, 0.1, hsqrt2, 7, 8, 9, 10}, 12},
		{"log, -0 in the second group", logAVX2, []float64{1, 2, 3, 4, 5, math.Copysign(0, -1), 7, 8, 9, 10, 11, 12}, 4},
		{"log, NaN in the first group", logAVX2, []float64{1, 2, 3, math.NaN(), 5, 6, 7, 8}, 0},
		{"exp", expAVX2, []float64{0, -1, 1, -30, 700, -700, -708, 709.5, 2, 3, 4, 5}, 12},
		{"exp, a denormal result in the third group", expAVX2, []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, -740, 10, 11}, 8},
		{"exp, +0 in the second group", expAVX2, []float64{0, 1, 2, 3, 4, -800, 6, 7}, 4},
		{"exp, -1e300 in the first group", expAVX2, []float64{0, 1, 2, -1e300}, 0},
		{"exp, overflow in the first group", expAVX2, []float64{0, 1, 709.79, 3}, 0},
	} {
		if got := tc.routine(&dst[0], &tc.x[0], len(tc.x)); got != tc.want {
			t.Errorf("%s: the routine took %d elements, want %d", tc.name, got, tc.want)
		}
	}
}
