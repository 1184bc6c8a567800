//go:build !amd64

package tensor

// No vector routines on this architecture: the entry points the portable
// code calls are the Go loops themselves (see kernels_amd64.go for the other
// side).

// useAsm exists so the path-equivalence tests compile everywhere; with
// nothing to switch to it stays false.
var useAsm = false

func tileAcc(od []float64, p int, seed, a []float64, rowStride, kStride, kN int, b []float64, lo, hi int, bFinite bool) {
	tileAccGeneric(od, p, seed, a, rowStride, kStride, kN, b, lo, hi, bFinite)
}

func matmulTBRange(dst, a, b *Dense, lo, hi int) { matmulTBRangeGeneric(dst, a, b, lo, hi) }

func binSame(od, ad, bd []float64, op binOp) { binSameGeneric(od, ad, bd, op) }

func relu(dst, x []float64) { reluGeneric(dst, x) }

func leakyReLU(dst, x []float64, slope float64) { leakyReLUGeneric(dst, x, slope) }

func actGrad(dst, g, x []float64, slope float64) { actGradGeneric(dst, g, x, slope) }

func allFinite(data []float64) bool { return allFiniteGeneric(data) }

func countZeroClasses(data []float64) (posZero, zero, one int) {
	return countZeroClassesGeneric(data)
}

func adamStep(w, g, m, v []float64, c *adamCoefs) { adamStepGeneric(w, g, m, v, c) }

func packMasked(presence, sign, values []byte, data []float64, f32 bool) int {
	return packMaskedGeneric(presence, sign, values, data, f32)
}

// hasFMA and expVector exist for the same reason as useAsm.
var hasFMA = false

func expVector() bool { return false }

func logSlice(dst, x []float64) { logGeneric(dst, x) }

func expSlice(dst, x []float64) { expGeneric(dst, x) }

// The mixture routines cover nothing here: gmm runs its own loops.
func gmmPosteriors(resp, maxLog, sum, x, means, stds, logW, logStd []float64, halfLog2Pi float64) int {
	return 0
}

func gmmSums(nk, mu, resp, x []float64) bool { return false }

func gmmSpread(va, mu, resp, x []float64) bool { return false }

// No draws routine either: the shuffle's own loop answers every draw.
func int31nDraws(js []uint32, xs []uint64, lo int) int { return 0 }
