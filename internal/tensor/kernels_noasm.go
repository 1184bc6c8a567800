//go:build !amd64

package tensor

// No vector routines on this architecture: the five entry points the
// portable code calls are the Go loops themselves (see kernels_amd64.go for
// the other side).

// useAsm exists so the path-equivalence tests compile everywhere; with
// nothing to switch to it stays false.
var useAsm = false

func axpy4(orow, b []float64, a0, a1, a2, a3 float64) { axpy4Generic(orow, b, a0, a1, a2, a3) }

func axpy1(orow, brow []float64, av float64) { axpy1Generic(orow, brow, av) }

func matmulTBRange(dst, a, b *Dense, lo, hi int) { matmulTBRangeGeneric(dst, a, b, lo, hi) }

func binSame(od, ad, bd []float64, op binOp) { binSameGeneric(od, ad, bd, op) }

func allFinite(data []float64) bool { return allFiniteGeneric(data) }
