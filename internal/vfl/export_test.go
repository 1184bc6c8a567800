package vfl

import "testing"

// FullRealBackward makes BackwardDisc differentiate every row of the real
// branch for the rest of the test, as it did before it restricted the pass
// to the gradient's active rows. For the identity tests only: production code
// never writes restrictRealBackward. Tests that call it must not be parallel.
func FullRealBackward(tb testing.TB) {
	restrictRealBackward = false
	tb.Cleanup(func() { restrictRealBackward = true })
}
