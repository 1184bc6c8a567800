package vfl

import (
	"testing"

	"repro/internal/encoding"
)

// FullRealBackward makes BackwardDisc differentiate every row of the real
// branch for the rest of the test, as it did before it restricted the pass
// to the gradient's active rows. For the identity tests only: production code
// never writes restrictRealBackward. Tests that call it must not be parallel.
func FullRealBackward(tb testing.TB) {
	restrictRealBackward = false
	tb.Cleanup(func() { restrictRealBackward = true })
}

// OrderedTable is raw, the table c was built over, in c's current row
// order: what the training path reads through c's row-order view. A client
// keeps no raw rows, so a test that checks row order against the raw data
// supplies the table itself. After a shuffle it is a re-ordered copy.
func OrderedTable(c *LocalClient, raw *encoding.Table) *encoding.Table {
	if c.order.view == nil {
		return raw
	}
	return raw.GatherRows(ints(c.order.view))
}
