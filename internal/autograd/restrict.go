package autograd

import (
	"errors"
	"fmt"
	"math"
)

// Row restriction. A graph is row-wise when row i of its output depends on
// row i of one input leaf and on whole parameter matrices: a stack of Affine,
// LeakyReLU and Dropout is, and that is the list — anything that reduces
// over, permutes or broadcasts across rows is not, and anything else that
// might be has not been argued. When the gradient arriving at such a graph
// is +0 outside a few rows, back-propagating those rows alone gives every
// parameter the gradient the whole graph would have given it.

// ErrNotRowWise is what RestrictRows refuses a graph with.
var ErrNotRowWise = errors.New("autograd: graph is not row-wise")

// RestrictRows returns the graph the forward pass behind y would have
// recorded over the given rows of its input alone: each node holds those
// rows of the node it stands for (a Dropout node those rows of the mask too,
// which it owns), the input leaf is reached through a GatherRows node, and
// every parameter is the same *Value, so gradients taken through the result
// are the parameters' own. rows must be strictly ascending row numbers of y;
// the result borrows the slice until it is released.
//
// y itself comes back, and nothing is copied, when rows is every row, and
// when y, a weight matrix or a LeakyReLU slope holds a NaN or an infinity.
// That second rule is what lets a caller drop rows whose gradient is zero: a
// zero gradient row stays zero on its way down only while everything it is
// multiplied by is finite. Each op on the list turns a non-finite input,
// mask or weight element into a non-finite output in the same row (0·Inf is
// NaN, and the matmul kernels form every product once an operand is not
// finite), so a finite y vouches for every activation and mask saved on the
// way to it; the weights are read again because they are the backward's
// operands as they are now, not as they were.
//
// A graph with any other op on the path from y to its input leaf is refused
// with ErrNotRowWise before anything is built. Release the result together
// with y's graph, in one call: they share the leaves.
func RestrictRows(y *Value, rows []int) (*Value, error) {
	n, _ := y.Shape()
	for k, r := range rows {
		if r < 0 || r >= n || (k > 0 && r <= rows[k-1]) {
			panic(fmt.Sprintf("autograd: RestrictRows row set is not ascending within %d rows at position %d", n, k))
		}
	}
	if len(rows) == n {
		return y, nil
	}
	finite := y.data.AllFinite()
	for v := y; v.op != nil; v = v.inputs[0] {
		switch o := v.op.(type) {
		case affineOp:
			finite = finite && v.inputs[1].data.AllFinite()
		case leakyReLUOp:
			finite = finite && !math.IsNaN(o.slope) && !math.IsInf(o.slope, 0)
		case *dropoutOp:
		default:
			return nil, fmt.Errorf("%w: %T mixes rows or is not on the list", ErrNotRowWise, v.op)
		}
	}
	if !finite {
		return y, nil
	}
	return restrictRows(y, rows), nil
}

// restrictRows builds RestrictRows' result from the leaf up.
func restrictRows(v *Value, rows []int) *Value {
	data := v.data.GatherRows(rows)
	if v.op == nil {
		return newValue(data, gatherRowsOp{idx: rows}, v)
	}
	x := restrictRows(v.inputs[0], rows)
	switch o := v.op.(type) {
	case affineOp:
		return newValue(data, o, x, v.inputs[1], v.inputs[2])
	case *dropoutOp:
		return newValue(data, &dropoutOp{mask: o.mask.GatherRows(rows), owned: true}, x)
	default:
		return newValue(data, v.op, x)
	}
}
