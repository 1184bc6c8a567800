// Package shapeflow exercises the shapeflow analyzer: symbolic dim
// contracts, interprocedural summary replay, concat width arithmetic,
// obligations, and suppressions. Lines with a `// want` comment must
// produce a matching finding; all other lines must stay clean.
package shapeflow

import (
	ag "repro/internal/autograd"
	"repro/internal/tensor"
)

// ---- contracts that hold: every op here must prove or bind cleanly ----

// Project computes x*w; the contract ties the inner dims together.
//
//shape:in(B,D1) in(D1,D2) out(B,D2)
func Project(x, w *tensor.Dense) *tensor.Dense {
	return tensor.MatMul(x, w)
}

// Fuse concatenates two batches column-wise; the output width is the
// symbolic sum of the input widths.
//
//shape:in(B,D1) in(B,D2) out(B,D1+D2)
func Fuse(a, b *tensor.Dense) *tensor.Dense {
	return tensor.ConcatCols(a, b)
}

// MeanSquare reduces a batch to a scalar.
//
//shape:in(B,D) out(1,1)
func MeanSquare(x *ag.Value) *ag.Value {
	return ag.MeanAll(ag.Square(x))
}

// ---- inner-dim mismatch ----

// BadProj multiplies two row-aligned matrices: MatMul needs x's width to
// equal w's height, but the contract pins w's height to the batch dim.
//
//shape:in(B,D1) in(B,D2) out(B,D2)
func BadProj(x, w *tensor.Dense) *tensor.Dense {
	return tensor.MatMul(x, w) // want "shape mismatch: MatMul inner dims: D1 vs B"
}

// ---- concat width arithmetic ----

// BadFuse concatenates a with itself, so the result width is 2*D1, not
// the declared D1+D2.
//
//shape:in(B,D1) in(B,D2) out(B,D1+D2)
func BadFuse(a, b *tensor.Dense) *tensor.Dense {
	return tensor.ConcatCols(a, a) // want "shape mismatch: return cols vs //shape: out"
}

// ---- symbolic unification across a call (summary replay) ----

// helperMM has no annotation: the analyzer summarizes it, exporting the
// MatMul inner-dim equation over its parameter atoms.
func helperMM(a, b *tensor.Dense) *tensor.Dense {
	return tensor.MatMul(a, b)
}

// Chain instantiates helperMM's summary with two batch-aligned matrices;
// the replayed equation forces D1 == B, which the contract forbids.
//
//shape:in(B,D1) in(B,D2) out(B,D2)
func Chain(x, w *tensor.Dense) *tensor.Dense {
	return helperMM(x, w) // want "shape mismatch: MatMul inner dims: D1 vs B"
}

// ---- contract violation seen from the caller ----

// Activate preserves its input shape.
//
//shape:in(B,D) out(B,D)
func Activate(x *tensor.Dense) *tensor.Dense {
	return x.Clone()
}

// useActivate adds a 3x5 matrix onto Activate's 3x4 result; the contract
// makes the width clash a compile-time constant conflict.
func useActivate() *tensor.Dense {
	a := tensor.New(3, 4)
	b := tensor.New(3, 5)
	out := Activate(a)
	return tensor.Add(out, b) // want "shape mismatch: Add cols: 4 vs 5"
}

// ---- return-shape violation ----

// BadIdentity claims to transpose but returns its input unchanged, so
// the returned row dim is B where the contract promises D.
//
//shape:in(B,D) out(D,B)
func BadIdentity(x *ag.Value) *ag.Value {
	return x // want "shape mismatch: return rows vs //shape: out: B vs D"
}

// ---- suppression ----

// SuppressedBad repeats BadProj's mismatch under a reasoned suppression:
// no finding may surface, and the suppression must count as used.
//
//shape:in(B,D1) in(B,D2) out(B,D2)
func SuppressedBad(x, w *tensor.Dense) *tensor.Dense {
	//lint:ignore shapeflow fixture keeps a deliberate mismatch to pin suppression behaviour
	return tensor.MatMul(x, w)
}

// ---- obligations: the package has //shape: directives, so exported ----
// ---- boundaries must be annotated                                  ----

// Orphan is exported and shape-bearing but carries no contract.
func Orphan(m *tensor.Dense) *tensor.Dense { // want "exported shape-bearing function shapeflow.Orphan needs a //shape: annotation"
	return m
}

// Holder exposes a tensor field without declaring its dims.
type Holder struct {
	M *tensor.Dense // want "exported tensor field Holder.M needs a //shape:"
}

// ---- call shapes: one site per way a call can reach its callee ----

// dense is a named matrix type; converting to it is not an op.
type dense tensor.Dense

// ViaConversion round-trips x through a conversion, whose result is
// untracked, so BadProj's mismatch goes unseen here.
//
//shape:in(B,D1) in(B,D2) out(B,D2)
func ViaConversion(x, w *tensor.Dense) *tensor.Dense {
	y := (*tensor.Dense)((*dense)(x))
	return tensor.MatMul(y, w)
}

// ViaBuiltins gathers operands with append and copy: the list they build
// is untracked, and so is the width len reads off it.
//
//shape:in(B,D1) in(B,D2) out(B,D2)
func ViaBuiltins(x, w *tensor.Dense) *tensor.Dense {
	xs := append([]*tensor.Dense{}, x)
	ys := make([]*tensor.Dense, len(xs))
	copy(ys, xs)
	return tensor.MatMul(ys[0], w)
}

// genericMM is generic in an unused parameter; its summary still exports
// the MatMul inner-dim equation.
func genericMM[T any](a, b *tensor.Dense, tag T) *tensor.Dense {
	return tensor.MatMul(a, b)
}

// ViaInstantiation reaches genericMM through an explicit instantiation.
//
//shape:in(B,D1) in(B,D2) out(B,D2)
func ViaInstantiation(x, w *tensor.Dense) *tensor.Dense {
	return genericMM[int](x, w, 0) // want "shape mismatch: MatMul inner dims: D1 vs B"
}

// ViaMethodValue calls Clone through a variable: an unknown callee, so
// the result is untracked and no mismatch is seen.
//
//shape:in(B,D1) in(B,D2) out(B,D2)
func ViaMethodValue(x, w *tensor.Dense) *tensor.Dense {
	clone := x.Clone
	return tensor.MatMul(clone(), w)
}

// firstOf returns its first operand; the variadic tail forms no slot.
func firstOf(a *tensor.Dense, rest ...*tensor.Dense) *tensor.Dense {
	return a
}

// ViaVariadicArgs passes extra variadic arguments.
//
//shape:in(B,D1) in(B,D2) out(B,D2)
func ViaVariadicArgs(x, w *tensor.Dense) *tensor.Dense {
	return tensor.MatMul(firstOf(x, w, w), w) // want "shape mismatch: MatMul inner dims: D1 vs B"
}

// ViaVariadicSpread spreads a slice into the variadic tail.
//
//shape:in(B,D1) in(B,D2) out(B,D2)
func ViaVariadicSpread(x, w *tensor.Dense) *tensor.Dense {
	ws := []*tensor.Dense{w, w}
	return tensor.MatMul(firstOf(x, ws...), w) // want "shape mismatch: MatMul inner dims: D1 vs B"
}

// layer has two implementations, each restating the interface contract.
type layer interface {
	//shape:in(B,D) out(B,D)
	apply(x *tensor.Dense) *tensor.Dense
}

type scaler struct{}

//shape:in(B,D) out(B,D)
func (scaler) apply(x *tensor.Dense) *tensor.Dense {
	return x.Scale(2)
}

type cloner struct{}

//shape:in(B,D) out(B,D)
func (cloner) apply(x *tensor.Dense) *tensor.Dense {
	return x.Clone()
}

// ViaInterface calls through layer: the interface contract shapes the
// result whichever implementation runs.
//
//shape:in(B,D1) in(B,D2) out(B,D2)
func ViaInterface(l layer, x, w *tensor.Dense) *tensor.Dense {
	return tensor.MatMul(l.apply(x), w) // want "shape mismatch: MatMul inner dims: D1 vs B"
}

var _ = []layer{scaler{}, cloner{}}
