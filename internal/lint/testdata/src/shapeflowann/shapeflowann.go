// Package shapeflowann exercises shapeflow's annotation validation. The
// findings land on the directive comments themselves, where an inline
// want comment would change how the directive parses, so the expected
// messages are asserted directly by TestShapeFlowAnnotationErrors.
package shapeflowann

import "repro/internal/tensor"

// TooManyIns declares two in clauses for its single tensor parameter.
//
//shape:in(A,B) in(C,D) out(A,B)
func TooManyIns(m *tensor.Dense) *tensor.Dense { return m }

// OutBeforeIn orders the clauses backwards.
//
//shape:out(A,B) in(A,B)
func OutBeforeIn(m *tensor.Dense) *tensor.Dense { return m }

// BadToken uses an operator the dim grammar does not know.
//
//shape:in(A,B-1) out(A,B)
func BadToken(m *tensor.Dense) *tensor.Dense { return m }

// BlankInSum puts the wildcard inside a sum.
//
//shape:in(A,_+B) out(A,B)
func BlankInSum(m *tensor.Dense) *tensor.Dense { return m }

// TooWide gives a clause three dims.
//
//shape:in(A,B,C) out(A,B)
func TooWide(m *tensor.Dense) *tensor.Dense { return m }

// NoDims has nothing to annotate.
//
//shape:in(A,B)
func NoDims(s string) string { return s }

// Duplicate carries two directives.
//
//shape:in(A,B) out(A,B)
//shape:in(C,D) out(C,D)
func Duplicate(m *tensor.Dense) *tensor.Dense { return m }

// FieldForms hosts the field-side misuse cases.
type FieldForms struct {
	//shape:in(R,C) out(R,C)
	Wrong *tensor.Dense
	//shape:(R,C)
	NotTensor int
	//shape:(R,C)
	OK *tensor.Dense
}

// Misplaced hangs a directive on a statement inside a body.
func Misplaced(m *tensor.Dense) *tensor.Dense {
	//shape:in(A,B)
	return m
}
