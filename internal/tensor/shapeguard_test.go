package tensor

import "testing"

// TestShapeGuardPanics drives every shape-guard panic path in ops.go,
// kernels.go, adam.go and pool.go with a minimal mismatched input and pins the
// exact panic message — both operand shapes (or the offending index and
// its bound) must be present, because the shapeflow lint rule and humans
// alike triage these messages without a debugger.
func TestShapeGuardPanics(t *testing.T) {
	cases := []struct {
		name string
		want string
		call func()
	}{
		// ops.go: broadcast and destination guards.
		{"Add broadcast", "tensor: cannot broadcast 2x4 onto 2x3",
			func() { Add(New(2, 3), New(2, 4)) }},
		{"Sub broadcast", "tensor: cannot broadcast 3x2 onto 2x2",
			func() { Sub(New(2, 2), New(3, 2)) }},
		{"Mul broadcast", "tensor: cannot broadcast 2x2 onto 3x3",
			func() { Mul(New(3, 3), New(2, 2)) }},
		{"Div broadcast", "tensor: cannot broadcast 4x1 onto 2x3",
			func() { Div(New(2, 3), New(4, 1)) }},

		// ops.go: in-place, expand, and indexed accessors.
		{"AddInPlace", "tensor: AddInPlace shape mismatch 2x3 vs 2x4",
			func() { New(2, 3).AddInPlace(New(2, 4)) }},
		{"AxpyInPlace", "tensor: AxpyInPlace shape mismatch 2x3 vs 3x3",
			func() { New(2, 3).AxpyInPlace(0.5, New(3, 3)) }},
		{"Expand", "tensor: cannot expand 2x3 to 2x2",
			func() { New(2, 3).Expand(2, 2) }},
		{"Col", "tensor: column 5 out of range 3",
			func() { New(2, 3).Col(5) }},
		{"ConcatCols", "tensor: ConcatCols row mismatch 3 vs 2",
			func() { ConcatCols(New(2, 1), New(3, 1)) }},
		{"SliceCols", "tensor: SliceCols [1,5) out of range 3",
			func() { New(2, 3).SliceCols(1, 5) }},
		{"SplitCols", "tensor: SplitCols widths sum 2 want 3",
			func() { New(2, 3).SplitCols([]int{1, 1}) }},
		{"GatherRows", "tensor: GatherRows index 5 out of range 2",
			func() { New(2, 3).GatherRows([]int{5}) }},
		{"SliceRows", "tensor: SliceRows [0,4) out of range 2",
			func() { New(2, 3).SliceRows(0, 4) }},
		{"ConcatRows", "tensor: ConcatRows col mismatch 3 vs 2",
			func() { ConcatRows(New(1, 2), New(1, 3)) }},
		{"ShuffleRows", "tensor: ShuffleRows permutation length 1 want 2",
			func() { New(2, 3).ShuffleRows([]int{0}) }},

		// kernels.go: matmul-family inner dims, destinations, aliasing.
		{"MatMul", "tensor: MatMul shape mismatch 2x3 * 4x5",
			func() { MatMul(New(2, 3), New(4, 5)) }},
		{"MatMulInto inner", "tensor: MatMul shape mismatch 2x3 * 4x5",
			func() { MatMulInto(New(2, 5), New(2, 3), New(4, 5)) }},
		{"MatMulInto dst", "tensor: MatMulInto dst 3x3, want 2x5",
			func() { MatMulInto(New(3, 3), New(2, 3), New(3, 5)) }},
		{"MatMulInto alias", "tensor: MatMulInto dst must not alias an operand",
			func() { a := New(2, 2); MatMulInto(a, a, New(2, 2)) }},
		{"MatMulTA", "tensor: MatMulTA shape mismatch 3x2ᵀ * 4x5",
			func() { MatMulTA(New(3, 2), New(4, 5)) }},
		{"MatMulTB", "tensor: MatMulTB shape mismatch 2x3 * 5x4ᵀ",
			func() { MatMulTB(New(2, 3), New(5, 4)) }},
		{"Affine inner", "tensor: Affine shape mismatch 2x3 * 4x5",
			func() { Affine(New(2, 3), New(4, 5), New(1, 5)) }},
		{"Affine bias", "tensor: Affine bias 1x4, want 1x5",
			func() { Affine(New(2, 3), New(3, 5), New(1, 4)) }},

		// adam.go: the moments and the gradient must have the weight's shape.
		{"AdamStep", "tensor: AdamStep shape mismatch w 2x3, g 3x2, m 2x3, v 2x3",
			func() { AdamStep(New(2, 3), New(3, 2), New(2, 3), New(2, 3), AdamHyper{}, 1) }},

		// pool.go: pooled constructors.
		{"NewPooledOneHot count", "tensor: one-hot index count 1 does not match 2 rows",
			func() { NewPooledOneHot(2, 3, []int{0}) }},
		{"NewPooledOneHot range", "tensor: one-hot index 7 out of range for 3 columns",
			func() { NewPooledOneHot(1, 3, []int{7}) }},
		{"NewPooledBitmap count", "tensor: bitmap byte count 0 does not match 6 elements",
			func() { NewPooledBitmap(2, 3, nil) }},
		{"NewPooledBitmap stray bits", "tensor: bitmap has bits set past the last element",
			func() { NewPooledBitmap(1, 3, []byte{0xFF}) }},
		{"NewPooled negative", "tensor: negative shape -1x2",
			func() { NewPooled(-1, 2) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("no panic, want %q", tc.want)
				}
				if msg, ok := r.(string); !ok || msg != tc.want {
					t.Fatalf("panic %v, want %q", r, tc.want)
				}
			}()
			tc.call()
		})
	}
}
