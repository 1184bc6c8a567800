package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewAndAccessors(t *testing.T) {
	m := New(2, 3)
	if r, c := m.Shape(); r != 2 || c != 3 {
		t.Fatalf("Shape() = %d,%d want 2,3", r, c)
	}
	m.Set(1, 2, 7.5)
	if got := m.At(1, 2); got != 7.5 {
		t.Fatalf("At(1,2) = %v want 7.5", got)
	}
	if got := m.At(0, 0); got != 0 {
		t.Fatalf("At(0,0) = %v want 0", got)
	}
}

func TestFromSliceAdoptsStorage(t *testing.T) {
	data := []float64{1, 2, 3, 4}
	m := FromSlice(2, 2, data)
	data[3] = 9
	if got := m.At(1, 1); got != 9 {
		t.Fatalf("FromSlice should adopt backing slice, At(1,1)=%v want 9", got)
	}
}

func TestFromRows(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if m.Rows() != 3 || m.Cols() != 2 || m.At(2, 1) != 6 {
		t.Fatalf("FromRows built %v", m)
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for ragged rows")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestMatMulSmall(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	got := MatMul(a, b)
	want := FromRows([][]float64{{19, 22}, {43, 50}})
	if !got.Equal(want) {
		t.Fatalf("MatMul = %v want %v", got, want)
	}
}

// naiveMatMul is an independent reference implementation used to verify the
// cache-blocked and parallel paths.
func naiveMatMul(a, b *Dense) *Dense {
	out := New(a.Rows(), b.Cols())
	for i := 0; i < a.Rows(); i++ {
		for j := 0; j < b.Cols(); j++ {
			var s float64
			for k := 0; k < a.Cols(); k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

func TestMatMulMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct{ m, n, p int }{
		{1, 1, 1}, {3, 5, 2}, {17, 9, 23}, {64, 64, 64},
	} {
		a := Randn(rng, tc.m, tc.n, 0, 1)
		b := Randn(rng, tc.n, tc.p, 0, 1)
		if got, want := MatMul(a, b), naiveMatMul(a, b); !got.AllClose(want, 1e-9) {
			t.Fatalf("MatMul mismatch at %dx%dx%d", tc.m, tc.n, tc.p)
		}
	}
}

func TestMatMulParallelPath(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	// Large enough to cross matmulParallelThreshold.
	a := Randn(rng, 128, 96, 0, 1)
	b := Randn(rng, 96, 64, 0, 1)
	if got, want := MatMul(a, b), naiveMatMul(a, b); !got.AllClose(want, 1e-9) {
		t.Fatal("parallel MatMul diverges from naive reference")
	}
}

func TestMatMulShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MatMul(New(2, 3), New(2, 3))
}

func TestTranspose(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	got := m.Transpose()
	want := FromRows([][]float64{{1, 4}, {2, 5}, {3, 6}})
	if !got.Equal(want) {
		t.Fatalf("Transpose = %v want %v", got, want)
	}
}

func TestBroadcastAdd(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	tests := []struct {
		name string
		b    *Dense
		want *Dense
	}{
		{"same shape", FromRows([][]float64{{10, 20}, {30, 40}}), FromRows([][]float64{{11, 22}, {33, 44}})},
		{"row vector", FromRows([][]float64{{10, 20}}), FromRows([][]float64{{11, 22}, {13, 24}})},
		{"col vector", FromRows([][]float64{{10}, {20}}), FromRows([][]float64{{11, 12}, {23, 24}})},
		{"scalar", Scalar(100), FromRows([][]float64{{101, 102}, {103, 104}})},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := Add(a, tc.b); !got.Equal(tc.want) {
				t.Fatalf("Add = %v want %v", got, tc.want)
			}
		})
	}
}

func TestSubMulDiv(t *testing.T) {
	a := FromRows([][]float64{{4, 9}, {16, 25}})
	b := FromRows([][]float64{{2, 3}, {4, 5}})
	if got := Sub(a, b); !got.Equal(FromRows([][]float64{{2, 6}, {12, 20}})) {
		t.Fatalf("Sub = %v", got)
	}
	if got := Mul(a, b); !got.Equal(FromRows([][]float64{{8, 27}, {64, 125}})) {
		t.Fatalf("Mul = %v", got)
	}
	if got := Div(a, b); !got.Equal(FromRows([][]float64{{2, 3}, {4, 5}})) {
		t.Fatalf("Div = %v", got)
	}
}

func TestExpand(t *testing.T) {
	tests := []struct {
		name string
		in   *Dense
		want *Dense
	}{
		{"scalar", Scalar(2), Full(2, 3, 2)},
		{"row", FromRows([][]float64{{1, 2, 3}}), FromRows([][]float64{{1, 2, 3}, {1, 2, 3}})},
		{"col", FromRows([][]float64{{1}, {2}}), FromRows([][]float64{{1, 1, 1}, {2, 2, 2}})},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			r, c := tc.want.Shape()
			if got := tc.in.Expand(r, c); !got.Equal(tc.want) {
				t.Fatalf("Expand = %v want %v", got, tc.want)
			}
		})
	}
}

func TestReductions(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	if got := m.Sum(); got != 21 {
		t.Fatalf("Sum = %v", got)
	}
	if got := m.SumRows(); !got.Equal(FromRows([][]float64{{5, 7, 9}})) {
		t.Fatalf("SumRows = %v", got)
	}
	if got := m.SumCols(); !got.Equal(FromRows([][]float64{{6}, {15}})) {
		t.Fatalf("SumCols = %v", got)
	}
	if got := m.MeanRows(); !got.Equal(FromRows([][]float64{{2.5, 3.5, 4.5}})) {
		t.Fatalf("MeanRows = %v", got)
	}
}

func TestConcatSplitColsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := Randn(rng, 4, 2, 0, 1)
	b := Randn(rng, 4, 3, 0, 1)
	c := Randn(rng, 4, 1, 0, 1)
	joined := ConcatCols(a, b, c)
	if joined.Cols() != 6 {
		t.Fatalf("joined cols = %d", joined.Cols())
	}
	parts := joined.SplitCols([]int{2, 3, 1})
	for i, want := range []*Dense{a, b, c} {
		if !parts[i].Equal(want) {
			t.Fatalf("part %d mismatch", i)
		}
	}
}

func TestConcatRows(t *testing.T) {
	a := FromRows([][]float64{{1, 2}})
	b := FromRows([][]float64{{3, 4}, {5, 6}})
	got := ConcatRows(a, b)
	want := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if !got.Equal(want) {
		t.Fatalf("ConcatRows = %v", got)
	}
}

func TestGatherRows(t *testing.T) {
	m := FromRows([][]float64{{1, 1}, {2, 2}, {3, 3}})
	got := m.GatherRows([]int{2, 0, 2})
	want := FromRows([][]float64{{3, 3}, {1, 1}, {3, 3}})
	if !got.Equal(want) {
		t.Fatalf("GatherRows = %v", got)
	}
}

func TestShuffleRowsIsPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := Randn(rng, 10, 3, 0, 1)
	perm := rng.Perm(10)
	shuffled := m.ShuffleRows(perm)
	// Every original row must appear exactly once.
	for i := 0; i < 10; i++ {
		found := 0
		for k := 0; k < 10; k++ {
			if perm[k] == i {
				found++
				for j := 0; j < 3; j++ {
					if shuffled.At(k, j) != m.At(i, j) {
						t.Fatalf("row %d content mismatch after shuffle", i)
					}
				}
			}
		}
		if found != 1 {
			t.Fatalf("row %d appears %d times", i, found)
		}
	}
}

func TestNorm(t *testing.T) {
	m := FromRows([][]float64{{3, 4}, {0, 0}})
	if got := m.Norm(); got != 5 {
		t.Fatalf("Norm = %v", got)
	}
}

func TestArgmaxRows(t *testing.T) {
	m := FromRows([][]float64{{1, 5, 2}, {7, 0, 3}})
	got := m.ArgmaxRows()
	if got[0] != 1 || got[1] != 0 {
		t.Fatalf("ArgmaxRows = %v", got)
	}
}

func TestCol(t *testing.T) {
	m := FromRows([][]float64{{0, 1}, {0, 2}, {0, 3}})
	got := m.Col(1)
	if got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("Col = %v", got)
	}
}

func TestSliceRows(t *testing.T) {
	m := FromRows([][]float64{{1}, {2}, {3}, {4}})
	got := m.SliceRows(1, 3)
	if !got.Equal(FromRows([][]float64{{2}, {3}})) {
		t.Fatalf("SliceRows = %v", got)
	}
}

func TestHasNaN(t *testing.T) {
	m := New(1, 2)
	if m.HasNaN() {
		t.Fatal("zero matrix reported NaN")
	}
	m.Set(0, 1, math.NaN())
	if !m.HasNaN() {
		t.Fatal("NaN not detected")
	}
	m.Set(0, 1, math.Inf(1))
	if !m.HasNaN() {
		t.Fatal("Inf not detected")
	}
}

func TestApplyAndClone(t *testing.T) {
	m := FromRows([][]float64{{1, 2}})
	doubled := m.Apply(func(v float64) float64 { return 2 * v })
	if !doubled.Equal(FromRows([][]float64{{2, 4}})) {
		t.Fatalf("Apply = %v", doubled)
	}
	clone := m.Clone()
	clone.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone should not share storage")
	}
}

// Property: transposing twice is the identity.
func TestTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, c := 1+rng.Intn(8), 1+rng.Intn(8)
		m := Randn(rng, r, c, 0, 1)
		return m.Transpose().Transpose().Equal(m)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: (A*B)^T == B^T * A^T.
func TestMatMulTransposeIdentity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, n, p := 1+rng.Intn(6), 1+rng.Intn(6), 1+rng.Intn(6)
		a := Randn(rng, m, n, 0, 1)
		b := Randn(rng, n, p, 0, 1)
		left := MatMul(a, b).Transpose()
		right := MatMul(b.Transpose(), a.Transpose())
		return left.AllClose(right, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: ConcatCols then SplitCols recovers the parts.
func TestConcatSplitProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 1 + rng.Intn(5)
		n := 1 + rng.Intn(4)
		parts := make([]*Dense, n)
		widths := make([]int, n)
		for i := range parts {
			widths[i] = 1 + rng.Intn(4)
			parts[i] = Randn(rng, rows, widths[i], 0, 1)
		}
		back := ConcatCols(parts...).SplitCols(widths)
		for i := range parts {
			if !back[i].Equal(parts[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
