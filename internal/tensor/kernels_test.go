package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// ---- naive reference kernels ----
//
// The blocked/fused kernels are validated against textbook loops (see also
// naiveMatMul in tensor_test.go): any tiling or unrolling bug shows up as a
// drift beyond the 1e-9 agreement bound on random inputs.

func naiveMatMulTA(a, b *Dense) *Dense {
	out := New(a.Cols(), b.Cols())
	for i := 0; i < a.Cols(); i++ {
		for j := 0; j < b.Cols(); j++ {
			var s float64
			for k := 0; k < a.Rows(); k++ {
				s += a.At(k, i) * b.At(k, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

func naiveMatMulTB(a, b *Dense) *Dense {
	out := New(a.Rows(), b.Rows())
	for i := 0; i < a.Rows(); i++ {
		for j := 0; j < b.Rows(); j++ {
			var s float64
			for k := 0; k < a.Cols(); k++ {
				s += a.At(i, k) * b.At(j, k)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

// kernelShapes covers the shapes the tiling has to get right: single
// row/column operands, exact multiples of the unroll width and the k tile,
// and off-by-one straddles of both.
var kernelShapes = []struct{ m, k, n int }{
	{1, 1, 1},
	{1, 7, 1},
	{1, 64, 33}, // 1xN against the unroll boundary
	{33, 64, 1}, // Nx1 result column
	{4, 4, 4},
	{3, 5, 7},   // nothing divides the tile or unroll
	{8, 256, 8}, // k exactly one tile
	{8, 257, 8}, // k one past a tile
	{8, 259, 8}, // tile tail of 3 (partial unroll group)
	{17, 31, 13},
	{32, 32, 32},
	{64, 100, 48},
}

func TestKernelsMatchNaiveReference(t *testing.T) {
	EachKernelPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(7))
		for _, sh := range kernelShapes {
			a := Randn(rng, sh.m, sh.k, 0, 1)
			b := Randn(rng, sh.k, sh.n, 0, 1)
			if got, want := MatMul(a, b), naiveMatMul(a, b); !got.AllClose(want, 1e-9) {
				t.Errorf("MatMul %dx%d * %dx%d deviates from naive reference", sh.m, sh.k, sh.k, sh.n)
			}
			at := Randn(rng, sh.k, sh.m, 0, 1)
			if got, want := MatMulTA(at, b), naiveMatMulTA(at, b); !got.AllClose(want, 1e-9) {
				t.Errorf("MatMulTA %dx%d * %dx%d deviates from naive reference", sh.k, sh.m, sh.k, sh.n)
			}
			bt := Randn(rng, sh.n, sh.k, 0, 1)
			if got, want := MatMulTB(a, bt), naiveMatMulTB(a, bt); !got.AllClose(want, 1e-9) {
				t.Errorf("MatMulTB %dx%d * %dx%d deviates from naive reference", sh.m, sh.k, sh.n, sh.k)
			}
		}
	})
}

func TestFusedKernelsMatchTransposeForms(t *testing.T) {
	EachKernelPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(8))
		for _, sh := range kernelShapes {
			a := Randn(rng, sh.k, sh.m, 0, 1)
			b := Randn(rng, sh.k, sh.n, 0, 1)
			if got, want := MatMulTA(a, b), MatMul(a.Transpose(), b); !got.AllClose(want, 1e-9) {
				t.Errorf("MatMulTA differs from Transpose+MatMul at %+v", sh)
			}
			c := Randn(rng, sh.m, sh.k, 0, 1)
			d := Randn(rng, sh.n, sh.k, 0, 1)
			if got, want := MatMulTB(c, d), MatMul(c, d.Transpose()); !got.AllClose(want, 1e-9) {
				t.Errorf("MatMulTB differs from MatMul+Transpose at %+v", sh)
			}
		}
	})
}

func TestAffineMatchesMatMulAdd(t *testing.T) {
	EachKernelPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(9))
		for _, sh := range kernelShapes {
			x := Randn(rng, sh.m, sh.k, 0, 1)
			w := Randn(rng, sh.k, sh.n, 0, 1)
			bias := Randn(rng, 1, sh.n, 0, 1)
			if got, want := Affine(x, w, bias), Add(MatMul(x, w), bias); !got.AllClose(want, 1e-9) {
				t.Errorf("Affine differs from MatMul+Add at %+v", sh)
			}
		}
	})
}

// FuzzMatMulAgainstNaive checks the three products against the textbook
// loops on whichever path is live, MatMul and MatMulTA bit for bit against
// the grouped sequence they promise (groupedMatMul), and, where the machine
// has both paths, requires the paths to agree bit for bit (onBothPaths),
// also with a's zero groups, the zero-row salting of saltZeroRows, no k at
// all, and a non-finite b in play.
func FuzzMatMulAgainstNaive(f *testing.F) {
	f.Add(int64(1), 3, 5, 7, uint8(0))
	f.Add(int64(2), 1, 300, 1, uint8(1))
	f.Add(int64(3), 33, 257, 31, uint8(2))
	f.Add(int64(4), 25, 64, 44, uint8(7))
	f.Add(int64(5), 40, 1100, 17, uint8(1)) // a row that stays in registers over ten k tiles
	f.Add(int64(6), 47, 900, 33, uint8(3))  // one column past that: two chunks
	f.Add(int64(7), 9, 7, 32, uint8(8))     // salted for the zero-row start, at one chunk's limit
	f.Add(int64(8), 40, 1099, 33, uint8(9)) // and past it, a long MatMulTA
	f.Add(int64(9), 6, 3, 40, uint8(16))    // no k
	// n is one more than the value given: dst rows 64 wide (two whole
	// chunks), 65 and 97 (three and four, the last ending in a partial
	// vector), 256 (eight) and 257.
	f.Add(int64(10), 25, 300, 63, uint8(1))
	f.Add(int64(11), 17, 257, 64, uint8(2))
	f.Add(int64(12), 33, 90, 96, uint8(9))
	f.Add(int64(13), 10, 1100, 255, uint8(0))
	f.Add(int64(14), 48, 154, 256, uint8(4))
	f.Fuzz(func(t *testing.T, seed int64, m, k, n int, flags uint8) {
		// Widths of one to ten chunks, and reductions of up to ten k tiles.
		m, k, n = 1+abs(m)%48, 1+abs(k)%1200, 1+abs(n)%300
		if flags&16 != 0 {
			k = 0
		}
		rng := rand.New(rand.NewSource(seed))
		a := Randn(rng, m, k, 0, 1)
		b := Randn(rng, k, n, 0, 1)
		c := Randn(rng, m, n, 0, 1)
		d := Randn(rng, n, k, 0, 1)
		bias := Randn(rng, 1, n, 0, 1)
		if flags&1 != 0 { // zero some whole groups of a, so the skip is taken
			for i := 0; i < m; i++ {
				for g := 0; g+4 <= k; g += 4 {
					if rng.Intn(2) == 0 {
						copy(a.RawRow(i)[g:g+4], []float64{0, 0, 0, 0})
					}
				}
			}
		}
		if flags&8 != 0 {
			saltZeroRows(a, b)
		}
		if k == 0 {
			flags &^= 6 // nowhere to put a non-finite b
		}
		if flags&6 == 0 { // all finite: the naive loops are the reference
			if !MatMul(a, b).AllClose(naiveMatMul(a, b), 1e-9) {
				t.Fatalf("MatMul %dx%dx%d deviates from naive reference", m, k, n)
			}
			if !MatMulTA(a, c).AllClose(naiveMatMulTA(a, c), 1e-9) {
				t.Fatalf("MatMulTA (%dx%d)ᵀ*(%dx%d) deviates from naive reference", m, k, m, n)
			}
			if !MatMulTB(a, d).AllClose(naiveMatMulTB(a, d), 1e-9) {
				t.Fatalf("MatMulTB (%dx%d)*(%dx%d)ᵀ deviates from naive reference", m, k, n, k)
			}
		}
		if flags&2 != 0 {
			b.Data()[rng.Intn(k*n)] = math.Inf(1)
			d.Data()[rng.Intn(k*n)] = math.Inf(-1)
		}
		if flags&4 != 0 {
			b.Data()[rng.Intn(k*n)] = math.NaN()
			c.Data()[rng.Intn(m*n)] = math.NaN()
		}
		want := groupedMatMul(a, b)
		requireSameBits(t, "MatMul vs the grouped sequence", MatMul(a, b), want)
		requireSameBits(t, "MatMulTA(aᵀ, b) vs the grouped sequence", MatMulTA(a.Transpose(), b), want)
		if !HasAsmKernels {
			return
		}
		onBothPaths(t, "MatMul", func() *Dense { return MatMul(a, b) })
		onBothPaths(t, "Affine", func() *Dense { return Affine(a, b, bias) })
		onBothPaths(t, "MatMulTA", func() *Dense { return MatMulTA(a, c) })
		onBothPaths(t, "MatMulTB", func() *Dense { return MatMulTB(a, d) })
		// The long reduction through MatMulTA as well: the same groups in the
		// same order as MatMul.
		at := a.Transpose()
		requireSameBits(t, "MatMulTA(aᵀ, b) vs MatMul(a, b)",
			onBothPaths(t, "MatMulTA long", func() *Dense { return MatMulTA(at, b) }), MatMul(a, b))
	})
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// TestMatMulPropagatesNonFinite is the regression test for the zero-skip
// fast path: the seed kernel skipped a==0 unconditionally, silently turning
// 0*Inf and 0*NaN (which are NaN under IEEE 754) into 0.
func TestMatMulPropagatesNonFinite(t *testing.T) {
	EachKernelPath(t, func(t *testing.T) {
		cases := []struct {
			name string
			bv   float64
		}{
			{"inf", math.Inf(1)},
			{"neginf", math.Inf(-1)},
			{"nan", math.NaN()},
		}
		for _, tc := range cases {
			// a = [0 1], b = [bv; 1]: the product is 0*bv + 1 = NaN.
			a := FromSlice(1, 2, []float64{0, 1})
			b := FromSlice(2, 1, []float64{tc.bv, 1})
			if got := MatMul(a, b).At(0, 0); !math.IsNaN(got) {
				t.Errorf("MatMul %s: got %v, want NaN", tc.name, got)
			}
			if got := MatMulTA(a.Transpose(), b).At(0, 0); !math.IsNaN(got) {
				t.Errorf("MatMulTA %s: got %v, want NaN", tc.name, got)
			}
			if got := MatMulTB(a, b.Transpose()).At(0, 0); !math.IsNaN(got) {
				t.Errorf("MatMulTB %s: got %v, want NaN", tc.name, got)
			}
		}
		// A whole zero group of four must not skip a non-finite b panel either.
		a := New(1, 8)
		a.Set(0, 7, 1)
		b := New(8, 1)
		b.Set(0, 0, math.Inf(1))
		b.Set(7, 0, 1)
		if got := MatMul(a, b).At(0, 0); !math.IsNaN(got) {
			t.Errorf("MatMul unrolled group: got %v, want NaN", got)
		}
		// Nor may the row routine, which keeps a chunk of a dst row in
		// registers and tests the groups itself: a zero group and a zero
		// leftover k, each against an infinity, at every width from below
		// its first vector to three chunks.
		for p := 3; p <= 70; p++ {
			a := New(1, 6)
			a.Set(0, 4, 1)
			for _, at := range [][2]int{{1, 0}, {5, p - 1}} { // in the group, in the k tail
				b := Full(6, p, 1)
				b.Set(at[0], at[1], math.Inf(-1))
				for name, got := range map[string]*Dense{
					"MatMul":   MatMul(a, b),
					"Affine":   Affine(a, b, New(1, p)),
					"MatMulTA": MatMulTA(a.Transpose(), b),
				} {
					for j := 0; j < p; j++ {
						if want := j == at[1]; math.IsNaN(got.At(0, j)) != want {
							t.Errorf("%s width %d, -Inf at b[%d][%d]: column %d is %v", name, p, at[0], at[1], j, got.At(0, j))
						}
					}
				}
			}
		}
		// NaN on the left side must survive regardless of the skip.
		an := FromSlice(1, 2, []float64{math.NaN(), 0})
		bn := FromSlice(2, 1, []float64{1, 1})
		if got := MatMul(an, bn).At(0, 0); !math.IsNaN(got) {
			t.Errorf("MatMul NaN in a: got %v, want NaN", got)
		}
	})
}

// TestZeroSkipLeftToDenseA: where b is the larger operand and a holds no ±0,
// the products do not scan b for NaN and ±Inf, since no group of a could be
// skipped. Against a b holding them, every product must still be the
// unskipped Go loop's, bit for bit, on both paths; a with zero groups keeps
// the scan (TestMatMulPropagatesNonFinite, TestKernelPathsZeroGroups).
func TestZeroSkipLeftToDenseA(t *testing.T) {
	EachKernelPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(31))
		for _, sh := range []struct{ m, k, n int }{{3, 9, 2}, {3, 9, 4}, {2, 13, 7}, {5, 64, 33}, {4, 21, 70}} {
			a := Randn(rng, sh.m, sh.k, 0, 1)
			if _, zero, _ := countZeroClasses(a.data); zero != 0 {
				t.Fatalf("a holds %d zeros", zero)
			}
			at := a.Transpose()
			for _, special := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
				b := Randn(rng, sh.k, sh.n, 0, 1)
				b.Set(0, 0, special)
				b.Set(sh.k-1, sh.n-1, special)
				b.Set(sh.k/2, sh.n/2, special)
				bias := Randn(rng, 1, sh.n, 0, 1)
				unskipped := func(seed *Dense) *Dense {
					want := New(sh.m, sh.n)
					tileAccGeneric(want.data, sh.n, seed.data, a.data, sh.k, 1, sh.k, b.data, 0, sh.m, false)
					return want
				}
				want := unskipped(New(1, sh.n))
				requireSameBits(t, "MatMul", MatMul(a, b), want)
				requireSameBits(t, "MatMulTA", MatMulTA(at, b), want)
				requireSameBits(t, "Affine", Affine(a, b, bias), unskipped(bias))
			}
		}
	})
}

// TestMatMulDeterministic: identical inputs must give bitwise identical
// outputs, run to run — the fixed tiled summation order is part of the
// kernel contract (same-seed training depends on it).
func TestMatMulDeterministic(t *testing.T) {
	EachKernelPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(11))
		a := Randn(rng, 65, 300, 0, 1e3)
		b := Randn(rng, 300, 37, 0, 1e3)
		first := MatMul(a, b)
		ta := MatMulTA(a.Transpose(), b)
		tb := MatMulTB(a, b.Transpose())
		for i := 0; i < 3; i++ {
			if !MatMul(a, b).Equal(first) {
				t.Fatal("MatMul is not bitwise deterministic")
			}
			if !MatMulTA(a.Transpose(), b).Equal(ta) {
				t.Fatal("MatMulTA is not bitwise deterministic")
			}
			if !MatMulTB(a, b.Transpose()).Equal(tb) {
				t.Fatal("MatMulTB is not bitwise deterministic")
			}
		}
	})
}

// TestIntoVariantsAndReuse: MatMulInto, the one Into variant left, reuses
// its destination's storage and overwrites whatever was in it.
func TestIntoVariantsAndReuse(t *testing.T) {
	EachKernelPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(12))
		a := Randn(rng, 9, 17, 0, 1)
		b := Randn(rng, 17, 5, 0, 1)

		dst := Full(9, 5, 42) // stale contents must be fully overwritten
		if got := MatMulInto(dst, a, b); !got.AllClose(naiveMatMul(a, b), 1e-9) {
			t.Error("MatMulInto differs from naive reference")
		}
	})
}

// TestPooledBuffersAreClean: a recycled slab must come back either zeroed
// (NewPooled) or fully overwritten (kernel outputs) — stale data from a
// released matrix must never be observable.
func TestPooledBuffersAreClean(t *testing.T) {
	EachKernelPath(t, func(t *testing.T) {
		for trial := 0; trial < 8; trial++ {
			d := NewPooled(13, 9)
			for i := range d.Data() {
				d.Data()[i] = 1e30 // poison
			}
			d.Release()
			got := NewPooled(13, 9)
			for i, v := range got.Data() {
				if v != 0 {
					t.Fatalf("trial %d: NewPooled slab not zeroed at %d: %v", trial, i, v)
				}
			}
			got.Release()

			// Kernel outputs reuse slabs without zeroing; every element must
			// still be overwritten.
			p := NewPooled(16, 16)
			for i := range p.Data() {
				p.Data()[i] = math.NaN() // poison: survives only if not overwritten
			}
			p.Release()
			rng := rand.New(rand.NewSource(int64(trial)))
			a := Randn(rng, 16, 16, 0, 1)
			b := Randn(rng, 16, 16, 0, 1)
			out := MatMul(a, b)
			if !out.AllFinite() {
				t.Fatalf("trial %d: MatMul output leaked poisoned pool contents", trial)
			}
			out.Release()
		}
	})
}

func TestReleaseRejectsForeignBuffers(t *testing.T) {
	// Non-power-of-two capacity (plain New) must be dropped, not pooled.
	d := New(3, 5)
	d.Release() // must not panic or corrupt the pool
	var nilDense *Dense
	nilDense.Release() // nil-safe
	empty := New(0, 4)
	empty.Release()
}
