package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// Path equivalence: the vector routines and the Go loops must agree bit for
// bit on every output (math.Float64bits equality; where a result is NaN the
// other path must have a NaN in the same position — which operand's payload
// survives is the one thing the two instruction streams may differ in).

// onBothPaths evaluates f on the Go path and on the vector path and fails
// the test where the two results differ. It returns the Go-path result.
func onBothPaths(t *testing.T, what string, f func() *Dense) *Dense {
	t.Helper()
	if !HasAsmKernels {
		t.Skip("no vector kernels on this build/CPU")
	}
	useAsm = false
	want := f()
	useAsm = true // the start-up value again: HasAsmKernels held above
	got := f()
	requireSameBits(t, what, got, want)
	return want
}

func requireSameBits(t *testing.T, what string, got, want *Dense) {
	t.Helper()
	if got.rows != want.rows || got.cols != want.cols {
		t.Fatalf("%s: asm path %dx%d, go path %dx%d", what, got.rows, got.cols, want.rows, want.cols)
	}
	for i, w := range want.data {
		g := got.data[i]
		if math.IsNaN(w) && math.IsNaN(g) {
			continue
		}
		if math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s: element %d (row %d col %d): asm %v (%#x), go %v (%#x)",
				what, i, i/max(want.cols, 1), i%max(want.cols, 1), g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
}

// pathShapes: the three products of the paper-scale federated round (D^t's
// first layer is (256+cv)*10 = 3060 wide at pac 10), every width from 1 to 9
// (no vector, exactly one and two, and each tail length), reduction lengths
// around the unroll group and the k tile, and row counts around the 8-row
// MatMulTB panel.
var pathShapes = []struct{ m, k, n int }{
	{25, 3060, 256}, // forward: 25x3060 · 3060x256
	{25, 256, 3060}, // input gradient: 25x256 · (3060x256)ᵀ as MatMulTB, m×k · (n×k)ᵀ
	{3060, 25, 256}, // weight gradient: (25x3060)ᵀ · 25x256 as MatMulTA, (k×m)ᵀ · k×n
	{250, 256, 256},
	{3, 5, 1}, {3, 5, 2}, {3, 5, 3}, {3, 5, 4}, {3, 5, 5}, {3, 5, 6}, {3, 5, 7}, {3, 5, 8}, {3, 5, 9},
	{1, 1, 1}, {2, 8, 13}, {3, 8, 13}, {7, 9, 11}, {8, 16, 12}, {9, 17, 15}, {10, 255, 16}, {11, 256, 17},
	{16, 257, 31}, {17, 259, 33}, {26, 513, 10}, {33, 64, 1}, {1, 64, 33},
}

func TestKernelPathsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, sh := range pathShapes {
		a := Randn(rng, sh.m, sh.k, 0, 1)
		b := Randn(rng, sh.k, sh.n, 0, 1)
		at := Randn(rng, sh.k, sh.m, 0, 1)
		bt := Randn(rng, sh.n, sh.k, 0, 1)
		bias := Randn(rng, 1, sh.n, 0, 1)
		onBothPaths(t, "MatMul", func() *Dense { return MatMul(a, b) })
		onBothPaths(t, "MatMulTA", func() *Dense { return MatMulTA(at, b) })
		onBothPaths(t, "MatMulTB", func() *Dense { return MatMulTB(a, bt) })
		// Affine seeds dst with the bias and accumulates on top: the seed
		// must take part in the first group's add on both paths.
		onBothPaths(t, "Affine", func() *Dense { return Affine(a, b, bias) })
	}
}

// TestKernelPathsZeroGroups: the exact-zero skip sits in front of the row
// update on both paths. With a finite b a skipped group and a computed one
// agree; with a non-finite b nothing may be skipped and 0*Inf, 0*NaN must
// land in the same positions. Signed zeros and denormals ride along.
func TestKernelPathsZeroGroups(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	specials := []float64{math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(0, -1), 5e-324, -2.5e-310, math.MaxFloat64}
	for _, sh := range []struct{ m, k, n int }{{5, 16, 9}, {9, 259, 7}, {25, 64, 36}, {12, 40, 4}} {
		a := Randn(rng, sh.m, sh.k, 0, 1)
		// Zero whole groups of four k, single entries, and one whole row.
		for i := 0; i < sh.m; i++ {
			for g := 0; g+4 <= sh.k; g += 4 {
				if rng.Intn(3) == 0 {
					for k := g; k < g+4; k++ {
						a.Set(i, k, 0)
					}
				}
			}
			a.Set(i, rng.Intn(sh.k), math.Copysign(0, -1))
		}
		for k := 0; k < sh.k; k++ {
			a.Set(sh.m-1, k, 0)
		}
		at := a.Transpose()
		for _, special := range append([]float64{1}, specials...) {
			b := Randn(rng, sh.k, sh.n, 0, 1)
			for c := 0; c < 6; c++ {
				b.Set(rng.Intn(sh.k), rng.Intn(sh.n), special)
			}
			bt := b.Transpose()
			bias := Randn(rng, 1, sh.n, 0, 1)
			onBothPaths(t, "MatMul", func() *Dense { return MatMul(a, b) })
			onBothPaths(t, "MatMulTA", func() *Dense { return MatMulTA(at, b) })
			onBothPaths(t, "MatMulTB", func() *Dense { return MatMulTB(a, bt) })
			onBothPaths(t, "Affine", func() *Dense { return Affine(a, b, bias) })
			// The specials on the left too.
			onBothPaths(t, "MatMul (special in a)", func() *Dense { return MatMul(bt, at) })
			onBothPaths(t, "MatMulTB (special in a)", func() *Dense { return MatMulTB(bt, a) })
		}
	}
}

func TestElementwisePathsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	specials := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 5e-324, math.MaxFloat64, -math.MaxFloat64}
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 63, 100, 1 << 12} {
		x := Randn(rng, 3, n, 0, 10)
		y := Randn(rng, 3, n, 0, 10)
		row := Randn(rng, 1, n, 0, 10)
		for i := 0; i < 3*n; i += 1 + rng.Intn(5) {
			x.data[i] = specials[rng.Intn(len(specials))]
			y.data[(i*7)%(3*n)] = specials[rng.Intn(len(specials))]
		}
		for _, op := range []struct {
			name string
			f    func(a, b *Dense) *Dense
			into func(dst, a, b *Dense) *Dense
		}{{"Add", Add, AddInto}, {"Sub", Sub, SubInto}, {"Mul", Mul, MulInto}, {"Div", Div, DivInto}} {
			want := onBothPaths(t, op.name, func() *Dense { return op.f(x, y) })
			onBothPaths(t, op.name+" row", func() *Dense { return op.f(x, row) })
			// dst aliasing either operand is part of the Into contract.
			onBothPaths(t, op.name+"Into dst=a", func() *Dense { c := x.Clone(); return op.into(c, c, y) })
			got := onBothPaths(t, op.name+"Into dst=b", func() *Dense { c := y.Clone(); return op.into(c, x, c) })
			requireSameBits(t, op.name+"Into dst=b vs allocating", got, want)
		}
	}
}

func TestAllFinitePathsAgree(t *testing.T) {
	EachKernelPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(24))
		for _, n := range []int{0, 1, 3, 4, 5, 15, 16, 17, 31, 64, 1000} {
			x := Randn(rng, 1, n, 0, 1e300).data
			for i := range x {
				if i%3 == 0 {
					x[i] = []float64{0, math.Copysign(0, -1), 5e-324, math.MaxFloat64, -math.MaxFloat64}[i%5]
				}
			}
			if !allFinite(x) {
				t.Fatalf("n=%d: finite data reported non-finite", n)
			}
			for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Float64frombits(0xFFF8000000000001)} {
				for pos := 0; pos < n; pos++ {
					old := x[pos]
					x[pos] = bad
					if allFinite(x) {
						t.Fatalf("n=%d: %v at %d not detected", n, bad, pos)
					}
					x[pos] = old
				}
			}
		}
	})
}
