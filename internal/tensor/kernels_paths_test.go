package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
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
// around the unroll group and the k tile, row counts around the 8-row
// MatMulTB panel, and the tall-narrow products of a full-table real pass
// (dst rows that fit the registers: widths around each vector count up to
// one chunk's 32 columns and one past it, k with and without a tail, a k of
// several tiles as a weight gradient has).
var pathShapes = []struct{ m, k, n int }{
	{5000, 17, 17}, {5000, 40, 17}, {17, 5000, 17}, {500, 16, 16}, {40, 13, 12}, {40, 18, 18},
	{9, 7, 20}, {9, 21, 24}, {9, 6, 27}, {9, 9, 28}, {9, 11, 31}, {9, 300, 32}, {9, 300, 33},
	{25, 3060, 256}, // forward: 25x3060 · 3060x256
	{25, 256, 3060}, // input gradient: 25x256 · (3060x256)ᵀ as MatMulTB, m×k · (n×k)ᵀ
	{3060, 25, 256}, // weight gradient: (25x3060)ᵀ · 25x256 as MatMulTA, (k×m)ᵀ · k×n
	{250, 256, 256},
	{3, 5, 1}, {3, 5, 2}, {3, 5, 3}, {3, 5, 4}, {3, 5, 5}, {3, 5, 6}, {3, 5, 7}, {3, 5, 8}, {3, 5, 9},
	{1, 1, 1}, {2, 8, 13}, {3, 8, 13}, {7, 9, 11}, {8, 16, 12}, {9, 17, 15}, {10, 255, 16}, {11, 256, 17},
	{16, 257, 31}, {17, 259, 33}, {26, 513, 10}, {33, 64, 1}, {1, 64, 33},
	{4, 0, 5}, {4, 0, 40}, // no k: dst is filled, there is no tile to start it
}

// zeroRowShapes are products whose rows start from the pooled zero row: no k
// at all, one k, one group and one group and a k, widths either side of one
// chunk's 32 columns and the paper's 256, and a long MatMulTA either side of
// the chunk width.
var zeroRowShapes = []struct{ m, k, n int }{
	{5, 0, 3}, {5, 0, 40}, {5, 1, 31}, {5, 4, 32}, {5, 5, 33}, {9, 300, 4}, {9, 300, 256},
	{40, 1100, 32}, {40, 1100, 33},
}

// groupedMatMul is the operation sequence every accumulating product
// promises, one element at a time: from +0, each ascending group of four k
// summed left to right and then added on — left out when its four a are zero
// and b is finite — and then the leftover k one by one, likewise.
func groupedMatMul(a, b *Dense) *Dense {
	bFinite := allFiniteGeneric(b.data)
	n, p := a.cols, b.cols
	out := New(a.rows, p)
	for i := 0; i < a.rows; i++ {
		ar := a.data[i*n : (i+1)*n]
		for j := 0; j < p; j++ {
			s, k := 0.0, 0
			for ; k+3 < n; k += 4 {
				if bFinite && ar[k] == 0 && ar[k+1] == 0 && ar[k+2] == 0 && ar[k+3] == 0 {
					continue
				}
				s += ar[k]*b.data[k*p+j] + ar[k+1]*b.data[(k+1)*p+j] + ar[k+2]*b.data[(k+2)*p+j] + ar[k+3]*b.data[(k+3)*p+j]
			}
			for ; k < n; k++ {
				if bFinite && ar[k] == 0 {
					continue
				}
				s += ar[k] * b.data[k*p+j]
			}
			out.data[i*p+j] = s
		}
	}
	return out
}

// saltZeroRows gives a (m×k) and b (k×n) the rows the zero-row start has to
// get right: row 0's first group is zeros of both signs (skipped), row 1's
// dot product with column 0 is a sum of −0 products (-1e-200 · 1e-200
// underflows), which from a +0 start is +0, and the last row is all zero.
func saltZeroRows(a, b *Dense) {
	m, k, n := a.rows, a.cols, b.cols
	if m < 3 || k == 0 {
		return
	}
	copy(a.data[:min(4, k)], []float64{0, math.Copysign(0, -1), 0, math.Copysign(0, -1)})
	for kk := 0; kk < k; kk++ {
		a.data[k+kk] = -1e-200
		b.data[kk*n] = 1e-200
	}
	clear(a.data[(m-1)*k:])
}

// dirtyPool leaves a NaN-filled slab of rows×cols on the free list, where the
// next product of that size finds it: whatever dst does not overwrite shows.
func dirtyPool(rows, cols int) {
	d := newPooledNoZero(rows, cols)
	for i := range d.data {
		d.data[i] = math.NaN()
	}
	d.Release()
}

// TestZeroRowStart: MatMul, MatMulInto and MatMulTA start every row from a
// pooled row of +0 instead of a cleared dst, and land exactly where the
// cleared start did — the grouped reference — on both paths: a skipped first
// group, an all-zero row, a −0 sum coming out +0, no k at all, and a
// recycled dst full of NaN underneath.
func TestZeroRowStart(t *testing.T) {
	EachKernelPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(30))
		for _, sh := range zeroRowShapes {
			a := Randn(rng, sh.m, sh.k, 0, 1)
			b := Randn(rng, sh.k, sh.n, 0, 1)
			saltZeroRows(a, b)
			at := a.Transpose()
			want := groupedMatMul(a, b)
			if sh.m >= 3 && sh.k > 0 && math.Float64bits(want.data[sh.n]) != 0 {
				t.Fatalf("%v: the salted −0 sum is %v in the reference, want +0", sh, want.data[sh.n])
			}
			dirtyPool(sh.m, sh.n)
			requireSameBits(t, fmt.Sprintf("MatMul %v", sh), MatMul(a, b), want)
			dirtyPool(sh.m, sh.n)
			requireSameBits(t, fmt.Sprintf("MatMulTA %v", sh), MatMulTA(at, b), want)
			requireSameBits(t, fmt.Sprintf("MatMulInto %v", sh), MatMulInto(Full(sh.m, sh.n, math.NaN()), a, b), want)
		}
	})
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
	for _, sh := range []struct{ m, k, n int }{{5, 16, 9}, {9, 259, 7}, {25, 64, 36}, {12, 40, 4}, {7, 1030, 17}, {6, 127, 32}, {40, 900, 13}} {
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

// TestMatMulTAIsMatMulOfTheTranspose: MatMulTA reads a's columns in place and
// must run exactly the groups MatMul runs on the transposed operand — large
// and small operands, dst rows of one chunk and of several, on both paths.
func TestMatMulTAIsMatMulOfTheTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, sh := range []struct{ k, m, n int }{
		{5000, 17, 17}, // large a, one chunk
		{5000, 17, 40}, // large a, two chunks
		{1100, 40, 32}, {1100, 40, 33},
		{100, 17, 17}, {300, 50, 64}, // small a
	} {
		a := Randn(rng, sh.k, sh.m, 0, 1)
		b := Randn(rng, sh.k, sh.n, 0, 1)
		at := a.Transpose()
		requireSameBits(t, "MatMulTA vs MatMul of the transpose",
			onBothPaths(t, "MatMulTA", func() *Dense { return MatMulTA(a, b) }),
			onBothPaths(t, "MatMul", func() *Dense { return MatMul(at, b) }))
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
		}{{"Add", Add}, {"Sub", Sub}, {"Mul", Mul}, {"Div", Div}} {
			onBothPaths(t, op.name, func() *Dense { return op.f(x, y) })
			onBothPaths(t, op.name+" row", func() *Dense { return op.f(x, row) })
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

// TestRowPathMatchesGenericUpdates drives the tileAcc entry point directly,
// the vector path against the Go path — where tileAccGeneric runs k tiles of
// tileAccGroups, and those the groups through axpy4Generic and axpy1Generic:
// every dst width from 1 to 70 (below the first vector, every vector count
// with every overlap of the last vector, one chunk, and every split into two
// and three chunks), the widths either side of 96, 128 and 256, and the
// paper's 2820, reduction lengths around the unroll group and the k tile and
// one of many tiles' worth, a read along its rows (MatMul) and down its
// columns (MatMulTA), the middle rows of a five-row dst, with and without a
// seed row, zero groups and zero single k (of both signs) in a, and a finite
// and a non-finite b with the matching bFinite.
func TestRowPathMatchesGenericUpdates(t *testing.T) {
	var widths []int
	for p := 1; p <= 70; p++ {
		widths = append(widths, p)
	}
	widths = append(widths, 95, 96, 97, 127, 128, 129, 255, 256, 257, 2820)
	rng := rand.New(rand.NewSource(25))
	negZero := math.Copysign(0, -1)
	const rows, lo, hi = 5, 1, 4
	for _, p := range widths {
		for _, kn := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 255, 256, 257, 5000} {
			for _, byColumn := range []bool{false, true} {
				rowStride, kStride := kn, 1 // a is rows x kn
				if byColumn {
					rowStride, kStride = 1, rows // a is kn x rows
				}
				a := Randn(rng, 1, rows*kn, 0, 1).data
				for i := 0; i < rows; i++ {
					at := func(k int) *float64 { return &a[i*rowStride+k*kStride] }
					for g := 0; g+4 <= kn; g += 4 {
						switch rng.Intn(4) {
						case 0: // a whole group of zeros, signs mixed
							for k := g; k < g+4; k++ {
								*at(k) = []float64{0, negZero}[rng.Intn(2)]
							}
						case 1: // all but one
							for k := g; k < g+3; k++ {
								*at(k) = 0
							}
						}
					}
					if tail := kn &^ 3; tail < kn {
						*at(tail) = negZero
					}
				}
				base := Randn(rng, kn, p, 0, 1).data
				for _, special := range []float64{1, math.Inf(1), math.NaN(), 5e-324} {
					b := slices.Clone(base)
					b[rng.Intn(len(b))] = special
					b[rng.Intn(len(b))] = negZero
					bFinite := allFiniteGeneric(b)
					init := Randn(rng, rows, p, 0, 1)
					init.data[rng.Intn(len(init.data))] = negZero
					onBothPaths(t, "tileAcc onto dst", func() *Dense {
						dst := init.Clone()
						tileAcc(dst.data, p, nil, a, rowStride, kStride, kn, b, lo, hi, bFinite)
						return dst
					})
					onBothPaths(t, "tileAcc from a seed row", func() *Dense {
						dst := Full(rows, p, math.NaN()) // rows lo..hi-1 must be overwritten
						tileAcc(dst.data, p, init.data[:p], a, rowStride, kStride, kn, b, lo, hi, bFinite)
						return dst
					})
				}
			}
		}
	}
}

// activationInputs returns n values salted with everything the compare, the
// select and the product could treat specially: both zeros (the boundary of
// `x > 0`), the smallest denormals either side of it, infinities, NaN, the
// slope itself and the largest finite values.
func activationInputs(rng *rand.Rand, n int, slope float64) []float64 {
	specials := []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, -2.5e-310, math.Inf(1), math.Inf(-1), math.NaN(),
		slope, -slope, 1, -1, math.MaxFloat64, -math.MaxFloat64}
	x := Randn(rng, 1, n, 0, 3).data
	for i := range x {
		if rng.Intn(3) == 0 {
			x[i] = specials[rng.Intn(len(specials))]
		}
	}
	return x
}

var activationLens = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 18, 31, 32, 33, 5000 * 17}

// TestActivationPathsBitIdentical: ReLU, LeakyReLU and the activation
// gradient on the vector path equal their Go loops, and both equal the
// closure forms they replaced — Apply with a branch for the forward, an
// Apply-built 1/slope mask multiplied in for the gradient.
func TestActivationPathsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for _, n := range activationLens {
		for _, slope := range []float64{0.2, 0, -0.5, math.Inf(1)} {
			x := FromSlice(1, n, activationInputs(rng, n, slope))
			g := FromSlice(1, n, activationInputs(rng, n, slope))
			got := onBothPaths(t, "ReLU", func() *Dense { return ReLU(x) })
			requireSameBits(t, "ReLU vs closure", got, x.Apply(func(v float64) float64 {
				if v > 0 {
					return v
				}
				return 0
			}))
			got = onBothPaths(t, "LeakyReLU", func() *Dense { return LeakyReLU(x, slope) })
			requireSameBits(t, "LeakyReLU vs closure", got, x.Apply(func(v float64) float64 {
				if v > 0 {
					return v
				}
				return slope * v
			}))
			got = onBothPaths(t, "ActGrad", func() *Dense { return ActGrad(g, x, slope) })
			requireSameBits(t, "ActGrad vs mask", got, Mul(g, x.Apply(func(v float64) float64 {
				if v > 0 {
					return 1
				}
				return slope
			})))
		}
	}
}

// TestDropoutMatchesMaskThenMul: the fused pass draws what the mask loop
// drew, in its order, and leaves what Mul left — a dropped negative
// activation is -0, a dropped NaN is NaN — with the generator in the same
// place afterwards.
func TestDropoutMatchesMaskThenMul(t *testing.T) {
	EachKernelPath(t, func(t *testing.T) {
		for _, n := range activationLens {
			for _, keep := range []float64{0.5, 0.9, 1, 0.001} {
				x := FromSlice(1, n, activationInputs(rand.New(rand.NewSource(int64(n))), n, keep))
				fused, ref := rand.New(rand.NewSource(27)), rand.New(rand.NewSource(27))
				out, mask := Dropout(fused, x, keep)
				wantMask := New(1, n)
				for i := range wantMask.data {
					if ref.Float64() < keep {
						wantMask.data[i] = 1 / keep
					}
				}
				requireSameBits(t, "Dropout mask", mask, wantMask)
				requireSameBits(t, "Dropout product", out, Mul(x, wantMask))
				if fused.Int63() != ref.Int63() {
					t.Fatalf("n=%d keep=%v: the fused pass left the generator somewhere else", n, keep)
				}
				out.Release()
				mask.Release()
			}
		}
	})
}

// TestScalarOpsMatchClosures: Scale and AddScalar lost their closures, not
// their arithmetic.
func TestScalarOpsMatchClosures(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for _, n := range []int{0, 1, 7, 64, 1000} {
		for _, s := range []float64{-1, 0.1, 0, math.Inf(-1), 1e-320} {
			x := FromSlice(1, n, activationInputs(rng, n, s))
			requireSameBits(t, "Scale", x.Scale(s), x.Apply(func(v float64) float64 { return v * s }))
			requireSameBits(t, "AddScalar", x.AddScalar(s), x.Apply(func(v float64) float64 { return v + s }))
		}
	}
}
