package tensor

import (
	"fmt"
	"math"
)

// Cache-blocked matrix kernels. All three products share the same design:
// the k (reduction) dimension is tiled so the streamed panel of b stays in
// cache, the inner loops are unrolled four-wide, and rows of dst are
// distributed across the persistent worker pool. The per-element operation
// sequence is a pure function of the operand shapes — MatMul/MatMulTA add
// ascending groups of four k, each group summed left to right, onto a row
// that starts at +0 (Affine: at the bias);
// MatMulTB sums ascending k from zero; multiplies and adds are never fused —
// so identical inputs always produce bitwise identical outputs (though
// results may differ in low-order bits from a naive ikj loop).
//
// The innermost loops exist twice: the portable Go loops in this file
// (the *Generic functions), and on amd64 the AVX2 routines of
// kernels_amd64.s, which run that same sequence for several independent
// outputs at once. Which one runs depends on the CPU only, and the result
// does not depend on which one ran (see DESIGN.md "Kernel architecture").

const (
	// panelFloats is the size of the b panel (a k tile of rows, each as wide
	// as the columns updated at once: the whole dst row on the Go path, one
	// chunk of it on the vector path) that the accumulating kernels revisit
	// for every dst row before moving on: 16 KiB, so that it can stay in a
	// 32 or 48 KiB L1d beside the row being updated.
	panelFloats = 2048
	// matmulKC caps the k tile for rows (or chunks) of up to eight columns.
	matmulKC = 256
	// transposeBlock tiles Transpose into 32x32 sub-blocks (8 KiB working
	// set) so the strided writes stay within a few cache lines.
	transposeBlock = 32
	// chunkMaxCols is the widest run of dst columns the vector row update
	// of kernels_amd64.s holds in registers across a k tile: eight 4-lane
	// vectors. The vector path cuts a wider row into chunks of at most this
	// many columns, so the 12-to-18-column client models of a four-party
	// split and the 32-column default block take one chunk, a 256-column
	// block eight.
	chunkMaxCols = 32
)

// allFiniteGeneric reports whether every element of data is finite: NaN and
// ±Inf are exactly the values whose exponent field is all ones.
func allFiniteGeneric(data []float64) bool {
	const expMask = 0x7FF << 52
	for _, v := range data {
		if math.Float64bits(v)&expMask == expMask {
			return false
		}
	}
	return true
}

// MatMul returns a*b.
func MatMul(a, b *Dense) *Dense {
	if a.cols != b.rows {
		panic(fmt.Sprintf("tensor: MatMul shape mismatch %dx%d * %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	out := newPooledNoZero(a.rows, b.cols)
	matmulAcc(out, a, b, nil)
	return out
}

// MatMulInto computes dst = a*b, reusing dst's storage. dst must have shape
// Rows(a) x Cols(b) and must not alias a or b.
//
//lint:ignore deadcode bench/_gtvbench (ROADMAP 1(i))
func MatMulInto(dst, a, b *Dense) *Dense {
	if a.cols != b.rows {
		panic(fmt.Sprintf("tensor: MatMul shape mismatch %dx%d * %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	if dst.rows != a.rows || dst.cols != b.cols {
		panic(fmt.Sprintf("tensor: MatMulInto dst %dx%d, want %dx%d", dst.rows, dst.cols, a.rows, b.cols))
	}
	if len(dst.data) > 0 && ((len(a.data) > 0 && &dst.data[0] == &a.data[0]) ||
		(len(b.data) > 0 && &dst.data[0] == &b.data[0])) {
		panic("tensor: MatMulInto dst must not alias an operand")
	}
	matmulAcc(dst, a, b, nil)
	return dst
}

// MatMulTA returns aᵀ*b without materializing the transpose: a is KxM, b is
// KxN and the result is MxN. It is the fused form of
// MatMul(a.Transpose(), b) used by backward passes.
func MatMulTA(a, b *Dense) *Dense {
	if a.rows != b.rows {
		panic(fmt.Sprintf("tensor: MatMulTA shape mismatch %dx%dᵀ * %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	out := newPooledNoZero(a.cols, b.cols)
	matmulTAAcc(out, a, b)
	return out
}

// MatMulTB returns a*bᵀ without materializing the transpose: a is MxN, b is
// PxN and the result is MxP. It is the fused form of
// MatMul(a, b.Transpose()) used by backward passes.
func MatMulTB(a, b *Dense) *Dense {
	if a.cols != b.cols {
		panic(fmt.Sprintf("tensor: MatMulTB shape mismatch %dx%d * %dx%dᵀ", a.rows, a.cols, b.rows, b.cols))
	}
	out := newPooledNoZero(a.rows, b.rows)
	runRows(kernelTask{kind: kernelMatMulTB, dst: out, a: a, b: b}, a.rows, a.cols*b.rows)
	return out
}

// Affine returns a*b + bias with the 1xCols(b) bias row folded into the
// matmul: every dst row starts from the bias and the product accumulates on
// top, saving the broadcast-add pass and its intermediate.
func Affine(a, b, bias *Dense) *Dense {
	if a.cols != b.rows {
		panic(fmt.Sprintf("tensor: Affine shape mismatch %dx%d * %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	if bias.rows != 1 || bias.cols != b.cols {
		panic(fmt.Sprintf("tensor: Affine bias %dx%d, want 1x%d", bias.rows, bias.cols, b.cols))
	}
	out := newPooledNoZero(a.rows, b.cols)
	matmulAcc(out, a, b, bias)
	return out
}

// matmulAcc sets dst = a*b with every row of dst starting from the
// 1xCols(dst) row seed, fanning rows across the worker pool for large
// products. A nil seed is a pooled row of +0: the first k tile copies it in,
// as it copies an Affine's bias, so dst needs no zero fill of its own. A row
// then holds exactly what a cleared one would — +0 when every group is
// skipped, and +0 + −0 = +0 when the sum is −0. With no k there is no tile
// to carry the seed, and the rows are filled here.
func matmulAcc(dst, a, b, seed *Dense) {
	if len(dst.data) == 0 {
		return
	}
	if a.cols == 0 {
		if seed == nil {
			clear(dst.data)
			return
		}
		for i := 0; i < dst.rows; i++ {
			copy(dst.data[i*dst.cols:(i+1)*dst.cols], seed.data)
		}
		return
	}
	t := kernelTask{kind: kernelMatMulAcc, dst: dst, a: a, b: b, seed: seed, bFinite: allFinite(b.data)}
	if seed == nil {
		t.seed = NewPooled(1, dst.cols)
		defer t.seed.Release()
	}
	runRows(t, a.rows, a.cols*b.cols)
}

// matmulTAAcc sets dst = aᵀ*b, every row starting from a pooled row of +0
// (see matmulAcc). dst row i is a's column i, read in place with stride
// Cols(a), at every shape: a transpose of a into a contiguous copy first
// did not pay for the copy at any measured shape (EXPERIMENTS.md "One row
// kernel for every width").
func matmulTAAcc(dst, a, b *Dense) {
	if len(dst.data) == 0 || a.rows == 0 {
		clear(dst.data)
		return
	}
	t := kernelTask{kind: kernelMatMulTAAcc, dst: dst, a: a, b: b, seed: NewPooled(1, dst.cols), bFinite: allFinite(b.data)}
	runRows(t, a.cols, a.rows*b.cols)
	t.seed.Release()
}

// kTile returns the k-dimension tile for dst rows p wide: the largest
// multiple of four rows of b that fits panelFloats, between one unroll group
// and matmulKC. Every tile but the last is a whole number of groups, so the
// groups — and with them each element's operation sequence — are the same
// for any tile size, and each path may size its tiles for the columns it
// updates at once: the Go loops for the whole row, the vector path for one
// chunk of it.
func kTile(p int) int {
	return max(4, min(panelFloats/p&^3, matmulKC))
}

// matmulAccRange sets rows [lo,hi) of dst to seed + a*b.
func matmulAccRange(dst, a, b, seed *Dense, lo, hi int, bFinite bool) {
	tileAcc(dst.data, b.cols, seed.data, a.data, a.cols, 1, a.cols, b.data, lo, hi, bFinite)
}

// matmulTAAccRange sets rows [lo,hi) of dst to seed + aᵀ*b: dst row i
// weighs b's rows by a's column i, read with stride Cols(a).
func matmulTAAccRange(dst, a, b, seed *Dense, lo, hi int, bFinite bool) {
	tileAcc(dst.data, b.cols, seed.data, a.data, 1, a.cols, a.rows, b.data, lo, hi, bFinite)
}

// tileAccGeneric adds the products of all kN rows of b (p columns each) to
// rows [lo,hi) of dst, one k tile after the other so that the tile's b panel
// is read from cache by every row. The rows start from seed when there is
// one: it rides along with the first tile. Row i weighs b's row k by
// a[i*rowStride+k*kStride].
func tileAccGeneric(od []float64, p int, seed, a []float64, rowStride, kStride, kN int, b []float64, lo, hi int, bFinite bool) {
	kc := kTile(p)
	for kk := 0; kk < kN; kk += kc {
		kend := min(kk+kc, kN)
		tileAccGroups(od, p, seed, a[kk*kStride:], rowStride, kStride, kend-kk, b[kk*p:kend*p], lo, hi, bFinite)
		seed = nil
	}
}

// tileAccGroups is the update of rows [lo,hi) of dst (p columns each, in od)
// by one k tile, and the specification of every routine that performs it.
// The tile's kn rows of b are held back to back in b; row i weighs them by
// a[i*rowStride], a[i*rowStride+kStride], ... (a contiguous row of a for
// MatMul, a column of it for MatMulTA). Each row, first copied from seed when
// there is one, takes ascending groups of four k — a group's products summed
// left to right, then added to the row — and then one k at a time. The
// zero-skip is gated on bFinite: 0*finite adds exactly zero, so skipping is
// legal, but when b contains NaN or ±Inf every product must be formed so IEEE
// propagation (0*Inf = NaN) is preserved.
func tileAccGroups(od []float64, p int, seed, a []float64, rowStride, kStride, kn int, b []float64, lo, hi int, bFinite bool) {
	for i := lo; i < hi; i++ {
		orow := od[i*p : (i+1)*p]
		if seed != nil {
			copy(orow, seed)
		}
		k, at := 0, i*rowStride
		for ; k+3 < kn; k, at = k+4, at+4*kStride {
			a0, a1, a2, a3 := a[at], a[at+kStride], a[at+2*kStride], a[at+3*kStride]
			//lint:ignore floateq exact-zero skip is bit-identical to the multiply it avoids (x+0*y==x for finite y, gated on bFinite)
			if bFinite && a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
				continue
			}
			axpy4Generic(orow, b[k*p:(k+4)*p], a0, a1, a2, a3)
		}
		for ; k < kn; k, at = k+1, at+kStride {
			av := a[at]
			//lint:ignore floateq exact-zero skip is bit-identical to the multiply it avoids
			if bFinite && av == 0 {
				continue
			}
			axpy1Generic(orow, b[k*p:(k+1)*p], av)
		}
	}
}

// ActiveRowGroups returns, ascending, the rows of m whose part in a product
// over m's rows cannot be left out: the four rows of every group
// tileAccGroups takes together (rows 4g to 4g+3) in which some element is
// not +0 bit for bit, and the Rows()%4 rows after the last whole group, which
// the kernels take one at a time. The result reuses dst's storage.
//
// For x and m finite, MatMulTA(x, m) and m.SumRows() over these rows alone
// (x's and m's, gathered in this order) are bit-identical to the products
// over all rows: the rows kept form the same groups in the same order, and a
// group left out would have added x·(+0) = ±0 to accumulators that start at
// +0 and therefore never hold −0, which changes none of them. A row of −0
// is kept; only the all-+0 rows a zero-filled scatter leaves are dropped.
func (m *Dense) ActiveRowGroups(dst []int) []int {
	dst = dst[:0]
	whole := m.rows &^ 3
	for r := 0; r < whole; r += 4 {
		var set uint64
		for _, v := range m.data[r*m.cols : (r+4)*m.cols] {
			set |= math.Float64bits(v)
		}
		if set != 0 {
			dst = append(dst, r, r+1, r+2, r+3)
		}
	}
	for r := whole; r < m.rows; r++ {
		dst = append(dst, r)
	}
	return dst
}

// axpy4Generic is the row update both accumulating kernels are made of:
// orow[j] += a0*b[j] + a1*b[p+j] + a2*b[2p+j] + a3*b[3p+j] for the four
// consecutive length-p rows held in b, the products summed left to right.
// Each product is written float64(x*y) so that no compiler fuses it into the
// add (arm64 would); the loop indexes b0 rather than ranging over its values
// to stay inside the inliner's budget, so tileAccGroups inlines it.
func axpy4Generic(orow, b []float64, a0, a1, a2, a3 float64) {
	p := len(orow)
	b0, b1, b2, b3 := b[:p], b[p:2*p], b[2*p:3*p], b[3*p:4*p]
	for j := range b0 {
		orow[j] += float64(a0*b0[j]) + float64(a1*b1[j]) + float64(a2*b2[j]) + float64(a3*b3[j])
	}
}

// axpy1Generic is the k-tail of the row update: orow[j] += av*brow[j].
func axpy1Generic(orow, brow []float64, av float64) {
	brow = brow[:len(orow)]
	for j, bv := range brow {
		orow[j] += float64(av * bv)
	}
}

// matmulTBRangeGeneric computes rows [lo,hi) of dst = a*bᵀ as dot products,
// streaming one a row against four b rows with four register accumulators.
// Every output element is written (not accumulated), so the destination
// needs no zero fill and NaN/Inf propagate naturally.
func matmulTBRangeGeneric(dst, a, b *Dense, lo, hi int) {
	n, p := a.cols, b.rows
	ad, bd, od := a.data, b.data, dst.data
	for i := lo; i < hi; i++ {
		arow := ad[i*n : i*n+n]
		orow := od[i*p : i*p+p]
		j := 0
		for ; j+3 < p; j += 4 {
			b0 := bd[j*n : (j+1)*n]
			b1 := bd[(j+1)*n : (j+2)*n]
			b2 := bd[(j+2)*n : (j+3)*n]
			b3 := bd[(j+3)*n : (j+4)*n]
			var s0, s1, s2, s3 float64
			for k, av := range arow {
				s0 += float64(av * b0[k])
				s1 += float64(av * b1[k])
				s2 += float64(av * b2[k])
				s3 += float64(av * b3[k])
			}
			orow[j], orow[j+1], orow[j+2], orow[j+3] = s0, s1, s2, s3
		}
		for ; j < p; j++ {
			brow := bd[j*n : (j+1)*n]
			var s float64
			for k, av := range arow {
				s += float64(av * brow[k])
			}
			orow[j] = s
		}
	}
}

// transposeBlocks writes the transpose of m into dst in 32x32 blocks.
func transposeBlocks(dst, m *Dense) {
	r, c := m.rows, m.cols
	md, dd := m.data, dst.data
	for ii := 0; ii < r; ii += transposeBlock {
		iend := min(ii+transposeBlock, r)
		for jj := 0; jj < c; jj += transposeBlock {
			jend := min(jj+transposeBlock, c)
			for i := ii; i < iend; i++ {
				row := md[i*c : (i+1)*c]
				for j := jj; j < jend; j++ {
					dd[j*r+i] = row[j]
				}
			}
		}
	}
}
