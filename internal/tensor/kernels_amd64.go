package tensor

import "math"

// amd64 side of the kernel layer: CPU detection, the declarations of the
// AVX2 routines in kernels_amd64.s and exp_amd64.s, and the entry points the
// portable code calls (tileAcc, axpy4, axpy1, matmulTBRange, binSame, relu,
// leakyReLU, actGrad, allFinite, countZeroClasses, packMasked, adamStep,
// logSlice, expSlice), each of which picks the vector routine or the Go loop
// it is bit-identical to.

// useAsm is true when the CPU and the OS support AVX2. It is decided once at
// start-up and read-only afterwards; only the path-equivalence tests (through
// export_test.go) ever flip it.
var useAsm = cpuHasAVX2()

// hasFMA says whether math.Exp runs its fused branch, which is what expAVX2
// computes; the vector Exp runs only where useAsm and hasFMA both hold.
// math.Exp decides from internal/cpu's AVX and FMA bits (math.useFMA), which
// GODEBUG=cpu.avx=off or cpu.fma=off clear on a CPU that has them, so hasFMA
// asks math.Exp itself rather than CPUID: on this input the fused branch
// returns these bits and the other branch the bits one below.
var hasFMA = math.Float64bits(math.Exp(math.Float64frombits(0xc033efd23abc0b07))) == 0x3e22dc37e59be80b

func expVector() bool { return useAsm && hasFMA }

// vecMinLen is the shortest row worth a call into the vector routines: one
// full 4-lane vector. Below it the Go loop is used; the result is the same.
const vecMinLen = 4

func cpuHasAVX2() bool

//go:noescape
func logAVX2(dst, x *float64, n int) (done int)

//go:noescape
func expAVX2(dst, x *float64, n int) (done int)

//go:noescape
func axpy4AVX2(dst, b *float64, n int, a0, a1, a2, a3 float64)

//go:noescape
func axpy1AVX2(dst, b *float64, n int, a float64)

//go:noescape
func rowAccNarrowAVX2(dst, seed, a *float64, stride, kn int, b *float64, p int, bFinite bool)

//go:noescape
func vecReLUAVX2(dst, x *float64, n int)

//go:noescape
func vecLeakyReLUAVX2(dst, x *float64, n int, slope float64)

//go:noescape
func vecActGradAVX2(dst, grad, x *float64, n int, slope float64)

//go:noescape
func dotPanel8x4AVX2(out *[dotPanelRows * dotPanelCols]float64, panel, b0, b1, b2, b3 *float64, n int)

//go:noescape
func vecAddAVX2(dst, a, b *float64, n int)

//go:noescape
func vecSubAVX2(dst, a, b *float64, n int)

//go:noescape
func vecMulAVX2(dst, a, b *float64, n int)

//go:noescape
func vecDivAVX2(dst, a, b *float64, n int)

//go:noescape
func allFiniteAVX2(p *float64, n int) bool

//go:noescape
func countZeroClassesAVX2(p *float64, n int) (posZero, zero, one int)

//go:noescape
func adamStepAVX2(w, grad, m, v *float64, n int, decay, beta1, oneMinusBeta1, beta2, oneMinusBeta2, bc1, bc2, lr, eps float64, div1, div2 bool)

//go:noescape
func packMaskedAVX2(presence, sign, values *byte, room int, data *float64, n int, perm *[16][8]uint32, adv *[16]uint8) (done, used int)

// tileAcc adds a k tile's contribution to rows [lo,hi) of dst (see
// tileAccGroups, the loop it must agree with bit for bit). Rows of vecMinLen
// to narrowMaxCols columns take one call each that keeps the row in registers
// for the whole tile; wider ones go group by group through axpy4.
func tileAcc(od []float64, p int, seed, a []float64, rowStride, kStride, kn int, b []float64, lo, hi int, bFinite bool) {
	if !useAsm || p < vecMinLen || p > narrowMaxCols {
		tileAccGroups(od, p, seed, a, rowStride, kStride, kn, b, lo, hi, bFinite)
		return
	}
	_ = b[kn*p-1]
	for i := lo; i < hi; i++ {
		orow := od[i*p : (i+1)*p]
		from := orow
		if seed != nil {
			from = seed[:p]
		}
		arow := a[i*rowStride:]
		_ = arow[(kn-1)*kStride]
		rowAccNarrowAVX2(&orow[0], &from[0], &arow[0], kStride, kn, &b[0], p, bFinite)
	}
}

func axpy4(orow, b []float64, a0, a1, a2, a3 float64) {
	if p := len(orow); useAsm && p >= vecMinLen {
		_ = b[4*p-1]
		axpy4AVX2(&orow[0], &b[0], p, a0, a1, a2, a3)
		return
	}
	axpy4Generic(orow, b, a0, a1, a2, a3)
}

func axpy1(orow, brow []float64, av float64) {
	if p := len(orow); useAsm && p >= vecMinLen {
		_ = brow[p-1]
		axpy1AVX2(&orow[0], &brow[0], p, av)
		return
	}
	axpy1Generic(orow, brow, av)
}

func binSame(od, ad, bd []float64, op binOp) {
	n := len(ad)
	if !useAsm || n < vecMinLen {
		binSameGeneric(od, ad, bd, op)
		return
	}
	_, _ = od[n-1], bd[n-1]
	switch op {
	case binAdd:
		vecAddAVX2(&od[0], &ad[0], &bd[0], n)
	case binSub:
		vecSubAVX2(&od[0], &ad[0], &bd[0], n)
	case binMul:
		vecMulAVX2(&od[0], &ad[0], &bd[0], n)
	case binDiv:
		vecDivAVX2(&od[0], &ad[0], &bd[0], n)
	}
}

func relu(dst, x []float64) {
	if n := len(x); useAsm && n >= vecMinLen {
		_ = dst[n-1]
		vecReLUAVX2(&dst[0], &x[0], n)
		return
	}
	reluGeneric(dst, x)
}

func leakyReLU(dst, x []float64, slope float64) {
	if n := len(x); useAsm && n >= vecMinLen {
		_ = dst[n-1]
		vecLeakyReLUAVX2(&dst[0], &x[0], n, slope)
		return
	}
	leakyReLUGeneric(dst, x, slope)
}

func actGrad(dst, g, x []float64, slope float64) {
	if n := len(x); useAsm && n >= vecMinLen {
		_, _ = dst[n-1], g[n-1]
		vecActGradAVX2(&dst[0], &g[0], &x[0], n, slope)
		return
	}
	actGradGeneric(dst, g, x, slope)
}

func allFinite(data []float64) bool {
	if useAsm && len(data) >= vecMinLen {
		return allFiniteAVX2(&data[0], len(data))
	}
	return allFiniteGeneric(data)
}

func countZeroClasses(data []float64) (posZero, zero, one int) {
	if useAsm && len(data) >= vecMinLen {
		return countZeroClassesAVX2(&data[0], len(data))
	}
	return countZeroClassesGeneric(data)
}

func adamStep(w, g, m, v []float64, c *adamCoefs) {
	if n := len(w); useAsm && n >= vecMinLen {
		_, _, _ = g[n-1], m[n-1], v[n-1]
		adamStepAVX2(&w[0], &g[0], &m[0], &v[0], n, c.decay, c.beta1, c.oneMinusBeta1, c.beta2, c.oneMinusBeta2,
			c.bc1, c.bc2, c.lr, c.eps, c.div1, c.div2)
		return
	}
	adamStepGeneric(w, g, m, v, c)
}

// The MatMulTB tile: dotPanelRows rows of a against dotPanelCols rows of b
// per call, eight 4-lane accumulators.
const (
	dotPanelRows = 8
	dotPanelCols = 4
	// dotPanelMinRows: a trailing block with fewer rows than this goes to
	// the Go loop instead of a zero-padded panel. The Go loop runs four
	// independent scalar chains, so for one or two rows it does no more
	// work than the eight lanes would.
	dotPanelMinRows = 3
	// dotPanelMinK: below this reduction length a call is all overhead.
	dotPanelMinK = 8
)

// matmulTBRange computes rows [lo,hi) of dst = a*bᵀ. A dot product is a
// sequential chain, so the vector path runs many of them side by side
// instead of splitting one: eight rows of a are packed transposed into a
// pooled panel (panel[k*8+r] = a[i0+r][k], released before returning), and
// for every four rows of b the routine broadcasts b[j][k] against the
// panel, giving each of the 32 outputs its own lane and the scalar loop's
// ascending-k sum from zero.
func matmulTBRange(dst, a, b *Dense, lo, hi int) {
	n, p := a.cols, b.rows
	if !useAsm || n < dotPanelMinK || hi-lo < dotPanelMinRows {
		matmulTBRangeGeneric(dst, a, b, lo, hi)
		return
	}
	ad, bd, od := a.data, b.data, dst.data
	panel := newPooledNoZero(n, dotPanelRows)
	pd := panel.data
	var out [dotPanelRows * dotPanelCols]float64
	i0 := lo
	for ; hi-i0 >= dotPanelMinRows; i0 += dotPanelRows {
		rows := min(dotPanelRows, hi-i0)
		for r := 0; r < rows; r++ {
			for k, v := range ad[(i0+r)*n : (i0+r+1)*n] {
				pd[k*dotPanelRows+r] = v
			}
		}
		// Lanes past the last row are computed and dropped; zero them so
		// they never hold a stale denormal or NaN that slows the unit down.
		for r := rows; r < dotPanelRows; r++ {
			for k := 0; k < n; k++ {
				pd[k*dotPanelRows+r] = 0
			}
		}
		for j := 0; j < p; j += dotPanelCols {
			// Past the last b row the extra columns recompute row p-1
			// and are not stored.
			j1, j2, j3 := min(j+1, p-1), min(j+2, p-1), min(j+3, p-1)
			dotPanel8x4AVX2(&out, &pd[0], &bd[j*n], &bd[j1*n], &bd[j2*n], &bd[j3*n], n)
			cols := min(dotPanelCols, p-j)
			for c := 0; c < cols; c++ {
				for r := 0; r < rows; r++ {
					od[(i0+r)*p+j+c] = out[c*dotPanelRows+r]
				}
			}
		}
	}
	panel.Release()
	if i0 < hi {
		matmulTBRangeGeneric(dst, a, b, i0, hi)
	}
}

// maskedLeftPack[m] is the VPERMD index vector that moves the 64-bit lanes
// named by the bits of m to the front, in order (a lane is two of VPERMD's
// 32-bit elements); maskedAdvance[m] is the bytes those lanes fill.
var maskedLeftPack, maskedAdvance = func() (perm [16][8]uint32, adv [16]uint8) {
	for m := range perm {
		k := 0
		for lane := 0; lane < 4; lane++ {
			if m>>lane&1 != 0 {
				perm[m][2*k], perm[m][2*k+1] = uint32(2*lane), uint32(2*lane+1)
				k++
			}
		}
		adv[m] = uint8(8 * k)
	}
	return perm, adv
}()

// packMasked gives the float64 form's whole groups of eight elements to the
// vector routine and whatever it leaves — the last n%8 elements, the float32
// form, or everything once values has run out of room — to the Go loop, whose
// bounds checks then report the shortage.
func packMasked(presence, sign, values []byte, data []float64, f32 bool) int {
	if !useAsm || f32 || len(data) < 8 {
		return packMaskedGeneric(presence, sign, values, data, f32)
	}
	_, _ = presence[len(data)/8-1], sign[len(data)/8-1]
	done, used := packMaskedAVX2(&presence[0], &sign[0], &values[0], len(values), &data[0], len(data)&^7, &maskedLeftPack, &maskedAdvance)
	return used + packMaskedGeneric(presence[done/8:], sign[done/8:], values[used:], data[done:], false)
}

// vecSlice gives whole groups of four to vec (logAVX2 or expAVX2) when on,
// which stops at the first group holding a lane its sequence does not cover
// (one archLog or archExp sends down a branch of its own) and reports how
// far it got. That group goes to scalar (the math loop) one element at a
// time, vec resumes after it, and the last len%4 elements go to scalar too.
func vecSlice(dst, x []float64, on bool, vec func(dst, x *float64, n int) int, scalar func(dst, x []float64)) {
	i, n := 0, len(x)
	if on {
		for n-i >= vecMinLen {
			i += vec(&dst[i], &x[i], n-i)
			if n-i >= vecMinLen {
				scalar(dst[i:i+vecMinLen], x[i:i+vecMinLen])
				i += vecMinLen
			}
		}
	}
	scalar(dst[i:], x[i:])
}

func logSlice(dst, x []float64) { vecSlice(dst, x, useAsm, logAVX2, logGeneric) }

func expSlice(dst, x []float64) { vecSlice(dst, x, expVector(), expAVX2, expGeneric) }
