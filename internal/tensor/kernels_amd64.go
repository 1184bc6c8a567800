package tensor

import "math"

// amd64 side of the kernel layer: CPU detection, the declarations of the
// AVX2 routines in kernels_amd64.s, exp_amd64.s and mixture_amd64.s, and the
// entry points the portable code calls (tileAcc, matmulTBRange, binSame,
// relu, leakyReLU, actGrad, allFinite, countZeroClasses, classifyBits,
// packMasked, adamStep, logSlice, expSlice, gmmPosteriors, gmmSums,
// gmmSpread, int31nDraws), each of which picks the vector routine or the Go
// loop it is bit-identical to. (The mixture routines and int31nDraws pick the
// routine or nothing: their callers run the Go loops themselves.)

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
func rowAccAVX2(dst, seed, a *float64, stride, kn int, b *float64, ldb, p int, bFinite bool)

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
func classifyBitsAVX2(nz, one *uint64, data *float64, words int, first uint64) (same bool)

//go:noescape
func adamStepAVX2(w, grad, m, v *float64, n int, decay, beta1, oneMinusBeta1, beta2, oneMinusBeta2, bc1, bc2, lr, eps float64, div1, div2 bool)

//go:noescape
func gmmLogitsAVX2(s, maxLog, x *float64, n, k int, means, stds, logW, logStd *float64, halfLog2Pi float64)

//go:noescape
func gmmNormalizeAVX2(resp, sum, s *float64, n, k int)

//go:noescape
func gmmSumsAVX2(nk, mu, resp, x *float64, n, k int, mask *[gmmMaxK]uint64)

//go:noescape
func gmmSpreadAVX2(va, mu, resp, x *float64, n, k int, mask *[gmmMaxK]uint64)

//go:noescape
func int31nAVX2(js *uint32, xs *uint64, n, lo int) (done int)

//go:noescape
func packMaskedAVX2(presence, sign, values *byte, room int, data *float64, n int, perm *[16][8]uint32, adv *[16]uint8) (done, used int)

// tileAcc adds the products of all kN rows of b to rows [lo,hi) of dst (see
// tileAccGeneric, the loop it must agree with bit for bit). A row of
// vecMinLen or more columns is cut into the fewest chunks of at most
// chunkMaxCols: whole vectors each, spread evenly, the last chunk ending in
// the row's partial vector if it has one, so that the overlapping last vector
// of rowAccAVX2 stays inside its chunk and no column is taken from dst twice.
// The chunks run one after the other, each over k tiles sized for its width;
// within a tile every row takes one call that keeps its chunk in registers
// across the whole tile. A row of up to chunkMaxCols columns is one chunk.
func tileAcc(od []float64, p int, seed, a []float64, rowStride, kStride, kN int, b []float64, lo, hi int, bFinite bool) {
	if !useAsm || p < vecMinLen {
		tileAccGeneric(od, p, seed, a, rowStride, kStride, kN, b, lo, hi, bFinite)
		return
	}
	if kN == 0 || lo >= hi {
		return
	}
	_, _ = b[kN*p-1], a[(hi-1)*rowStride+(kN-1)*kStride]
	vecs := (p + 3) / 4
	chunks := (vecs + chunkMaxCols/4 - 1) / (chunkMaxCols / 4)
	for c := 0; c < chunks; c++ {
		c0, c1 := 4*(vecs*c/chunks), min(4*(vecs*(c+1)/chunks), p)
		kc, from := kTile(c1-c0), seed
		for kk := 0; kk < kN; kk += kc {
			kn, bt := min(kc, kN-kk), b[kk*p+c0:]
			for i := lo; i < hi; i++ {
				orow := od[i*p+c0 : i*p+c1]
				src := orow
				if from != nil {
					src = from[c0:c1]
				}
				rowAccAVX2(&orow[0], &src[0], &a[i*rowStride+kk*kStride], kStride, kn, &bt[0], p, c1-c0, bFinite)
			}
			from = nil
		}
	}
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

// classifyBits gives the whole 64-value words to the vector routine and the
// last partial word, if any, to the Go loop.
func classifyBits(nz, one []uint64, data []float64, first uint64) bool {
	words := len(data) / 64
	if !useAsm || words == 0 {
		return classifyBitsGeneric(nz, one, data, first)
	}
	_, _ = nz[words-1], one[words-1]
	same := classifyBitsAVX2(&nz[0], &one[0], &data[0], words, first)
	return classifyBitsGeneric(nz[words:], one[words:], data[64*words:], first) && same
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

// vecSlice gives whole groups of four to logAVX2, or expAVX2 when exp is
// set, if on. The routine stops at the first group holding a lane its
// sequence does not cover (one archLog or archExp sends down a branch of its
// own) and reports how far it got. That group goes to the math loop
// (logGeneric or expGeneric) one element at a time, the routine resumes after
// it, and the last len%4 elements go to the math loop too. The calls are
// direct, not through function values, so dst and x do not escape: a caller's
// stack scratch stays on the stack.
func vecSlice(dst, x []float64, on, exp bool) {
	i, n := 0, len(x)
	for on && n-i >= vecMinLen {
		if exp {
			i += expAVX2(&dst[i], &x[i], n-i)
		} else {
			i += logAVX2(&dst[i], &x[i], n-i)
		}
		if n-i >= vecMinLen {
			mathSlice(dst[i:i+vecMinLen], x[i:i+vecMinLen], exp)
			i += vecMinLen
		}
	}
	mathSlice(dst[i:], x[i:], exp)
}

func mathSlice(dst, x []float64, exp bool) {
	if exp {
		expGeneric(dst, x)
	} else {
		logGeneric(dst, x)
	}
}

func logSlice(dst, x []float64) { vecSlice(dst, x, useAsm, false) }

func expSlice(dst, x []float64) { vecSlice(dst, x, expVector(), true) }

// gmmPosteriors is GMMPosteriors: whole blocks of gmmBlock values (the last
// one shorter, a multiple of four) through the logits routine, one Exp and
// the normalizing routine, with the block's logits in a stack scratch.
func gmmPosteriors(resp, maxLog, sum, x, means, stds, logW, logStd []float64, halfLog2Pi float64) int {
	k, n := len(logW), len(x)&^3
	if !useAsm || k == 0 || k > gmmMaxK || n == 0 {
		return 0
	}
	_, _, _, _ = resp[n*k-1], means[k-1], stds[k-1], logStd[k-1]
	var s [gmmBlock * gmmMaxK]float64
	var ml, sm [gmmBlock]float64
	for lo := 0; lo < n; lo += gmmBlock {
		b := min(gmmBlock, n-lo)
		gmmLogitsAVX2(&s[0], &ml[0], &x[lo], b, k, &means[0], &stds[0], &logW[0], &logStd[0], halfLog2Pi)
		expSlice(s[:b*k], s[:b*k])
		gmmNormalizeAVX2(&resp[lo*k], &sm[0], &s[0], b, k)
		if maxLog != nil {
			copy(maxLog[lo:lo+b], ml[:b])
		}
		if sum != nil {
			copy(sum[lo:lo+b], sm[:b])
		}
	}
	return n
}

func gmmSums(nk, mu, resp, x []float64) bool {
	k, n := len(nk), len(x)
	if !useAsm || k == 0 || k > gmmMaxK || n == 0 {
		return false
	}
	_, _ = mu[k-1], resp[n*k-1]
	mask := gmmMask(k)
	gmmSumsAVX2(&nk[0], &mu[0], &resp[0], &x[0], n, k, &mask)
	return true
}

func gmmSpread(va, mu, resp, x []float64) bool {
	k, n := len(va), len(x)
	if !useAsm || k == 0 || k > gmmMaxK || n == 0 {
		return false
	}
	_, _ = mu[k-1], resp[n*k-1]
	mask := gmmMask(k)
	gmmSpreadAVX2(&va[0], &mu[0], &resp[0], &x[0], n, k, &mask)
	return true
}

// gmmMask is the M-step routines' load and store mask: all ones on the k
// components of a twelve-wide window, zero past them.
func gmmMask(k int) (m [gmmMaxK]uint64) {
	for c := 0; c < k; c++ {
		m[c] = ^uint64(0)
	}
	return m
}

func int31nDraws(js []uint32, xs []uint64, lo int) int {
	n := min(len(js), len(xs))
	if !useAsm || n < vecMinLen {
		return 0
	}
	return int31nAVX2(&js[0], &xs[0], n, lo)
}
