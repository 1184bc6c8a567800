package tensor

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"testing"
)

// Log and Exp against the math functions they promise to be: every element
// must carry math.Log's or math.Exp's bits, NaN payloads included, on every
// kernel path. Each special value is tried in every lane of a group, so a
// routine that lets one through, or falls back for the wrong group, fails.

// hsqrt2 is archLog's HSqrt2: a mantissa that lands exactly on it is the one
// place the NLT compare and Go's `f1 < Sqrt2/2` part ways.
const hsqrt2 = 7.07106781186547524401e-01

// logSpecials are the inputs archLog sends down a branch of its own, and
// positive denormals, which it does not.
var logSpecials = []float64{
	0, math.Copysign(0, -1), -1, -math.SmallestNonzeroFloat64, math.Inf(1), math.Inf(-1), math.NaN(),
	math.Float64frombits(0xFFF8000000000001), math.SmallestNonzeroFloat64, 0x1p-1030,
}

// expSpecials: NaN and the infinities, the overflow band around 709.78 (709.7
// is below Overflow with a biased exponent of 0x7FF, +Inf in a lane), the
// band archExp finishes with a denormal multiply (biased exponent −52…0),
// the band it sends to +0, and x·LOG2E past int32 (CVTSD2SL's
// integer-indefinite result).
var expSpecials = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), 709.78, 709.79, 710, 7.09782712893384e+02, 709.7,
	-708.5, -709.1, -720, -744.4, -745.1, -745.2, -750, -1000, -3e9, -1e300, -math.MaxFloat64, 3e9,
}

func requireMatchesMath(t *testing.T, name string, got, x []float64, ref func(float64) float64) {
	t.Helper()
	for i, v := range x {
		if w := ref(v); math.Float64bits(got[i]) != math.Float64bits(w) {
			t.Fatalf("%s(%v) (%#x) at %d of %d: got %v (%#x), math %v (%#x)",
				name, v, math.Float64bits(v), i, len(x), got[i], math.Float64bits(got[i]), w, math.Float64bits(w))
		}
	}
}

// checkLogExp runs f (Log or Exp) into a fresh slice and in place.
func checkLogExp(t *testing.T, name string, f func(dst, x []float64), ref func(float64) float64, x []float64) {
	t.Helper()
	dst := make([]float64, len(x))
	f(dst, x)
	requireMatchesMath(t, name, dst, x, ref)
	in := append([]float64(nil), x...)
	f(in, in)
	requireMatchesMath(t, name+" in place", in, x, ref)
}

// testAgainstMath drives f over lengths 0–67 of draw's values, every special
// in every position of a 12-element slice of them, and the values in extra.
func testAgainstMath(t *testing.T, name string, f func(dst, x []float64), ref func(float64) float64,
	draw func(*rand.Rand) float64, specials, extra []float64) {
	EachKernelPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(1))
		fill := func(n int) []float64 {
			x := make([]float64, n)
			for i := range x {
				x[i] = draw(rng)
			}
			return x
		}
		for n := 0; n <= 67; n++ {
			checkLogExp(t, fmt.Sprintf("%s len %d", name, n), f, ref, fill(n))
		}
		for _, s := range specials {
			for lane := 0; lane < 12; lane++ {
				x := fill(12)
				x[lane] = s
				checkLogExp(t, fmt.Sprintf("%s(%v) at %d", name, s, lane), f, ref, x)
			}
		}
		checkLogExp(t, name+" extra", f, ref, extra)
	})
}

func TestLogMatchesMath(t *testing.T) {
	// HSqrt2's mantissa and its two neighbours under every exponent field,
	// denormals included (only 0x1p32·HSqrt2 comes out differently when the
	// compare is NLE instead of NLT); values near 1, where f is tiny; the
	// Gumbel inner log's u and the outer log's −log u.
	var extra []float64
	for e := uint64(0); e < 0x7FF; e++ {
		for _, m := range []float64{math.Nextafter(hsqrt2, 0), hsqrt2, math.Nextafter(hsqrt2, 1)} {
			extra = append(extra, math.Float64frombits(e<<52|math.Float64bits(m)&(1<<52-1)))
		}
	}
	extra = append(extra, 1, math.Nextafter(1, 0), math.Nextafter(1, 2), 2, 0.5, math.MaxFloat64, 0x1p-1022, 1-0x1p-53, 0x1p-53)
	testAgainstMath(t, "Log", Log, math.Log, func(rng *rand.Rand) float64 {
		switch rng.Intn(3) {
		case 0:
			return rng.Float64()
		case 1:
			return -math.Log(rng.Float64())
		}
		return math.Float64frombits(rng.Uint64() >> 1) // any positive bit pattern, NaN and +Inf included
	}, logSpecials, extra)
}

func TestExpMatchesMath(t *testing.T) {
	var extra []float64
	for x := 709.0; x <= 711; x += 0.0625 {
		extra = append(extra, x)
	}
	for x := -750.0; x <= -706; x += 0.25 {
		extra = append(extra, x)
	}
	extra = append(extra, 0, math.Copysign(0, -1), 1e-300, -1e-300, 0x1p-1074, 1, -1, 88.7, -88.7)
	for _, bits := range expFusedStepInputs {
		extra = append(extra, math.Float64frombits(bits))
	}
	testAgainstMath(t, "Exp", Exp, math.Exp, func(rng *rand.Rand) float64 {
		switch rng.Intn(3) {
		case 0:
			return -30 * rng.Float64() // a softmax's v − max, a GMM logit's shift
		case 1:
			return 1500*rng.Float64() - 760
		}
		return rng.NormFloat64()
	}, expSpecials, extra)
}

// expFusedStepInputs are inputs on which archExp's FMA branch changes its
// result if one of its fused steps is done as a separately rounded multiply
// and add instead: the Taylor chain's 1/3!, 1/2 and 1 steps, two inputs each
// (a Go replay found them among 1.7·10⁸ draws). Its 1/7! to 1/4! steps and
// the k·LN2L reduction gave no such input in those draws,
// and the k·LN2U reduction cannot: LN2U ends in 21 zero bits, so the product
// is exact. The last step, fused with +1, is the branch table's.
var expFusedStepInputs = []uint64{
	0x3fd4745dd0e07172, 0xc0348e7886c9236e,
	0x407e2150bc7a14a0, 0xc05ff8267a4d6368,
	0x407dfce126018a60, 0xc0397d90ff4570dc,
}

// expBranchTable holds inputs on which archExp's two branches disagree in the
// last bit: the input, then the result of the FMA branch and of the branch
// with separately rounded products, as a Go replay of each computes them
// (92 781 of 10⁶ uniform draws in [−30, 0) disagree). The replay of the FMA
// branch matched math.Exp on all 10⁶ on an FMA CPU.
var expBranchTable = []struct{ x, fma, noFMA uint64 }{
	{0xc033efd23abc0b07, 0x3e22dc37e59be80b, 0x3e22dc37e59be80a},
	{0xc021960b663b8246, 0x3f23e501e9a6b85b, 0x3f23e501e9a6b85a},
	{0xc021963c1b9d08b3, 0x3f23e31d7c44d42e, 0x3f23e31d7c44d42f},
	{0xbfeb2bc408ba3be9, 0x3fdb611fc7bbbc21, 0x3fdb611fc7bbbc20},
	{0xc0303ba59a59fc5d, 0x3e77ee08b9343d55, 0x3e77ee08b9343d54},
	{0xc020ecc39aebd97b, 0x3f2bb0a5716d984f, 0x3f2bb0a5716d984e},
	{0xc03d4eb8b78ca96c, 0x3d4a5279862ecf71, 0x3d4a5279862ecf70},
	{0xc0346eae72cc3a99, 0x3e16fb0f34da5b4f, 0x3e16fb0f34da5b50},
	{0xc01cfb57f0f0115a, 0x3f476086c7281763, 0x3f476086c7281762},
	{0xc038081a4c5aac05, 0x3dc41b7fb1ae1f35, 0x3dc41b7fb1ae1f36},
	{0xc03bcf4236fb4543, 0x3d6d6e1d12e97691, 0x3d6d6e1d12e97692},
	{0xc03553c46b25230d, 0x3e02c85e136eb2c1, 0x3e02c85e136eb2c2},
	{0xc036acb97b4abb92, 0x3de3869fad125105, 0x3de3869fad125104},
	{0xc02ddf41149fb005, 0x3e95e2754a6a7f1f, 0x3e95e2754a6a7f20},
	{0xc03685dc3ae6bf0d, 0x3de6ba1d2e2ecd47, 0x3de6ba1d2e2ecd46},
	{0xc02de75622bd95ce, 0x3e958ab6d32dd2df, 0x3e958ab6d32dd2de},
}

// TestExpFollowsMathsBranch pins what Exp promises where math.Exp itself
// depends on the CPU. On amd64, math.Exp runs its FMA branch exactly where
// internal/cpu reports AVX and FMA; on the table's inputs the two branches
// differ, so the table says which one this process ran. hasFMA must agree
// with it, the vector Exp must be on exactly where useAsm and hasFMA hold,
// and on every kernel path Exp must return math.Exp's bits. On an FMA
// machine that shows the vector routine is the FMA branch;
// TestExpUnderGODEBUG runs this test again with the branch switched off.
// GODEBUG only clears math's view of the CPU, so no test here can stand in
// for a CPU without FMA, where the vector Exp is off and both paths call
// math.Exp.
func TestExpFollowsMathsBranch(t *testing.T) {
	x := make([]float64, len(expBranchTable))
	for i, row := range expBranchTable {
		x[i] = math.Float64frombits(row.x)
	}
	if runtime.GOARCH == "amd64" {
		fused := 0
		for _, row := range expBranchTable {
			switch math.Float64bits(math.Exp(math.Float64frombits(row.x))) {
			case row.fma:
				fused++
			case row.noFMA:
			default:
				t.Fatalf("math.Exp(%#x) is neither branch's result", row.x)
			}
		}
		if fused != 0 && fused != len(expBranchTable) {
			t.Fatalf("math.Exp took the FMA branch on %d of %d inputs", fused, len(expBranchTable))
		}
		if hasFMA != (fused > 0) {
			t.Fatalf("hasFMA is %v, math.Exp's branch says %v", hasFMA, fused > 0)
		}
		t.Logf("math.Exp runs its FMA branch: %v", fused > 0)
	}
	EachKernelPath(t, func(t *testing.T) {
		if want := useAsm && hasFMA; expVector() != want {
			t.Fatalf("vector Exp on: %v, want %v (useAsm %v, FMA %v)", expVector(), want, useAsm, hasFMA)
		}
		checkLogExp(t, "Exp", Exp, math.Exp, x)
	})
}

// TestExpUnderGODEBUG runs TestExpFollowsMathsBranch in a child process
// under each GODEBUG setting that turns math.Exp's FMA branch off on a CPU
// that has it. The child must see math.Exp's other branch, and Exp must
// follow it there.
func TestExpUnderGODEBUG(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("math.Exp has no CPU-dependent branch on " + runtime.GOARCH)
	}
	for _, setting := range []string{"cpu.fma=off", "cpu.avx=off"} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestExpFollowsMathsBranch$", "-test.v", "-test.count=1")
		cmd.Env = append(os.Environ(), "GODEBUG="+strings.TrimPrefix(os.Getenv("GODEBUG")+","+setting, ","))
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("GODEBUG=%s: %v\n%s", setting, err, out)
		}
		if !bytes.Contains(out, []byte("math.Exp runs its FMA branch: false")) {
			t.Fatalf("GODEBUG=%s: the child did not report math.Exp's non-FMA branch:\n%s", setting, out)
		}
	}
}

// FuzzLogExp reads the input as little-endian float64s and checks Log and
// Exp on both paths, on those bit patterns and on a second view of the same
// words as int32/2²¹ (±1024 in steps of 2⁻²¹: Exp's whole finite range, its
// overflow, denormal and +0 bands).
func FuzzLogExp(f *testing.F) {
	seed := func(vs ...float64) []byte {
		b := make([]byte, 8*len(vs))
		for i, v := range vs {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
		}
		return b
	}
	f.Add(seed(1, 2, 3, 4, 5))
	f.Add(seed(0.5, hsqrt2, -1, 0, math.Inf(1), math.NaN(), 1e-310, 709.8, -745.5))
	f.Add(seed(-3e9, -1, -2, -3, -4, -5, -6, -7, 710))
	f.Fuzz(func(t *testing.T, raw []byte) {
		n := len(raw) / 8
		bits, scaled := make([]float64, n), make([]float64, n)
		for i := range bits {
			u := binary.LittleEndian.Uint64(raw[8*i:])
			bits[i] = math.Float64frombits(u)
			scaled[i] = float64(int32(u)) / (1 << 21)
		}
		for _, path := range KernelPaths() {
			UseKernelPath(t, path)
			for _, x := range [][]float64{bits, scaled} {
				checkLogExp(t, path+" Log", Log, math.Log, x)
				checkLogExp(t, path+" Exp", Exp, math.Exp, x)
			}
		}
	})
}

// BenchmarkLogExp is Log and Exp over 4 096 elements on each kernel path, in
// ns an element: Log on the Gumbel draws' u, Exp on a softmax's shifted
// logits.
func BenchmarkLogExp(b *testing.B) {
	const n = 4096
	rng := rand.New(rand.NewSource(1))
	u, shifted := make([]float64, n), make([]float64, n)
	for i := range u {
		u[i] = rng.Float64()
		shifted[i] = -10 * rng.Float64()
	}
	dst := make([]float64, n)
	for _, fn := range []struct {
		name string
		f    func(dst, x []float64)
		x    []float64
	}{{"log", Log, u}, {"exp", Exp, shifted}} {
		for _, path := range KernelPaths() {
			b.Run(fn.name+"/"+path, func(b *testing.B) {
				UseKernelPath(b, path)
				for i := 0; i < b.N; i++ {
					fn.f(dst, fn.x)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/element")
			})
		}
	}
}
