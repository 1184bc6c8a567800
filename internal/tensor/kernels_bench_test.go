package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

// The kernel bench table behind BENCH_layers.json (make bench-layers): one
// row per product and shape, each run on every kernel path this machine has
// (sub-benchmarks /asm and /go), reporting GFLOP/s next to ns/op. The square
// sizes expose cache-blocking behaviour; the named shapes are the products a
// paper-scale federated round is made of (block 256, pac 10, batch 250, so
// D^t sees 25 rows and a (256+cv)*10 = 3060-wide first layer) plus the
// generator-side 250-row product; the tall-narrow ones are a client's share
// of a full-table real pass (5000 rows through 12-to-18-column layers, a
// 40-column encoded input) and the same layers at batch size.

type benchShape struct{ m, k, n int }

func (s benchShape) String() string { return fmt.Sprintf("%dx%dx%d", s.m, s.k, s.n) }

var benchShapes = []benchShape{
	{32, 32, 32}, {64, 64, 64}, {128, 128, 128}, {256, 256, 256}, {512, 512, 512}, {1024, 1024, 1024},
	{250, 256, 256},
	{25, 3060, 256}, // forward through D^t's first layer (MatMul)
	{25, 256, 3060}, // its input gradient, 25x256 · (3060x256)ᵀ (MatMulTB)
	{3060, 25, 256}, // its weight gradient, (25x3060)ᵀ · 25x256 (MatMulTA)
	{5000, 17, 17}, {5000, 40, 17}, {5000, 16, 16}, {500, 17, 17}, {17, 5000, 17},
	{64, 90, 64}, {64, 33, 35}, // the rows-* generator's layers at batch 64
	{250, 154, 256}, {250, 420, 33}, // paper-scale generator layers at batch 250
}

// benchProduct benchmarks op over every shape and path. mk builds the two
// operands of an m×k·k×n product in the layout op wants.
func benchProduct(b *testing.B, op func(x, y *Dense) *Dense, mk func(rng *rand.Rand, s benchShape) (x, y *Dense)) {
	for _, s := range benchShapes {
		for _, path := range KernelPaths() {
			b.Run(s.String()+"/"+path, func(b *testing.B) {
				UseKernelPath(b, path)
				x, y := mk(rand.New(rand.NewSource(1)), s)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					op(x, y).Release()
				}
				flops := 2 * float64(s.m) * float64(s.k) * float64(s.n) * float64(b.N)
				b.ReportMetric(flops/b.Elapsed().Seconds()/1e9, "GFLOP/s")
			})
		}
	}
}

func BenchmarkMatMul(b *testing.B) {
	benchProduct(b, MatMul, func(rng *rand.Rand, s benchShape) (*Dense, *Dense) {
		return Randn(rng, s.m, s.k, 0, 1), Randn(rng, s.k, s.n, 0, 1)
	})
}

// BenchmarkAffine is MatMul with the bias row folded in: what a Linear
// layer's forward runs.
func BenchmarkAffine(b *testing.B) {
	var bias *Dense
	benchProduct(b, func(x, y *Dense) *Dense { return Affine(x, y, bias) }, func(rng *rand.Rand, s benchShape) (*Dense, *Dense) {
		bias = Randn(rng, 1, s.n, 0, 1)
		return Randn(rng, s.m, s.k, 0, 1), Randn(rng, s.k, s.n, 0, 1)
	})
}

func BenchmarkMatMulTA(b *testing.B) {
	benchProduct(b, MatMulTA, func(rng *rand.Rand, s benchShape) (*Dense, *Dense) {
		return Randn(rng, s.k, s.m, 0, 1), Randn(rng, s.k, s.n, 0, 1)
	})
}

func BenchmarkMatMulTB(b *testing.B) {
	benchProduct(b, MatMulTB, func(rng *rand.Rand, s benchShape) (*Dense, *Dense) {
		return Randn(rng, s.m, s.k, 0, 1), Randn(rng, s.n, s.k, 0, 1)
	})
}

// BenchmarkTransposeMatMul is the unfused form MatMulTA replaces; kept so
// the fused speedup stays measurable in one run.
func BenchmarkTransposeMatMul(b *testing.B) {
	for _, n := range []int{256, 512} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			x := Randn(rng, n, n, 0, 1)
			y := Randn(rng, n, n, 0, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				xt := x.Transpose()
				MatMul(xt, y).Release()
				xt.Release()
			}
		})
	}
}

func BenchmarkTranspose(b *testing.B) {
	for _, n := range []int{256, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			x := Randn(rng, n, n, 0, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				x.Transpose().Release()
			}
		})
	}
}

// BenchmarkElementwise is the same-shape loop (binSame) on both paths, at
// the activation sizes of a round: 25x3060, 250x256 and one large operand;
// then the activation rows (benchActivations).
func BenchmarkElementwise(b *testing.B) {
	for _, sh := range []struct{ r, c int }{{25, 3060}, {250, 256}, {1024, 1024}} {
		for _, op := range []struct {
			name string
			op   binOp
		}{{"Add", binAdd}, {"Sub", binSub}, {"Mul", binMul}, {"Div", binDiv}} {
			for _, path := range KernelPaths() {
				b.Run(fmt.Sprintf("%s/%dx%d/%s", op.name, sh.r, sh.c, path), func(b *testing.B) {
					UseKernelPath(b, path)
					rng := rand.New(rand.NewSource(1))
					x := Randn(rng, sh.r, sh.c, 0, 1)
					y := Randn(rng, sh.r, sh.c, 0, 1)
					dst := New(sh.r, sh.c)
					b.SetBytes(int64(3 * 8 * sh.r * sh.c))
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						binInto(dst, x, y, op.op)
					}
				})
			}
		}
	}
	benchActivations(b)
}

// benchActivations is the activation layer of a critic block and what
// surrounds it — LeakyReLU, its gradient, dropout — at the full-pass and the
// paper-scale activation sizes, each fused op beside the composition it
// replaced (/closure: Apply with a branch; an Apply-built mask and a Mul; a
// drawn mask in a fresh matrix and a Mul). Bytes are the operands read and
// the result written once; allocs/op shows the masks.
func benchActivations(b *testing.B) {
	const slope, keep = 0.2, 0.5
	for _, sh := range []struct{ r, c int }{{5000, 17}, {250, 256}} {
		rng := rand.New(rand.NewSource(1))
		x := Randn(rng, sh.r, sh.c, 0, 1)
		g := Randn(rng, sh.r, sh.c, 0, 1)
		run := func(name, path string, operands int, f func()) {
			b.Run(fmt.Sprintf("%s/%dx%d/%s", name, sh.r, sh.c, path), func(b *testing.B) {
				if path == "asm" || path == "go" {
					UseKernelPath(b, path)
				}
				b.ReportAllocs()
				b.SetBytes(int64(operands * 8 * sh.r * sh.c))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					f()
				}
			})
		}
		for _, path := range KernelPaths() {
			run("ReLU", path, 2, func() { ReLU(x).Release() })
			run("LeakyReLU", path, 2, func() { LeakyReLU(x, slope).Release() })
			run("ActGrad", path, 3, func() { ActGrad(g, x, slope).Release() })
		}
		run("LeakyReLU", "closure", 2, func() {
			x.Apply(func(v float64) float64 {
				if v > 0 {
					return v
				}
				return slope * v
			}).Release()
		})
		run("ActGrad", "closure", 3, func() {
			mask := x.Apply(func(v float64) float64 {
				if v > 0 {
					return 1
				}
				return slope
			})
			Mul(g, mask).Release() // the mask sat behind a Const leaf: never released
		})
		run("Dropout", "fused", 3, func() {
			out, mask := Dropout(rng, x, keep)
			out.Release()
			mask.Release()
		})
		run("Dropout", "closure", 3, func() {
			mask := New(sh.r, sh.c)
			for i := range mask.data {
				if rng.Float64() < keep {
					mask.data[i] = 1 / keep
				}
			}
			Mul(x, mask).Release()
		})
	}
}

// BenchmarkAllFinite is the scan every accumulating product runs over its
// right operand first; 3060x256 is D^t's first-layer weight.
func BenchmarkAllFinite(b *testing.B) {
	for _, path := range KernelPaths() {
		b.Run("3060x256/"+path, func(b *testing.B) {
			UseKernelPath(b, path)
			x := Randn(rand.New(rand.NewSource(1)), 3060, 256, 0, 1)
			b.SetBytes(int64(8 * len(x.data)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !allFinite(x.data) {
					b.Fatal("finite data reported non-finite")
				}
			}
		})
	}
}

// BenchmarkAdamStep is one optimizer update of D^t's first-layer weight at
// the paper's configuration ((256+cv)·10 = 2820 rows of 256) and of a
// 256-wide bias, CTGAN's hyperparameters at a step past the first exact-one
// crossover, as every step after round 11 of paper-fed is: two divisions and
// a square root an element.
func BenchmarkAdamStep(b *testing.B) {
	h := AdamHyper{LR: 2e-4, Beta1: 0.5, Beta2: 0.9, Eps: 1e-8, WeightDecay: 1e-6}
	for _, sh := range []struct{ r, c int }{{2820, 256}, {1, 256}} {
		for _, path := range KernelPaths() {
			b.Run(fmt.Sprintf("%dx%d/%s", sh.r, sh.c, path), func(b *testing.B) {
				UseKernelPath(b, path)
				rng := rand.New(rand.NewSource(1))
				w := Randn(rng, sh.r, sh.c, 0, 0.1)
				g := Randn(rng, sh.r, sh.c, 0, 1)
				m, v := New(sh.r, sh.c), New(sh.r, sh.c)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					AdamStep(w, g, m, v, h, 100)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(sh.r*sh.c), "ns/element")
			})
		}
	}
}

func BenchmarkBroadcastAdd(b *testing.B) {
	for _, n := range []int{32, 128, 512, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			x := Randn(rng, n, n, 0, 1)
			y := Randn(rng, 1, n, 0, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Add(x, y).Release()
			}
		})
	}
}
