package autograd

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// BenchmarkMatMulBackward measures one forward+backward of a single matmul
// with tape recycling — the allocs/op column is the headline number for the
// buffer-reuse work (the seed engine sat at 35 allocs/op here).
func BenchmarkMatMulBackward(b *testing.B) {
	for _, n := range []int{128, 256, 512} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			a := Var(tensor.Randn(rng, n, n, 0, 1))
			x := Var(tensor.Randn(rng, n, n, 0, 1))
			seed := Const(tensor.Full(n, n, 1))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				y := MatMul(a, x)
				grads := GradWithSeed(y, seed, a, x)
				Release(y, grads[0], grads[1])
			}
		})
	}
}

// BenchmarkLinearStep is a Linear-layer-shaped training step at CTGAN scale
// (batch 128, width 256): fused affine forward, backward, tape release.
func BenchmarkLinearStep(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := Const(tensor.Randn(rng, 128, 256, 0, 1))
	w := Var(tensor.Randn(rng, 256, 256, 0, 1))
	bias := Var(tensor.Randn(rng, 1, 256, 0, 1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		loss := SumAll(Square(Affine(x, w, bias)))
		grads := Grad(loss, w, bias)
		Release(loss, grads[0], grads[1])
	}
}

// BenchmarkFullPassStep is one client's share of a full-table real pass and
// the critic step that follows it (the faithful index-privacy mode): 5000
// rows of a 20-column encoded table through the bottom discriminator of a
// four-party split — Linear, LeakyReLU, then two blocks of Linear, LeakyReLU,
// Dropout, 17 columns wide — backward from a gradient of the output's shape
// to every weight, and the release. allocs/op and B/op are the point: every
// activation, mask and gradient buffer should come from the pool and go
// back.
func BenchmarkFullPassStep(b *testing.B) {
	const rows, in, width = 5000, 20, 17
	rng := rand.New(rand.NewSource(1))
	x := Const(tensor.Randn(rng, rows, in, 0, 1))
	seed := Const(tensor.Randn(rng, rows, width, 0, 1))
	ps := []*Value{
		Var(tensor.Randn(rng, in, width, 0, 0.3)), Var(tensor.Randn(rng, 1, width, 0, 0.3)),
		Var(tensor.Randn(rng, width, width, 0, 0.3)), Var(tensor.Randn(rng, 1, width, 0, 0.3)),
		Var(tensor.Randn(rng, width, width, 0, 0.3)), Var(tensor.Randn(rng, 1, width, 0, 0.3)),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := LeakyReLU(Affine(x, ps[0], ps[1]), 0.2)
		h = Dropout(LeakyReLU(Affine(h, ps[2], ps[3]), 0.2), rng, 0.5)
		h = Dropout(LeakyReLU(Affine(h, ps[4], ps[5]), 0.2), rng, 0.5)
		grads := GradWithSeed(h, seed, ps...)
		var tape Tape
		tape.Track(h)
		tape.Track(grads...)
		tape.Release()
	}
}
