package gmm

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Responsibilities and SampleMode are the one-value forms of Block and
// DrawMode the tests and the reference comparison use; the encoder calls the
// block forms.

// Responsibilities writes the posterior probability of each component for x
// into out, whose length must be the model's K.
func (p Posterior) Responsibilities(x float64, out []float64) {
	xs := [1]float64{x}
	p.Block(xs[:], out)
}

// SampleMode draws a component index from the posterior over components
// given x. scratch needs room for K values and is overwritten.
func (p Posterior) SampleMode(rng *rand.Rand, x float64, scratch []float64) int {
	resp := scratch[:len(p.logW)]
	p.Responsibilities(x, resp)
	return DrawMode(rng, resp)
}

// blockCase decodes a fuzz input into a posterior problem: k components and n
// values, each parameter and value picked by one byte of raw (read cyclically,
// zeros when raw is empty) from a small alphabet that reaches the edges —
// a dead component (weight 0, so log w = −Inf), a zero std (log σ = −Inf and
// d = ±Inf, or NaN where x = μ: NaN logits), stds from 1e-3 to 1e3, means
// ±64 and values up to ±96 (shifts far below −708, where an Exp lane takes
// the scalar fallback), ±0 and ±1e300 (d·d = +Inf, every logit −Inf, NaN
// posteriors).
func blockCase(raw []byte, k, n int) (xs, means, stds, logW, logStd []float64) {
	at := 0
	next := func() byte {
		if len(raw) == 0 {
			return 0
		}
		b := raw[at%len(raw)]
		at++
		return b
	}
	means, stds = make([]float64, k), make([]float64, k)
	logW, logStd = make([]float64, k), make([]float64, k)
	for c := 0; c < k; c++ {
		means[c] = float64(int8(next())) / 2
		switch b := next(); b {
		case 0:
			stds[c] = 0
		case 1:
			stds[c] = 1e-3
		case 2:
			stds[c] = 1e3
		default:
			stds[c] = 0.25 + float64(b)/32
		}
		w := float64(next()) / 255 // 0: a dead component
		logW[c], logStd[c] = math.Log(w), math.Log(stds[c])
	}
	xs = make([]float64, n)
	for i := range xs {
		switch b := next(); b {
		case 0:
			xs[i] = 0
		case 1:
			xs[i] = math.Copysign(0, -1)
		case 2:
			xs[i] = 1e300
		case 3:
			xs[i] = -1e300
		default:
			xs[i] = float64(int8(b)) * 0.75
		}
	}
	return xs, means, stds, logW, logStd
}

// checkPosteriorBlock requires posteriors — with and without maxLog and
// sum — to give every value posterior's responsibilities, maximum and sum,
// compared by math.Float64bits (NaN included).
func checkPosteriorBlock(xs, means, stds, logW, logStd []float64) error {
	k, n := len(logW), len(xs)
	resp, maxLog, sum := make([]float64, n*k), make([]float64, n), make([]float64, n)
	posteriors(xs, means, stds, logW, logStd, resp, maxLog, sum)
	respOnly := make([]float64, n*k)
	posteriors(xs, means, stds, logW, logStd, respOnly, nil, nil)
	want := make([]float64, k)
	for i, x := range xs {
		wantMax, wantSum := posterior(x, means, stds, logW, logStd, want)
		what := fmt.Sprintf("value %d of %d (x = %v, k = %d)", i, n, x, k)
		if err := sameBits(what+": block responsibilities", resp[i*k:i*k+k], want); err != nil {
			return err
		}
		if err := sameBits(what+": responsibilities without max and sum", respOnly[i*k:i*k+k], want); err != nil {
			return err
		}
		if err := sameBits(what+": max and sum", []float64{maxLog[i], sum[i]}, []float64{wantMax, wantSum}); err != nil {
			return err
		}
	}
	return nil
}

// FuzzPosteriorBlock holds the block form — the vector routine on whole
// groups of four where this build and CPU have it, posterior on the rest — to
// the per-value posterior, bit for bit, over block lengths 1 to 130 (past one
// 64-value block) and 1 to 16 components (past the vector routine's 12).
func FuzzPosteriorBlock(f *testing.F) {
	spread := []byte{7, 40, 200, 250, 9, 30, 130, 66, 180, 4, 100, 17, 90, 220, 55}
	for _, n := range []uint8{1, 2, 3, 4, 5, 6, 7, 8, 9, 63, 64, 65} {
		for _, k := range []uint8{1, 4, 10, 12, 13, 16} {
			f.Add(spread, k-1, n-1)
		}
	}
	// ±0 and ±1e300 among ordinary values, with and without a dead
	// component (mean, std, weight bytes, then the values).
	f.Add([]byte{10, 40, 200, 250, 60, 0, 0, 1, 2, 3, 50, 250}, uint8(1), uint8(11))
	f.Add([]byte{10, 40, 200, 20, 60, 90, 0, 1, 2, 3, 50, 250, 9}, uint8(1), uint8(7))
	// A zero std in the last component: NaN logits (0/0 where x = μ, −Inf −
	// (−Inf) elsewhere) after a finite one, which the maximum must keep.
	f.Add([]byte{240, 40, 100, 60, 0, 200, 40, 20, 30, 40, 50, 60}, uint8(1), uint8(15))
	// Far-apart components: every value has shifts below −708 in some lane.
	f.Add([]byte{128, 1, 255, 127, 1, 255, 200, 7, 127, 129, 20, 236}, uint8(1), uint8(63))
	f.Fuzz(func(t *testing.T, raw []byte, k, n uint8) {
		xs, means, stds, logW, logStd := blockCase(raw, int(k%16)+1, int(n%130)+1)
		if err := checkPosteriorBlock(xs, means, stds, logW, logStd); err != nil {
			t.Fatal(err)
		}
	})
}
