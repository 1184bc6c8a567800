package gmm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

func logNormPDF(x, mean, std float64) float64 {
	d := (x - mean) / std
	return -0.5*d*d - math.Log(std) - 0.5*math.Log(2*math.Pi)
}

// The loops below are the EM as it stood before the E-step constants were
// hoisted, the responsibilities flattened and the initial quantiles selected
// rather than sorted: log w, log σ and log 2π per (row, component) pair, one
// responsibility row per sample, a pass per component in the M-step, a full
// sort in initModel. They are the specification. Fit must reproduce them bit
// for bit — same weights, means, stds, same log-likelihood at every
// iteration, same draws from rng — on the build the tests run on.

func fitReference(rng *rand.Rand, data []float64, cfg Config) (*Model, []float64, error) {
	if len(data) == 0 {
		return nil, nil, errors.New("gmm: empty data")
	}
	if cfg.MaxComponents <= 0 {
		return nil, nil, fmt.Errorf("gmm: MaxComponents %d must be positive", cfg.MaxComponents)
	}
	for _, v := range data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, nil, errors.New("gmm: data contains NaN or Inf")
		}
	}

	k := cfg.MaxComponents
	if k > len(data) {
		k = len(data)
	}

	m := initModelReference(rng, data, k)
	resp := make([][]float64, len(data)) // responsibilities, row per sample
	for i := range resp {
		resp[i] = make([]float64, k)
	}

	var lls []float64
	prevLL := math.Inf(-1)
	for iter := 0; iter < cfg.MaxIter; iter++ {
		ll := eStepReference(m, data, resp)
		lls = append(lls, ll)
		mStepReference(m, data, resp)
		if math.Abs(ll-prevLL) < cfg.Tol {
			break
		}
		prevLL = ll
	}

	m.prune(cfg.WeightThreshold)
	m.sortByMean()
	return m, lls, nil
}

func initModelReference(rng *rand.Rand, data []float64, k int) *Model {
	sorted := make([]float64, len(data))
	copy(sorted, data)
	sort.Float64s(sorted)

	_, std := meanStdReference(data)
	if std < minStd {
		std = minStd
	}

	m := &Model{
		Weights: make([]float64, k),
		Means:   make([]float64, k),
		Stds:    make([]float64, k),
	}
	for c := 0; c < k; c++ {
		q := (float64(c) + 0.5) / float64(k)
		idx := int(q * float64(len(sorted)))
		if idx >= len(sorted) {
			idx = len(sorted) - 1
		}
		m.Means[c] = sorted[idx] + rng.NormFloat64()*std*1e-3
		m.Stds[c] = std
		m.Weights[c] = 1 / float64(k)
	}
	return m
}

func eStepReference(m *Model, data []float64, resp [][]float64) float64 {
	var ll float64
	for i, x := range data {
		row := resp[i]
		maxLog := math.Inf(-1)
		for c := range m.Weights {
			row[c] = math.Log(m.Weights[c]) + logNormPDF(x, m.Means[c], m.Stds[c])
			if row[c] > maxLog {
				maxLog = row[c]
			}
		}
		var sum float64
		for c := range row {
			row[c] = math.Exp(row[c] - maxLog)
			sum += row[c]
		}
		for c := range row {
			row[c] /= sum
		}
		ll += maxLog + math.Log(sum)
	}
	return ll / float64(len(data))
}

func mStepReference(m *Model, data []float64, resp [][]float64) {
	k := len(m.Weights)
	n := float64(len(data))
	for c := 0; c < k; c++ {
		var nk, mu float64
		for i, x := range data {
			nk += resp[i][c]
			mu += resp[i][c] * x
		}
		if nk < 1e-10 {
			// Dead component: park it; prune removes it later.
			m.Weights[c] = 0
			continue
		}
		mu /= nk
		var va float64
		for i, x := range data {
			d := x - mu
			va += resp[i][c] * d * d
		}
		va /= nk
		m.Weights[c] = nk / n
		m.Means[c] = mu
		m.Stds[c] = math.Sqrt(va)
		if m.Stds[c] < minStd {
			m.Stds[c] = minStd
		}
	}
}

func responsibilitiesReference(m *Model, x float64) []float64 {
	out := make([]float64, m.K())
	maxLog := math.Inf(-1)
	for c := range out {
		out[c] = math.Log(m.Weights[c]) + logNormPDF(x, m.Means[c], m.Stds[c])
		if out[c] > maxLog {
			maxLog = out[c]
		}
	}
	var sum float64
	for c := range out {
		out[c] = math.Exp(out[c] - maxLog)
		sum += out[c]
	}
	for c := range out {
		out[c] /= sum
	}
	return out
}

func sampleModeReference(m *Model, rng *rand.Rand, x float64) int {
	resp := responsibilitiesReference(m, x)
	u := rng.Float64()
	var cum float64
	for c, p := range resp {
		cum += p
		if u < cum {
			return c
		}
	}
	return len(resp) - 1
}

func meanStdReference(data []float64) (float64, float64) {
	var mu float64
	for _, v := range data {
		mu += v
	}
	mu /= float64(len(data))
	var va float64
	for _, v := range data {
		d := v - mu
		va += d * d
	}
	va /= float64(len(data))
	return mu, math.Sqrt(va)
}

// ---- equality checks ----

func sameBits(what string, got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d values, reference has %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("%s[%d] = %v (%#x), reference %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
	return nil
}

func sameModel(got, want *Model) error {
	if err := sameBits("Weights", got.Weights, want.Weights); err != nil {
		return err
	}
	if err := sameBits("Means", got.Means, want.Means); err != nil {
		return err
	}
	return sameBits("Stds", got.Stds, want.Stds)
}

// checkFitMatchesReference runs Fit's steps beside the reference loops from
// equal RNG state and compares everything either of them produces: the
// initial model, each iteration's log-likelihood and parameters, the fitted
// model, both generators' next draw, and then posteriors and sampled modes
// of the data (and a few values off it) under the fitted model.
func checkFitMatchesReference(seed int64, data []float64, cfg Config) error {
	want, lls, wantErr := fitReference(rand.New(rand.NewSource(seed)), data, cfg)
	rng := rand.New(rand.NewSource(seed))
	got, err := Fit(rng, data, cfg)
	if (err == nil) != (wantErr == nil) {
		return fmt.Errorf("Fit error %v, reference error %v", err, wantErr)
	}
	if err != nil {
		return nil
	}
	if err := sameModel(got, want); err != nil {
		return fmt.Errorf("fitted model: %w", err)
	}

	// The same again step by step, so a divergence names its iteration.
	k := min(cfg.MaxComponents, len(data))
	refRng, newRng := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
	ref := initModelReference(refRng, data, k)
	var sum float64
	for _, v := range data {
		sum += v
	}
	e := newEM(data, initModel(newRng, data, k, stdAbout(data, sum/float64(len(data)))))
	if err := sameModel(e.m, ref); err != nil {
		return fmt.Errorf("initial model: %w", err)
	}
	if a, b := newRng.Int63(), refRng.Int63(); a != b {
		return fmt.Errorf("initModel left the generator elsewhere than the reference did")
	}
	resp := make([][]float64, len(data))
	for i := range resp {
		resp[i] = make([]float64, k)
	}
	for it, wantLL := range lls {
		ll, refLL := e.eStep(), eStepReference(ref, data, resp)
		if math.Float64bits(refLL) != math.Float64bits(wantLL) || math.Float64bits(ll) != math.Float64bits(wantLL) {
			return fmt.Errorf("iteration %d: log-likelihood %v, reference %v", it, ll, wantLL)
		}
		for i := range resp {
			if err := sameBits(fmt.Sprintf("iteration %d: resp[%d]", it, i), e.resp[i*k:i*k+k], resp[i]); err != nil {
				return err
			}
		}
		e.mStep()
		mStepReference(ref, data, resp)
		if err := sameModel(e.m, ref); err != nil {
			return fmt.Errorf("iteration %d: %w", it, err)
		}
	}

	// Posteriors and mode draws under the fitted model.
	post := got.Posterior()
	scratch, gotResp := make([]float64, got.K()), make([]float64, got.K())
	rngA, rngB := rand.New(rand.NewSource(seed+1)), rand.New(rand.NewSource(seed+1))
	xs := append([]float64{0, -1e9, 1e9, 1e300}, data...)
	if len(xs) > 2000 {
		xs = xs[:2000]
	}
	for _, x := range xs {
		wantResp := responsibilitiesReference(want, x)
		post.Responsibilities(x, gotResp)
		if err := sameBits(fmt.Sprintf("Responsibilities(%v)", x), gotResp, wantResp); err != nil {
			return err
		}
		wantMode := sampleModeReference(want, rngA, x)
		if mode := post.SampleMode(rngB, x, scratch); mode != wantMode {
			return fmt.Errorf("Posterior.SampleMode(%v) = %d, reference %d", x, mode, wantMode)
		}
	}
	if rngA.Int63() != rngB.Int63() {
		return fmt.Errorf("mode sampling consumed a different number of draws than the reference")
	}
	return nil
}

func TestFitMatchesReference(t *testing.T) {
	gen := rand.New(rand.NewSource(77))
	fill := func(n int, f func(i int) float64) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = f(i)
		}
		return out
	}
	cases := []struct {
		name string
		data []float64
	}{
		{"n=1", []float64{3.5}},
		{"n<k", []float64{1, 2, 3}},
		{"n=k", fill(10, func(i int) float64 { return float64(i * i) })},
		{"constant column", fill(300, func(int) float64 { return 42 })},
		{"two tight modes", fill(600, func(i int) float64 { return float64(i%2)*1000 + gen.NormFloat64()*1e-6 })},
		{"integer-valued with thousands of ties", fill(6000, func(int) float64 { return float64(17 + gen.Intn(12)) })},
		{"signed zeros among ties", fill(400, func(i int) float64 { return math.Copysign(0, float64(i%3)-1) * float64(i%5) })},
		{"heavy tails that kill components", fill(1500, func(int) float64 {
			// Cauchy: a handful of values sit orders of magnitude out, and the
			// components initialised on them starve.
			return math.Tan(math.Pi * (gen.Float64() - 0.5))
		})},
		{"mixed column with no continuous part", []float64{0}},
		{"bimodal", twoModeData(gen, 3000)},
		{"sorted input", fill(500, func(i int) float64 { return float64(i) / 7 })},
		{"reverse-sorted input", fill(500, func(i int) float64 { return -float64(i) / 7 })},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				if err := checkFitMatchesReference(seed, tc.data, DefaultConfig()); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			}
			cfg := Config{MaxComponents: 3, WeightThreshold: 0.05, MaxIter: 7, Tol: 1e-9}
			if err := checkFitMatchesReference(9, tc.data, cfg); err != nil {
				t.Fatalf("3 components, 7 iterations: %v", err)
			}
		})
	}
}

// TestSelectRanksMatchesSort pins the one step of initModel that is not the
// reference's: whatever the input order or tie structure, the ranks read
// afterwards hold what a full sort would have put there.
func TestSelectRanksMatchesSort(t *testing.T) {
	gen := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		n := 1 + gen.Intn(400)
		a := make([]float64, n)
		distinct := 1 + gen.Intn(n)
		for i := range a {
			a[i] = float64(gen.Intn(distinct))
		}
		switch trial % 4 {
		case 1:
			sort.Float64s(a)
		case 2:
			sort.Sort(sort.Reverse(sort.Float64Slice(a)))
		}
		var ranks []int
		for r := 0; r < n; r++ {
			if gen.Intn(8) == 0 {
				ranks = append(ranks, r)
			}
		}
		sorted := append([]float64(nil), a...)
		sort.Float64s(sorted)
		if trial%3 == 0 {
			// Out of depth after 0–4 partitions: the sort fallback, at every level.
			selectWithin(a, ranks, 0, trial%5)
		} else {
			selectRanks(a, ranks)
		}
		for _, r := range ranks {
			if a[r] != sorted[r] {
				t.Fatalf("trial %d: rank %d of %d holds %v, sort puts %v there", trial, r, n, a[r], sorted[r])
			}
		}
	}
}

// TestSelectRanksCostIsBounded feeds selectRanks the column shapes a table
// sorted by a key produces, the ones a naive quickselect goes quadratic on
// (minutes at this size), and requires each to stay within a small multiple
// of what sorting a shuffled column of the same length costs on this machine
// (they take about a tenth of one such sort).
func TestSelectRanksCostIsBounded(t *testing.T) {
	const n, k = 500_000, 10
	ranks := make([]int, k)
	for c := range ranks {
		ranks[c] = int((float64(c) + 0.5) / k * n)
	}
	shapes := []struct {
		name string
		at   func(i int) float64
	}{
		{"sorted", func(i int) float64 { return float64(i) }},
		{"reversed", func(i int) float64 { return float64(n - i) }},
		{"organ pipe", func(i int) float64 { return float64(min(i, n-1-i)) }},
		{"valley", func(i int) float64 { return float64(max(n/2-i, i-n/2)) }},
		{"sawtooth", func(i int) float64 { return float64(i % 1000) }},
		{"two sorted halves", func(i int) float64 { return float64(i % (n / 2)) }},
		{"constant", func(int) float64 { return 7 }},
	}

	shuffled := make([]float64, n)
	gen := rand.New(rand.NewSource(3))
	for i := range shuffled {
		shuffled[i] = gen.Float64()
	}
	start := time.Now()
	sort.Float64s(shuffled)
	bound := 2 * time.Since(start)

	for _, sh := range shapes {
		a := make([]float64, n)
		for i := range a {
			a[i] = sh.at(i)
		}
		sorted := append([]float64(nil), a...)
		sort.Float64s(sorted)
		start := time.Now()
		selectRanks(a, ranks)
		took := time.Since(start)
		t.Logf("%s: %v (bound %v)", sh.name, took, bound)
		if took > bound {
			t.Errorf("%s: selecting %d ranks of %d took %v, over the bound of %v (2 sorts of a shuffled column)", sh.name, k, n, took, bound)
		}
		for _, r := range ranks {
			if a[r] != sorted[r] {
				t.Fatalf("%s: rank %d holds %v, sort puts %v there", sh.name, r, a[r], sorted[r])
			}
		}
	}
}

// FuzzFitMatchesReference derives a column and a component count from the
// fuzzer's bytes and requires the bit-for-bit agreement above. Two bytes
// make one value, so the fuzzer reaches ties, tight clusters and wide gaps
// with short inputs.
func FuzzFitMatchesReference(f *testing.F) {
	f.Add([]byte{3, 0, 0}, uint8(10))
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 255, 255, 255, 255, 0, 1}, uint8(2))
	f.Add([]byte("integer ties integer ties integer ties"), uint8(10))
	f.Fuzz(func(t *testing.T, raw []byte, k uint8) {
		if len(raw) < 3 || len(raw) > 2001 {
			return
		}
		// The first byte picks the scale; the rest are 16-bit values.
		scale := math.Pow(10, float64(int(raw[0]%9)-4))
		raw = raw[1:]
		data := make([]float64, len(raw)/2)
		for i := range data {
			data[i] = float64(int16(binary.LittleEndian.Uint16(raw[2*i:]))) * scale
		}
		cfg := DefaultConfig()
		cfg.MaxComponents = int(k%12) + 1
		cfg.MaxIter = 25
		if err := checkFitMatchesReference(int64(k), data, cfg); err != nil {
			t.Fatal(err)
		}
	})
}
