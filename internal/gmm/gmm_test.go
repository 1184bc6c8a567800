package gmm

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// twoModeData draws n samples from 0.5*N(-5,1) + 0.5*N(5,1).
func twoModeData(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		if rng.Float64() < 0.5 {
			out[i] = rng.NormFloat64() - 5
		} else {
			out[i] = rng.NormFloat64() + 5
		}
	}
	return out
}

func TestFitRecoverstTwoModes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := twoModeData(rng, 2000)
	m, err := Fit(rng, data, DefaultConfig())
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if m.K() < 2 {
		t.Fatalf("K = %d, want >= 2", m.K())
	}
	// Every surviving component must sit at one of the two true modes, and
	// each mode must carry roughly half the mass. (Plain EM may cover one
	// cluster with several overlapping components; that is fine for
	// mode-specific normalization.)
	var massNeg, massPos float64
	for c := 0; c < m.K(); c++ {
		switch {
		case math.Abs(m.Means[c]+5) < 1.5:
			massNeg += m.Weights[c]
		case math.Abs(m.Means[c]-5) < 1.5:
			massPos += m.Weights[c]
		default:
			t.Fatalf("component %d at mean %v is far from both true modes", c, m.Means[c])
		}
	}
	if massNeg < 0.35 || massNeg > 0.65 || massPos < 0.35 || massPos > 0.65 {
		t.Fatalf("mode masses = %v / %v, want ~0.5 each", massNeg, massPos)
	}
}

func TestFitPrunesSpuriousComponents(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	// Unimodal data with 10 initial components should collapse to few.
	data := make([]float64, 1000)
	for i := range data {
		data[i] = rng.NormFloat64()
	}
	m, err := Fit(rng, data, DefaultConfig())
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	for c := 0; c < m.K(); c++ {
		if m.Weights[c] < DefaultConfig().WeightThreshold {
			t.Fatalf("component %d survives with weight %v below threshold", c, m.Weights[c])
		}
	}
}

func TestFitWeightsSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m, err := Fit(rng, twoModeData(rng, 500), DefaultConfig())
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	var sum float64
	for _, w := range m.Weights {
		sum += w
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("weights sum to %v", sum)
	}
}

func TestFitConstantColumn(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	data := make([]float64, 100)
	for i := range data {
		data[i] = 42
	}
	m, err := Fit(rng, data, DefaultConfig())
	if err != nil {
		t.Fatalf("Fit on constant column: %v", err)
	}
	if m.K() < 1 {
		t.Fatal("no components survived")
	}
	// All surviving mass should be at 42 (std floor keeps it finite).
	best := 0
	for c := range m.Weights {
		if m.Weights[c] > m.Weights[best] {
			best = c
		}
	}
	if math.Abs(m.Means[best]-42) > 0.01 {
		t.Fatalf("dominant mean = %v want 42", m.Means[best])
	}
}

func TestFitErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	if _, err := Fit(rng, nil, DefaultConfig()); err == nil {
		t.Fatal("expected error on empty data")
	}
	if _, err := Fit(rng, []float64{math.NaN()}, DefaultConfig()); err == nil {
		t.Fatal("expected error on NaN data")
	}
	cfg := DefaultConfig()
	cfg.MaxComponents = 0
	if _, err := Fit(rng, []float64{1, 2}, cfg); err == nil {
		t.Fatal("expected error on zero components")
	}
}

func TestFitFewSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m, err := Fit(rng, []float64{1, 2, 3}, DefaultConfig())
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if m.K() > 3 {
		t.Fatalf("K = %d exceeds sample count", m.K())
	}
}

func TestResponsibilitiesSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m, err := Fit(rng, twoModeData(rng, 500), DefaultConfig())
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	post, r := m.Posterior(), make([]float64, m.K())
	for _, x := range []float64{-5, 0, 5, 100} {
		post.Responsibilities(x, r)
		var sum float64
		for _, p := range r {
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("responsibilities for %v sum to %v", x, sum)
		}
	}
}

func TestResponsibilitiesPickNearestMode(t *testing.T) {
	m := &Model{Weights: []float64{0.5, 0.5}, Means: []float64{-5, 5}, Stds: []float64{1, 1}}
	post, r := m.Posterior(), make([]float64, m.K())
	post.Responsibilities(-5, r)
	if r[0] < 0.99 {
		t.Fatalf("x=-5 responsibility for mode 0 = %v", r[0])
	}
	post.Responsibilities(5, r)
	if r[1] < 0.99 {
		t.Fatalf("x=5 responsibility for mode 1 = %v", r[1])
	}
}

func TestNormalizeDenormalizeRoundTrip(t *testing.T) {
	m := &Model{Weights: []float64{1}, Means: []float64{10}, Stds: []float64{2}}
	for _, x := range []float64{10, 12, 8, 14.5} {
		a := m.Normalize(x, 0)
		back := m.Denormalize(a, 0)
		if math.Abs(back-x) > 1e-9 {
			t.Fatalf("round trip %v -> %v -> %v", x, a, back)
		}
	}
}

func TestNormalizeClips(t *testing.T) {
	m := &Model{Weights: []float64{1}, Means: []float64{0}, Stds: []float64{1}}
	if a := m.Normalize(100, 0); a != 1 {
		t.Fatalf("Normalize(100) = %v want clip at 1", a)
	}
	if a := m.Normalize(-100, 0); a != -1 {
		t.Fatalf("Normalize(-100) = %v want clip at -1", a)
	}
}

func TestSampleModeFollowsPosterior(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m := &Model{Weights: []float64{0.5, 0.5}, Means: []float64{-5, 5}, Stds: []float64{1, 1}}
	post, scratch := m.Posterior(), make([]float64, m.K())
	counts := [2]int{}
	for i := 0; i < 200; i++ {
		counts[post.SampleMode(rng, -5, scratch)]++
	}
	if counts[0] < 195 {
		t.Fatalf("sampling for x=-5 picked mode 0 only %d/200 times", counts[0])
	}
}

func TestLogLikelihoodImprovesOverSingleGaussian(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	data := twoModeData(rng, 1000)
	fitted, err := Fit(rng, data, DefaultConfig())
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	var mu float64
	for _, v := range data {
		mu += v
	}
	mu /= float64(len(data))
	std := stdAbout(data, mu)
	single := &Model{Weights: []float64{1}, Means: []float64{mu}, Stds: []float64{std}}
	if logLikelihood(fitted, data) <= logLikelihood(single, data) {
		t.Fatal("mixture log-likelihood should beat a single Gaussian on bimodal data")
	}
}

// logLikelihood returns the mean log-likelihood of data under m.
func logLikelihood(m *Model, data []float64) float64 {
	var ll float64
	for _, x := range data {
		var p float64
		for c := range m.Weights {
			p += m.Weights[c] * math.Exp(logNormPDF(x, m.Means[c], m.Stds[c]))
		}
		ll += math.Log(math.Max(p, 1e-300))
	}
	return ll / float64(len(data))
}

// Property: components are always sorted by mean, weights positive and
// normalized, stds at the floor or above.
func TestQuickModelInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 30 + rng.Intn(200)
		data := make([]float64, n)
		for i := range data {
			data[i] = rng.NormFloat64()*float64(1+rng.Intn(5)) + float64(rng.Intn(10))
		}
		m, err := Fit(rng, data, DefaultConfig())
		if err != nil {
			return false
		}
		var sum float64
		for c := 0; c < m.K(); c++ {
			if m.Weights[c] <= 0 || m.Stds[c] < minStd {
				return false
			}
			if c > 0 && m.Means[c] < m.Means[c-1] {
				return false
			}
			sum += m.Weights[c]
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkFit times a whole Fit (initialisation, EM to convergence, prune)
// on one bimodal column. ns/row/iter is the wall time divided by rows and by
// the EM iterations that ran, the number set-up cost scales with; iters is
// that count, fixed by the seed; it is read off the reference EM, which
// TestFitMatchesReference holds Fit to iteration by iteration.
func BenchmarkFit(b *testing.B) {
	for _, rows := range []int{50_000, 500_000} {
		b.Run(fmt.Sprintf("rows=%dk", rows/1000), func(b *testing.B) {
			data := twoModeData(rand.New(rand.NewSource(10)), rows)
			_, lls, err := fitReference(rand.New(rand.NewSource(11)), data, DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			iters := len(lls)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Fit(rand.New(rand.NewSource(11)), data, DefaultConfig()); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rows)/float64(iters), "ns/row/iter")
			b.ReportMetric(float64(iters), "iters")
		})
	}
}

// BenchmarkPosterior computes the posteriors of 4 096 values under a
// ten-component model, the E-step's shape, one value at a time through
// posterior and in block form through posteriors (the vector routine where
// this build and CPU have it). ns/value is the wall time per value.
func BenchmarkPosterior(b *testing.B) {
	const n, k = 4096, 10
	xs := twoModeData(rand.New(rand.NewSource(12)), n)
	m := &Model{Weights: make([]float64, k), Means: make([]float64, k), Stds: make([]float64, k)}
	for c := range m.Weights {
		m.Weights[c], m.Means[c], m.Stds[c] = 1.0/k, float64(c)-4.5, 1+float64(c)/10
	}
	logW, logStd := make([]float64, k), make([]float64, k)
	m.logParams(logW, logStd)
	resp, maxLog, sum := make([]float64, n*k), make([]float64, n), make([]float64, n)
	for _, form := range []string{"per-value", "block"} {
		b.Run(form, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if form == "block" {
					posteriors(xs, m.Means, m.Stds, logW, logStd, resp, maxLog, sum)
					continue
				}
				for j, x := range xs {
					maxLog[j], sum[j] = posterior(x, m.Means, m.Stds, logW, logStd, resp[j*k:j*k+k])
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/value")
		})
	}
}
