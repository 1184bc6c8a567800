// Package gmm fits one-dimensional Gaussian mixture models with
// expectation-maximization. It is the statistical engine behind CTGAN's
// mode-specific normalization of continuous columns: each column is fitted
// with a mixture, low-weight components are pruned, and every cell is
// represented as (scalar offset within its mode, one-hot mode indicator).
package gmm

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sort"

	"repro/internal/tensor"
)

// minStd keeps component standard deviations strictly positive so densities
// and normalized offsets stay finite even for near-constant data.
const minStd = 1e-4

// Model is a fitted one-dimensional Gaussian mixture. Components are sorted
// by mean. Invariant: the weights are positive and sum to 1, and every
// standard deviation is at least minStd.
type Model struct {
	Weights []float64
	Means   []float64
	Stds    []float64
}

// Config controls Fit.
type Config struct {
	// MaxComponents is the number of mixture components EM starts with.
	// CTGAN uses 10.
	MaxComponents int
	// WeightThreshold prunes components whose posterior weight falls below
	// it after fitting. CTGAN's variational GM effectively uses 0.005.
	WeightThreshold float64
	// MaxIter bounds the number of EM iterations.
	MaxIter int
	// Tol stops EM when the mean log-likelihood improves by less than Tol.
	Tol float64
}

// DefaultConfig returns the CTGAN-compatible fitting configuration.
func DefaultConfig() Config {
	return Config{MaxComponents: 10, WeightThreshold: 0.005, MaxIter: 100, Tol: 1e-4}
}

// Fit fits a Gaussian mixture to data using EM followed by low-weight
// component pruning. rng seeds the k-means++-style initialization.
func Fit(rng *rand.Rand, data []float64, cfg Config) (*Model, error) {
	if len(data) == 0 {
		return nil, errors.New("gmm: empty data")
	}
	if cfg.MaxComponents <= 0 {
		return nil, fmt.Errorf("gmm: MaxComponents %d must be positive", cfg.MaxComponents)
	}
	var sum float64
	for _, v := range data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, errors.New("gmm: data contains NaN or Inf")
		}
		sum += v
	}

	k := cfg.MaxComponents
	if k > len(data) {
		k = len(data)
	}

	e := newEM(data, initModel(rng, data, k, stdAbout(data, sum/float64(len(data)))))
	prevLL := math.Inf(-1)
	for iter := 0; iter < cfg.MaxIter; iter++ {
		ll := e.eStep()
		e.mStep()
		if math.Abs(ll-prevLL) < cfg.Tol {
			break
		}
		prevLL = ll
	}

	e.m.prune(cfg.WeightThreshold)
	e.m.sortByMean()
	return e.m, nil
}

// initModel spreads initial means over the data quantiles and gives every
// component the global standard deviation std.
func initModel(rng *rand.Rand, data []float64, k int, std float64) *Model {
	if std < minStd {
		std = minStd
	}
	n := len(data)
	at := make([]int, k) // ascending: the ranks of the k quantiles
	for c := range at {
		q := (float64(c) + 0.5) / float64(k)
		at[c] = int(q * float64(n))
		if at[c] >= n {
			at[c] = n - 1
		}
	}
	// Only k order statistics are read, so the copy is partitioned around
	// them rather than sorted; the values are the ones a full sort leaves at
	// those ranks.
	ranked := make([]float64, n)
	copy(ranked, data)
	selectRanks(ranked, at)

	m := &Model{
		Weights: make([]float64, k),
		Means:   make([]float64, k),
		Stds:    make([]float64, k),
	}
	for c := 0; c < k; c++ {
		// A small jitter separates identical quantiles in discrete-heavy data.
		m.Means[c] = ranked[at[c]] + rng.NormFloat64()*std*1e-3
		m.Stds[c] = std
		m.Weights[c] = 1 / float64(k)
	}
	return m
}

// selectRanks partially orders a so that, for every rank r in the ascending
// list ranks, a[r] holds the value a full ascending sort would put there. It
// is a multi-rank introselect: quickselect that follows every side still
// holding a wanted rank, and hands a sub-slice to sort.Float64s once the
// partitions have gone 2·log2(n) deep without isolating its ranks, so no
// input order costs more than a small multiple of sorting.
func selectRanks(a []float64, ranks []int) {
	selectWithin(a, ranks, 0, 2*bits.Len(uint(len(a))))
}

// selectWithin is selectRanks on a sub-slice: base is a's offset in the slice
// the ranks index, depth the partition levels left before it sorts instead.
func selectWithin(a []float64, ranks []int, base, depth int) {
	for len(ranks) > 0 && len(a) > 1 {
		if len(a) <= 16 || depth == 0 {
			sort.Float64s(a)
			return
		}
		depth--
		// Three ways, so a run of ties (a discrete column) leaves in one step:
		// a[:lt] < p, a[lt:i] == p, a[gt:] > p.
		p := pivot(a)
		lt, i, gt := 0, 0, len(a)
		for i < gt {
			switch v := a[i]; {
			case v < p:
				a[i], a[lt] = a[lt], v
				lt++
				i++
			case v > p:
				gt--
				a[i], a[gt] = a[gt], v
			default:
				i++
			}
		}
		lo := sort.SearchInts(ranks, base+lt) // ranks[:lo] fall left of the pivot run
		hi := sort.SearchInts(ranks, base+gt) // ranks[hi:] fall right of it
		// Recurse into the smaller side, loop on the larger.
		if lt < len(a)-gt {
			selectWithin(a[:lt], ranks[:lo], base, depth)
			a, ranks, base = a[gt:], ranks[hi:], base+gt
		} else {
			selectWithin(a[gt:], ranks[hi:], base+gt, depth)
			a, ranks = a[:lt], ranks[:lo]
		}
	}
}

// pivot is Tukey's ninther, the median of three medians of three taken at
// the front, the middle and the back of a (len(a) > 16). Sorted, reversed
// and V- or Λ-shaped columns all give it a pivot well inside the range, where
// the median of first, middle and last picks an extreme.
func pivot(a []float64) float64 {
	s, mid, end := len(a)/8, len(a)/2, len(a)-1
	return median3(
		median3(a[0], a[s], a[2*s]),
		median3(a[mid-s], a[mid], a[mid+s]),
		median3(a[end-2*s], a[end-s], a[end]),
	)
}

func median3(a, b, c float64) float64 {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	if a > b {
		b = a
	}
	return b
}

// halfLog2Pi is the Gaussian log-density's constant term.
var halfLog2Pi = 0.5 * math.Log(2*math.Pi)

// posterior writes the posterior probability of every component given x into
// out (len = number of components) and returns the largest component logit
// and the sum of the exponentials shifted by it, so that maxLog + log(sum) is
// x's log-likelihood. logW and logStd are the logs of the component weights
// and stds; the caller computes them once for as long as the parameters
// stand, which is the only difference from evaluating
//
//	log w + (-0.5*d*d - log σ - 0.5*log 2π),  d = (x-μ)/σ
//
// per cell: every operation and its order are the same, so the results are
// too, bit for bit. The k exponentials are one tensor.Exp call, which
// returns math.Exp's bits. This is the package's single posterior routine —
// the EM E-step, Responsibilities and mode sampling all go through it.
func posterior(x float64, means, stds, logW, logStd, out []float64) (maxLog, sum float64) {
	maxLog = math.Inf(-1)
	for c := range out {
		d := (x - means[c]) / stds[c]
		l := logW[c] + ((-0.5*d*d - logStd[c]) - halfLog2Pi)
		out[c] = l
		if l > maxLog {
			maxLog = l
		}
	}
	for c, l := range out {
		out[c] = l - maxLog
	}
	tensor.Exp(out, out)
	for _, p := range out {
		sum += p
	}
	for c := range out {
		out[c] /= sum
	}
	return maxLog, sum
}

// logParams fills logW and logStd with the logs of m's weights and stds.
func (m *Model) logParams(logW, logStd []float64) {
	for c := range m.Weights {
		logW[c] = math.Log(m.Weights[c])
		logStd[c] = math.Log(m.Stds[c])
	}
}

// em is the working state of one Fit: the model being refined, the
// responsibilities as one flat n×k row-major slice, and the per-component
// scratch both steps reuse across iterations.
type em struct {
	data []float64
	m    *Model
	resp []float64

	logW, logStd []float64 // E-step constants, recomputed per iteration
	nk, mu, va   []float64 // M-step accumulators
}

func newEM(data []float64, m *Model) *em {
	k := m.K()
	return &em{
		data: data, m: m, resp: make([]float64, len(data)*k),
		logW: make([]float64, k), logStd: make([]float64, k),
		nk: make([]float64, k), mu: make([]float64, k), va: make([]float64, k),
	}
}

// eStep fills resp with posterior responsibilities and returns the mean
// log-likelihood of the data under the current model.
func (e *em) eStep() float64 {
	m, k := e.m, e.m.K()
	m.logParams(e.logW, e.logStd)
	var ll float64
	for i, x := range e.data {
		maxLog, sum := posterior(x, m.Means, m.Stds, e.logW, e.logStd, e.resp[i*k:i*k+k])
		ll += maxLog + math.Log(sum)
	}
	return ll / float64(len(e.data))
}

// mStep re-estimates weights, means and stds from responsibilities in two
// passes over the rows. Every component's sums still add its terms in
// ascending row order, so they equal the sums of a pass per component.
func (e *em) mStep() {
	m, k := e.m, e.m.K()
	nk, mu, va := e.nk, e.mu, e.va
	for c := range nk {
		nk[c], mu[c], va[c] = 0, 0, 0
	}
	for i, x := range e.data {
		for c, r := range e.resp[i*k : i*k+k] {
			nk[c] += r
			mu[c] += r * x
		}
	}
	for c := range mu {
		mu[c] /= nk[c] // meaningless for a dead component, which the last loop skips
	}
	for i, x := range e.data {
		for c, r := range e.resp[i*k : i*k+k] {
			d := x - mu[c]
			va[c] += r * d * d
		}
	}
	n := float64(len(e.data))
	for c := 0; c < k; c++ {
		if nk[c] < 1e-10 {
			// Dead component: park it; prune removes it later.
			m.Weights[c] = 0
			continue
		}
		m.Weights[c] = nk[c] / n
		m.Means[c] = mu[c]
		m.Stds[c] = math.Sqrt(va[c] / nk[c])
		if m.Stds[c] < minStd {
			m.Stds[c] = minStd
		}
	}
}

// prune drops components with weight below threshold and renormalizes.
// At least one component always survives.
func (m *Model) prune(threshold float64) {
	bestIdx := 0
	for c, w := range m.Weights {
		if w > m.Weights[bestIdx] {
			bestIdx = c
		}
	}
	var ws, ms, ss []float64
	for c, w := range m.Weights {
		if w >= threshold || c == bestIdx {
			ws = append(ws, w)
			ms = append(ms, m.Means[c])
			ss = append(ss, m.Stds[c])
		}
	}
	var total float64
	for _, w := range ws {
		total += w
	}
	for i := range ws {
		ws[i] /= total
	}
	m.Weights, m.Means, m.Stds = ws, ms, ss
}

// sortByMean orders components ascending by mean so encodings are stable.
func (m *Model) sortByMean() {
	idx := make([]int, len(m.Means))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return m.Means[idx[a]] < m.Means[idx[b]] })
	ws := make([]float64, len(idx))
	ms := make([]float64, len(idx))
	ss := make([]float64, len(idx))
	for i, j := range idx {
		ws[i], ms[i], ss[i] = m.Weights[j], m.Means[j], m.Stds[j]
	}
	m.Weights, m.Means, m.Stds = ws, ms, ss
}

// K returns the number of (surviving) components.
func (m *Model) K() int { return len(m.Weights) }

// Posterior evaluates a model's component posteriors with the logs of its
// weights and stds taken once instead of once per value. It reads the model
// it came from and never writes it, so any number of goroutines may share
// one; the only mutable state of an evaluation is the scratch slice the
// caller passes in.
type Posterior struct {
	m            *Model
	logW, logStd []float64
}

// Posterior precomputes the constants of m's posterior. m must not change
// while the result is in use.
func (m *Model) Posterior() Posterior {
	p := Posterior{m: m, logW: make([]float64, m.K()), logStd: make([]float64, m.K())}
	m.logParams(p.logW, p.logStd)
	return p
}

// Responsibilities writes the posterior probability of each component for x
// into out, whose length must be the model's K.
func (p Posterior) Responsibilities(x float64, out []float64) {
	posterior(x, p.m.Means, p.m.Stds, p.logW, p.logStd, out[:len(p.logW)])
}

// SampleMode draws a component index from the posterior over components
// given x, as CTGAN does when encoding training rows. scratch needs room
// for K values and is overwritten.
func (p Posterior) SampleMode(rng *rand.Rand, x float64, scratch []float64) int {
	resp := scratch[:len(p.logW)]
	p.Responsibilities(x, resp)
	u := rng.Float64()
	var cum float64
	for c, r := range resp {
		cum += r
		if u < cum {
			return c
		}
	}
	return len(resp) - 1
}

// Normalize maps x into mode c's offset coordinate: (x-mean)/(4*std),
// clipped to [-1, 1] as in CTGAN.
func (m *Model) Normalize(x float64, c int) float64 {
	a := (x - m.Means[c]) / (4 * m.Stds[c])
	if a > 1 {
		return 1
	}
	if a < -1 {
		return -1
	}
	return a
}

// Denormalize inverts Normalize for mode c.
func (m *Model) Denormalize(alpha float64, c int) float64 {
	if alpha > 1 {
		alpha = 1
	} else if alpha < -1 {
		alpha = -1
	}
	return alpha*4*m.Stds[c] + m.Means[c]
}

// stdAbout returns the population standard deviation of data about mu.
func stdAbout(data []float64, mu float64) float64 {
	var va float64
	for _, v := range data {
		d := v - mu
		va += d * d
	}
	return math.Sqrt(va / float64(len(data)))
}
