// Package stats implements the statistical-similarity metrics of the GTV
// evaluation (§4.2.2): the average Jensen-Shannon divergence over
// categorical columns, the average (range-normalized) Wasserstein-1
// distance over continuous/mixed columns, and the dython-style association
// matrix (Pearson correlation, correlation ratio, Cramér's V) from which
// the paper's Diff. Corr., Avg-client and Across-client measures derive.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/encoding"
	"repro/internal/tensor"
)

// JSD returns the Jensen-Shannon divergence between two discrete
// distributions (log base 2, hence bounded in [0, 1]). The slices must have
// equal length; they are normalized internally.
func JSD(p, q []float64) (float64, error) {
	if len(p) != len(q) || len(p) == 0 {
		return 0, fmt.Errorf("stats: JSD over distributions of size %d and %d", len(p), len(q))
	}
	pn, err := normalize(p)
	if err != nil {
		return 0, err
	}
	qn, err := normalize(q)
	if err != nil {
		return 0, err
	}
	var d float64
	for i := range pn {
		m := (pn[i] + qn[i]) / 2
		d += float64(0.5*klTerm(pn[i], m)) + float64(0.5*klTerm(qn[i], m))
	}
	// Clamp tiny negative rounding noise.
	if d < 0 {
		d = 0
	}
	return d, nil
}

func klTerm(p, m float64) float64 {
	if p <= 0 {
		return 0
	}
	return p * math.Log2(p/m)
}

func normalize(p []float64) ([]float64, error) {
	var sum float64
	for _, v := range p {
		if v < 0 {
			return nil, errors.New("stats: negative probability mass")
		}
		sum += v
	}
	if sum <= 0 {
		return nil, errors.New("stats: zero probability mass")
	}
	out := make([]float64, len(p))
	for i, v := range p {
		out[i] = v / sum
	}
	return out, nil
}

// Wasserstein1 returns the 1-Wasserstein (earth mover's) distance between
// two empirical samples, computed exactly as the integral of the absolute
// CDF difference.
func Wasserstein1(a, b []float64) (float64, error) {
	if len(a) == 0 || len(b) == 0 {
		return 0, errors.New("stats: Wasserstein1 with empty sample")
	}
	as := sortedCopy(a)
	bs := sortedCopy(b)
	// Merge the support points; between consecutive points the CDFs are
	// constant, so the integral is a sum of rectangle areas.
	all := make([]float64, 0, len(as)+len(bs))
	all = append(all, as...)
	all = append(all, bs...)
	sort.Float64s(all)

	var dist float64
	ia, ib := 0, 0
	for k := 0; k < len(all)-1; k++ {
		x, next := all[k], all[k+1]
		for ia < len(as) && as[ia] <= x {
			ia++
		}
		for ib < len(bs) && bs[ib] <= x {
			ib++
		}
		fa := float64(ia) / float64(len(as))
		fb := float64(ib) / float64(len(bs))
		dist += float64(math.Abs(fa-fb) * (next - x))
	}
	return dist, nil
}

// AvgJSD averages the JSD of every categorical column between a real and a
// synthetic table with identical schemas. Tables without categorical
// columns yield 0.
func AvgJSD(real, synth *encoding.Table) (float64, error) {
	if err := checkSchemas(real, synth); err != nil {
		return 0, err
	}
	var total float64
	var count int
	for j, spec := range real.Specs {
		if spec.Kind != encoding.KindCategorical {
			continue
		}
		fr, err := encoding.CategoryFrequencies(real, j)
		if err != nil {
			return 0, err
		}
		fs, err := encoding.CategoryFrequencies(synth, j)
		if err != nil {
			return 0, err
		}
		// Smooth so categories absent on one side stay finite.
		d, err := JSD(smooth(fr), smooth(fs))
		if err != nil {
			return 0, fmt.Errorf("stats: column %q: %w", spec.Name, err)
		}
		total += d
		count++
	}
	if count == 0 {
		return 0, nil
	}
	return total / float64(count), nil
}

func smooth(p []float64) []float64 {
	out := make([]float64, len(p))
	for i, v := range p {
		out[i] = v + 1e-9
	}
	return out
}

// AvgWD averages the Wasserstein-1 distance of every continuous and mixed
// column, normalizing each column by the real data's range so columns on
// different scales contribute comparably (as in the CTAB-GAN evaluation).
func AvgWD(real, synth *encoding.Table) (float64, error) {
	if err := checkSchemas(real, synth); err != nil {
		return 0, err
	}
	var total float64
	var count int
	for j, spec := range real.Specs {
		if spec.Kind == encoding.KindCategorical {
			continue
		}
		rc := real.Column(j)
		sc := synth.Column(j)
		lo, hi := minMax(rc)
		scale := hi - lo
		if scale < 1e-12 {
			scale = 1
		}
		d, err := Wasserstein1(rc, sc)
		if err != nil {
			return 0, fmt.Errorf("stats: column %q: %w", spec.Name, err)
		}
		total += d / scale
		count++
	}
	if count == 0 {
		return 0, nil
	}
	return total / float64(count), nil
}

// SimilarityReport bundles the paper's statistical-similarity metrics.
type SimilarityReport struct {
	AvgJSD   float64
	AvgWD    float64
	DiffCorr float64
}

// Similarity computes all three statistical-similarity metrics between a
// real and a synthetic table.
func Similarity(real, synth *encoding.Table) (SimilarityReport, error) {
	jsd, err := AvgJSD(real, synth)
	if err != nil {
		return SimilarityReport{}, err
	}
	wd, err := AvgWD(real, synth)
	if err != nil {
		return SimilarityReport{}, err
	}
	dc, err := DiffCorr(real, synth)
	if err != nil {
		return SimilarityReport{}, err
	}
	return SimilarityReport{AvgJSD: jsd, AvgWD: wd, DiffCorr: dc}, nil
}

func checkSchemas(a, b *encoding.Table) error {
	if len(a.Specs) != len(b.Specs) {
		return fmt.Errorf("stats: schema mismatch: %d vs %d columns", len(a.Specs), len(b.Specs))
	}
	for j := range a.Specs {
		if a.Specs[j].Kind != b.Specs[j].Kind {
			return fmt.Errorf("stats: column %d kind mismatch", j)
		}
	}
	return nil
}

func sortedCopy(xs []float64) []float64 {
	out := make([]float64, len(xs))
	copy(out, xs)
	sort.Float64s(out)
	return out
}

func minMax(xs []float64) (float64, float64) {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range xs {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// --- association matrix (dython compute_associations equivalent) ---

// Pearson returns the Pearson correlation coefficient of two equal-length
// samples (0 when either is constant).
func Pearson(a, b []float64) float64 {
	if len(a) == 0 {
		return 0
	}
	n := float64(len(a))
	ma, sa := meanStd(a)
	mb, sb := meanStd(b)
	if sa < 1e-12 || sb < 1e-12 {
		return 0
	}
	var cov float64
	for i := range a {
		cov += float64((a[i] - ma) * (b[i] - mb))
	}
	cov /= n
	return cov / (sa * sb)
}

// CramersV returns the bias-corrected Cramér's V association between two
// categorical samples given their category counts.
func CramersV(a, b []float64, ka, kb int) float64 {
	n := len(a)
	if n == 0 || ka < 2 || kb < 2 {
		return 0
	}
	obs := make([][]float64, ka)
	for i := range obs {
		obs[i] = make([]float64, kb)
	}
	rowSum := make([]float64, ka)
	colSum := make([]float64, kb)
	for i := range a {
		x, y := int(a[i]), int(b[i])
		obs[x][y]++
		rowSum[x]++
		colSum[y]++
	}
	var chi2 float64
	for i := 0; i < ka; i++ {
		for j := 0; j < kb; j++ {
			expect := rowSum[i] * colSum[j] / float64(n)
			if expect > 0 {
				d := obs[i][j] - expect
				chi2 += d * d / expect
			}
		}
	}
	phi2 := chi2 / float64(n)
	// Bergsma-Wicher bias correction, as in dython's default.
	r, c := float64(ka), float64(kb)
	nn := float64(n)
	phi2corr := math.Max(0, phi2-(r-1)*(c-1)/(nn-1))
	rcorr := r - (r-1)*(r-1)/(nn-1)
	ccorr := c - (c-1)*(c-1)/(nn-1)
	den := math.Min(rcorr-1, ccorr-1)
	if den <= 0 {
		return 0
	}
	return math.Sqrt(phi2corr / den)
}

// CorrelationRatio returns eta: the association between a categorical
// sample (with k categories) and a continuous sample.
func CorrelationRatio(cat, cont []float64, k int) float64 {
	n := len(cat)
	if n == 0 || k < 1 {
		return 0
	}
	sums := make([]float64, k)
	counts := make([]float64, k)
	var total float64
	for i := range cat {
		c := int(cat[i])
		sums[c] += cont[i]
		counts[c]++
		total += cont[i]
	}
	grand := total / float64(n)
	var ssBetween, ssTotal float64
	for c := 0; c < k; c++ {
		if counts[c] > 0 {
			d := sums[c]/counts[c] - grand
			ssBetween += float64(counts[c] * d * d)
		}
	}
	for i := range cont {
		d := cont[i] - grand
		ssTotal += float64(d * d)
	}
	if ssTotal < 1e-12 {
		return 0
	}
	return math.Sqrt(ssBetween / ssTotal)
}

// pairAssociation dispatches to the right association measure for the kinds
// of columns i and j of the table.
func pairAssociation(t *encoding.Table, i, j int) float64 {
	si, sj := t.Specs[i], t.Specs[j]
	ci, cj := t.Column(i), t.Column(j)
	iCat := si.Kind == encoding.KindCategorical
	jCat := sj.Kind == encoding.KindCategorical
	switch {
	case iCat && jCat:
		return CramersV(ci, cj, si.NumCategories(), sj.NumCategories())
	case iCat && !jCat:
		return CorrelationRatio(ci, cj, si.NumCategories())
	case !iCat && jCat:
		return CorrelationRatio(cj, ci, sj.NumCategories())
	default:
		return Pearson(ci, cj)
	}
}

// AssociationMatrix returns the full pairwise association matrix of the
// table, mirroring dython's compute_associations: Pearson for
// numeric-numeric pairs, correlation ratio for categorical-numeric and
// Cramér's V for categorical-categorical. Mixed columns are treated as
// numeric. The diagonal is 1.
func AssociationMatrix(t *encoding.Table) *tensor.Dense {
	n := t.Cols()
	out := tensor.New(n, n)
	for i := 0; i < n; i++ {
		out.Set(i, i, 1)
		for j := i + 1; j < n; j++ {
			v := pairAssociation(t, i, j)
			out.Set(i, j, v)
			out.Set(j, i, v)
		}
	}
	return out
}

// CrossAssociation returns the |A| x |B| association block between the
// columns of two row-aligned tables (the Across-client correlations).
func CrossAssociation(a, b *encoding.Table) (*tensor.Dense, error) {
	if a.Rows() != b.Rows() {
		return nil, fmt.Errorf("stats: cross association over %d vs %d rows", a.Rows(), b.Rows())
	}
	joined, err := encoding.ConcatColumns(a, b)
	if err != nil {
		return nil, err
	}
	out := tensor.New(a.Cols(), b.Cols())
	for i := 0; i < a.Cols(); i++ {
		for j := 0; j < b.Cols(); j++ {
			out.Set(i, j, pairAssociation(joined, i, a.Cols()+j))
		}
	}
	return out, nil
}

// DiffCorr returns the L2 (Frobenius) norm of the difference between the
// association matrices of the real and synthetic tables — the paper's
// Diff. Corr. metric.
func DiffCorr(real, synth *encoding.Table) (float64, error) {
	if err := checkSchemas(real, synth); err != nil {
		return 0, err
	}
	return tensor.Sub(AssociationMatrix(real), AssociationMatrix(synth)).Norm(), nil
}

// AvgClientDiff averages DiffCorr over per-client (real, synthetic) table
// pairs: the paper's Avg-client metric.
func AvgClientDiff(realParts, synthParts []*encoding.Table) (float64, error) {
	if len(realParts) != len(synthParts) || len(realParts) == 0 {
		return 0, fmt.Errorf("stats: %d real vs %d synthetic parts", len(realParts), len(synthParts))
	}
	var total float64
	for i := range realParts {
		d, err := DiffCorr(realParts[i], synthParts[i])
		if err != nil {
			return 0, fmt.Errorf("stats: client %d: %w", i, err)
		}
		total += d
	}
	return total / float64(len(realParts)), nil
}

// AcrossClientDiff returns the L2 norm of the difference between the real
// and synthetic cross-client association blocks: the paper's Across-client
// metric for two clients.
func AcrossClientDiff(realA, realB, synthA, synthB *encoding.Table) (float64, error) {
	rc, err := CrossAssociation(realA, realB)
	if err != nil {
		return 0, fmt.Errorf("stats: real cross association: %w", err)
	}
	sc, err := CrossAssociation(synthA, synthB)
	if err != nil {
		return 0, fmt.Errorf("stats: synthetic cross association: %w", err)
	}
	if rc.Rows() != sc.Rows() || rc.Cols() != sc.Cols() {
		return 0, errors.New("stats: cross association shape mismatch")
	}
	return tensor.Sub(rc, sc).Norm(), nil
}

func meanStd(xs []float64) (float64, float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	var mu float64
	for _, v := range xs {
		mu += v
	}
	mu /= float64(len(xs))
	var va float64
	for _, v := range xs {
		d := v - mu
		va += float64(d * d)
	}
	return mu, math.Sqrt(va / float64(len(xs)))
}
