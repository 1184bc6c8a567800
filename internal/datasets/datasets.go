// Package datasets provides synthetic stand-ins for the five tabular
// datasets used by the GTV paper (Adult, Covertype, Intrusion, Credit,
// Loan). The real UCI/Kaggle files are not available in this offline
// environment, so each generator draws rows from a latent-factor model with
// a schema shaped like the original: the same mix of categorical,
// continuous and mixed columns, a target column with a comparable class
// imbalance, and learnable correlations between features and target.
//
// The GTV experiments measure the *difference* between models trained on
// real vs. synthetic data, so what matters is that inter-column structure
// exists for the GAN to learn — which the shared latent factors provide —
// not that the marginal distributions match the originals exactly.
package datasets

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"

	"repro/internal/encoding"
	"repro/internal/tensor"
)

// Dataset is a generated tabular dataset with a designated target column.
type Dataset struct {
	Name   string
	Table  *encoding.Table
	Target int // index of the target column (always categorical)
}

// Config controls dataset generation.
type Config struct {
	Rows int
	Seed int64
}

// latentDim is the dimensionality of the shared latent factors that induce
// correlations between columns.
const latentDim = 4

// Names lists the supported dataset names in the paper's order.
func Names() []string {
	return []string{"loan", "adult", "covtype", "intrusion", "credit"}
}

// featureDef describes one generated column.
type featureDef struct {
	name       string
	kind       encoding.ColumnKind
	categories int       // for categorical
	specials   []float64 // for mixed
	// specialProb is the probability a mixed cell takes a special value
	// (which special value is chosen by a latent threshold).
	specialProb float64
	noise       float64
	scale       float64
	offset      float64
}

// schema describes one dataset family.
type schema struct {
	features []featureDef
	// target class priors; length = number of classes.
	priors []float64
}

// schemaFor returns the generator schema for a dataset name.
func schemaFor(name string) (schema, error) {
	switch name {
	case "adult":
		return schema{
			features: []featureDef{
				{name: "age", kind: encoding.KindContinuous, noise: 0.5, scale: 12, offset: 38},
				{name: "workclass", kind: encoding.KindCategorical, categories: 4},
				{name: "education", kind: encoding.KindCategorical, categories: 5},
				{name: "marital_status", kind: encoding.KindCategorical, categories: 3},
				{name: "occupation", kind: encoding.KindCategorical, categories: 6},
				{name: "relationship", kind: encoding.KindCategorical, categories: 4},
				{name: "sex", kind: encoding.KindCategorical, categories: 2},
				{name: "capital_gain", kind: encoding.KindMixed, specials: []float64{0}, specialProb: 0.85, noise: 0.4, scale: 8000, offset: 12000},
				{name: "capital_loss", kind: encoding.KindMixed, specials: []float64{0}, specialProb: 0.92, noise: 0.4, scale: 500, offset: 1500},
				{name: "hours_per_week", kind: encoding.KindContinuous, noise: 0.6, scale: 10, offset: 40},
			},
			priors: []float64{0.76, 0.24}, // <=50K, >50K
		}, nil
	case "covtype":
		fs := []featureDef{
			{name: "elevation", kind: encoding.KindContinuous, noise: 0.3, scale: 280, offset: 2950},
			{name: "aspect", kind: encoding.KindContinuous, noise: 0.8, scale: 110, offset: 155},
			{name: "slope", kind: encoding.KindContinuous, noise: 0.6, scale: 8, offset: 14},
			{name: "horiz_dist_hydro", kind: encoding.KindContinuous, noise: 0.5, scale: 210, offset: 270},
			{name: "vert_dist_hydro", kind: encoding.KindContinuous, noise: 0.5, scale: 58, offset: 46},
			{name: "horiz_dist_road", kind: encoding.KindContinuous, noise: 0.5, scale: 1550, offset: 2350},
			{name: "hillshade_9am", kind: encoding.KindContinuous, noise: 0.6, scale: 27, offset: 212},
			{name: "hillshade_noon", kind: encoding.KindContinuous, noise: 0.6, scale: 20, offset: 223},
			{name: "horiz_dist_fire", kind: encoding.KindContinuous, noise: 0.5, scale: 1325, offset: 1980},
			{name: "wilderness_area", kind: encoding.KindCategorical, categories: 4},
			{name: "soil_type", kind: encoding.KindCategorical, categories: 8},
		}
		return schema{
			features: fs,
			priors:   []float64{0.365, 0.495, 0.062, 0.005, 0.016, 0.030, 0.027},
		}, nil
	case "intrusion":
		return schema{
			features: []featureDef{
				{name: "duration", kind: encoding.KindMixed, specials: []float64{0}, specialProb: 0.8, noise: 0.5, scale: 700, offset: 300},
				{name: "protocol_type", kind: encoding.KindCategorical, categories: 3},
				{name: "service", kind: encoding.KindCategorical, categories: 8},
				{name: "flag", kind: encoding.KindCategorical, categories: 4},
				{name: "src_bytes", kind: encoding.KindMixed, specials: []float64{0}, specialProb: 0.3, noise: 0.5, scale: 18000, offset: 4000},
				{name: "dst_bytes", kind: encoding.KindMixed, specials: []float64{0}, specialProb: 0.45, noise: 0.5, scale: 9000, offset: 2000},
				{name: "logged_in", kind: encoding.KindCategorical, categories: 2},
				{name: "count", kind: encoding.KindContinuous, noise: 0.4, scale: 110, offset: 90},
				{name: "srv_count", kind: encoding.KindContinuous, noise: 0.4, scale: 90, offset: 65},
				{name: "serror_rate", kind: encoding.KindContinuous, noise: 0.4, scale: 0.35, offset: 0.2},
			},
			priors: []float64{0.53, 0.31, 0.12, 0.03, 0.01},
		}, nil
	case "credit":
		fs := make([]featureDef, 0, 10)
		for i := 1; i <= 8; i++ {
			fs = append(fs, featureDef{
				name: "v" + strconv.Itoa(i), kind: encoding.KindContinuous,
				noise: 0.45, scale: 1.2, offset: 0,
			})
		}
		fs = append(fs,
			featureDef{name: "amount", kind: encoding.KindContinuous, noise: 0.5, scale: 95, offset: 88},
			featureDef{name: "txn_hour", kind: encoding.KindContinuous, noise: 0.7, scale: 6, offset: 13},
		)
		return schema{
			features: fs,
			priors:   []float64{0.98, 0.02}, // legitimate, fraud
		}, nil
	case "loan":
		return schema{
			features: []featureDef{
				{name: "age", kind: encoding.KindContinuous, noise: 0.5, scale: 11, offset: 45},
				{name: "experience", kind: encoding.KindContinuous, noise: 0.5, scale: 11, offset: 20},
				{name: "income", kind: encoding.KindContinuous, noise: 0.4, scale: 46, offset: 74},
				{name: "family", kind: encoding.KindCategorical, categories: 4},
				{name: "ccavg", kind: encoding.KindContinuous, noise: 0.5, scale: 1.7, offset: 1.9},
				{name: "education", kind: encoding.KindCategorical, categories: 3},
				{name: "mortgage", kind: encoding.KindMixed, specials: []float64{0}, specialProb: 0.7, noise: 0.4, scale: 100, offset: 180},
				{name: "securities_account", kind: encoding.KindCategorical, categories: 2},
				{name: "cd_account", kind: encoding.KindCategorical, categories: 2},
				{name: "online", kind: encoding.KindCategorical, categories: 2},
				{name: "creditcard", kind: encoding.KindCategorical, categories: 2},
			},
			priors: []float64{0.904, 0.096}, // no personal loan, personal loan
		}, nil
	default:
		return schema{}, fmt.Errorf("datasets: unknown dataset %q (supported: %v)", name, Names())
	}
}

// Generate builds the named synthetic dataset.
func Generate(name string, cfg Config) (*Dataset, error) {
	sc, err := schemaFor(name)
	if err != nil {
		return nil, err
	}
	if cfg.Rows <= 0 {
		return nil, fmt.Errorf("datasets: rows %d must be positive", cfg.Rows)
	}
	// fillTarget gives every class at least two rows.
	if minRows := 2 * len(sc.priors); cfg.Rows < minRows {
		return nil, fmt.Errorf("datasets: %s needs at least %d rows (two per target class), got %d", name, minRows, cfg.Rows)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Latent factors per row.
	z := tensor.Randn(rng, cfg.Rows, latentDim, 0, 1)

	numCols := len(sc.features) + 1
	data := tensor.New(cfg.Rows, numCols)
	specs := make([]encoding.ColumnSpec, numCols)

	// Per-feature latent weights, drawn once so all rows share structure.
	for j, f := range sc.features {
		specs[j] = specFor(f)
		fillColumn(rng, data, j, f, z)
	}

	// Target column from a latent score per class, with biases tuned to hit
	// the configured priors.
	targetIdx := len(sc.features)
	k := len(sc.priors)
	cats := make([]string, k)
	for c := range cats {
		cats[c] = "class_" + strconv.Itoa(c)
	}
	specs[targetIdx] = encoding.ColumnSpec{Name: "target", Kind: encoding.KindCategorical, Categories: cats}
	fillTarget(rng, data, targetIdx, sc.priors, z)

	tbl, err := encoding.NewTable(specs, data)
	if err != nil {
		return nil, fmt.Errorf("datasets: building %s: %w", name, err)
	}
	return &Dataset{Name: name, Table: tbl, Target: targetIdx}, nil
}

// specFor converts a featureDef to a column spec.
func specFor(f featureDef) encoding.ColumnSpec {
	spec := encoding.ColumnSpec{Name: f.name, Kind: f.kind}
	switch f.kind {
	case encoding.KindCategorical:
		spec.Categories = make([]string, f.categories)
		for c := range spec.Categories {
			spec.Categories[c] = f.name + "_" + strconv.Itoa(c)
		}
	case encoding.KindMixed:
		spec.SpecialValues = f.specials
	}
	return spec
}

// fillColumn generates one feature column from the latent factors.
func fillColumn(rng *rand.Rand, data *tensor.Dense, j int, f featureDef, z *tensor.Dense) {
	rows := data.Rows()
	switch f.kind {
	case encoding.KindCategorical:
		// Per-category latent weight vectors; category = argmax of noisy score.
		w := tensor.Randn(rng, f.categories, latentDim, 0, 1)
		for i := 0; i < rows; i++ {
			zi := z.RawRow(i)
			best, bestScore := 0, math.Inf(-1)
			for c := 0; c < f.categories; c++ {
				s := dot(w.RawRow(c), zi) + float64(gumbel(rng)*0.7)
				if s > bestScore {
					best, bestScore = c, s
				}
			}
			data.Set(i, j, float64(best))
		}
	case encoding.KindContinuous:
		w := randUnit(rng)
		for i := 0; i < rows; i++ {
			v := dot(w, z.RawRow(i)) + float64(rng.NormFloat64()*f.noise)
			data.Set(i, j, float64(v*f.scale)+f.offset)
		}
	case encoding.KindMixed:
		w := randUnit(rng)
		wSpecial := randUnit(rng)
		// The special-value decision correlates with the latent factors via
		// a logistic threshold calibrated to specialProb.
		scores := make([]float64, rows)
		for i := 0; i < rows; i++ {
			scores[i] = dot(wSpecial, z.RawRow(i)) + float64(rng.NormFloat64()*0.6)
		}
		threshold := quantile(scores, f.specialProb)
		for i := 0; i < rows; i++ {
			if scores[i] <= threshold {
				s := f.specials[0]
				if len(f.specials) > 1 {
					s = f.specials[rng.Intn(len(f.specials))]
				}
				data.Set(i, j, s)
				continue
			}
			v := dot(w, z.RawRow(i)) + float64(rng.NormFloat64()*f.noise)
			v = float64(v*f.scale) + f.offset
			// Keep the continuous part clear of the special values.
			if v <= 0 {
				v = float64(f.offset/4) + float64(math.Abs(v)/8) + 1
			}
			data.Set(i, j, v)
		}
	}
}

// fillTarget assigns target classes with the given priors while keeping a
// strong dependence on the latent factors (so features predict the target).
func fillTarget(rng *rand.Rand, data *tensor.Dense, j int, priors []float64, z *tensor.Dense) {
	rows := data.Rows()
	k := len(priors)
	w := tensor.Randn(rng, k, latentDim, 0, 1)
	bias := make([]float64, k)
	classes := make([]int, rows)

	assign := func() []int {
		counts := make([]int, k)
		for i := 0; i < rows; i++ {
			zi := z.RawRow(i)
			best, bestScore := 0, math.Inf(-1)
			for c := 0; c < k; c++ {
				s := dot(w.RawRow(c), zi) + bias[c] + float64(gumbel(rng)*0.5)
				if s > bestScore {
					best, bestScore = c, s
				}
			}
			classes[i] = best
			counts[best]++
		}
		return counts
	}

	// Tune biases so empirical class frequencies approach the priors.
	for iter := 0; iter < 25; iter++ {
		counts := assign()
		done := true
		for c := 0; c < k; c++ {
			want := priors[c]
			got := float64(counts[c]) / float64(rows)
			if math.Abs(got-want) > 0.004 {
				done = false
			}
			bias[c] += float64(0.5 * (math.Log(want+1e-6) - math.Log(got+1e-6)))
		}
		if done {
			break
		}
	}
	// Guarantee every class appears at least twice so stratified splits and
	// per-class metrics are well-defined at small row counts.
	counts := make([]int, k)
	for _, c := range classes {
		counts[c]++
	}
	next := 0
	for c := 0; c < k; c++ {
		for counts[c] < 2 {
			for counts[classes[next]] <= 2 {
				next++
			}
			counts[classes[next]]--
			classes[next] = c
			counts[c]++
		}
	}
	for i, c := range classes {
		data.Set(i, j, float64(c))
	}
}

// TrainTestSplit splits the dataset's rows into train and test tables,
// stratified by the target column so class ratios are preserved.
func (d *Dataset) TrainTestSplit(rng *rand.Rand, testFrac float64) (train, test *encoding.Table, err error) {
	if testFrac <= 0 || testFrac >= 1 {
		return nil, nil, fmt.Errorf("datasets: testFrac %v out of (0,1)", testFrac)
	}
	byClass := make(map[int][]int)
	for i := 0; i < d.Table.Rows(); i++ {
		c := int(d.Table.Data.At(i, d.Target))
		byClass[c] = append(byClass[c], i)
	}
	// Consume the caller's RNG in sorted-class order: ranging over the map
	// here would hand each class a different permutation depending on the
	// iteration order of the moment, making the split — and everything
	// trained on it — irreproducible across processes.
	classes := make([]int, 0, len(byClass))
	for c := range byClass {
		classes = append(classes, c)
	}
	sort.Ints(classes)
	var trainIdx, testIdx []int
	for _, c := range classes {
		rowsOf := byClass[c]
		perm := rng.Perm(len(rowsOf))
		nTest := int(math.Round(testFrac * float64(len(rowsOf))))
		if nTest < 1 {
			nTest = 1
		}
		if nTest >= len(rowsOf) {
			nTest = len(rowsOf) - 1
		}
		for i, p := range perm {
			if i < nTest {
				testIdx = append(testIdx, rowsOf[p])
			} else {
				trainIdx = append(trainIdx, rowsOf[p])
			}
		}
	}
	sort.Ints(trainIdx)
	sort.Ints(testIdx)
	return d.Table.GatherRows(trainIdx), d.Table.GatherRows(testIdx), nil
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += float64(a[i] * b[i])
	}
	return s
}

// gumbel draws a standard Gumbel variate, used for correlated categorical
// sampling (the Gumbel-max trick).
func gumbel(rng *rand.Rand) float64 {
	u := rng.Float64()
	for u <= 0 {
		u = rng.Float64()
	}
	return -math.Log(-math.Log(u))
}

// randUnit draws a random unit vector in the latent space.
func randUnit(rng *rand.Rand) []float64 {
	v := make([]float64, latentDim)
	var n float64
	for i := range v {
		v[i] = rng.NormFloat64()
		n += float64(v[i] * v[i])
	}
	n = math.Sqrt(n)
	for i := range v {
		v[i] /= n
	}
	return v
}

// quantile returns the q-quantile of xs (0 <= q <= 1) by sorting a copy.
func quantile(xs []float64, q float64) float64 {
	cp := make([]float64, len(xs))
	copy(cp, xs)
	sort.Float64s(cp)
	idx := int(q * float64(len(cp)-1))
	return cp[idx]
}
