package datasets

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/encoding"
)

func TestGenerateAllDatasets(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			d, err := Generate(name, Config{Rows: 500, Seed: 1})
			if err != nil {
				t.Fatalf("Generate(%s): %v", name, err)
			}
			if d.Table.Rows() != 500 {
				t.Fatalf("rows = %d", d.Table.Rows())
			}
			if d.Target != d.Table.Cols()-1 {
				t.Fatalf("target index = %d want %d", d.Target, d.Table.Cols()-1)
			}
			if d.Table.Specs[d.Target].Kind != encoding.KindCategorical {
				t.Fatal("target must be categorical")
			}
			if !d.Table.Data.AllFinite() {
				t.Fatal("generated data contains NaN/Inf")
			}
		})
	}
}

func TestGenerateUnknownName(t *testing.T) {
	if _, err := Generate("nope", Config{Rows: 10, Seed: 1}); err == nil {
		t.Fatal("expected error for unknown dataset")
	}
}

func TestGenerateInvalidRows(t *testing.T) {
	if _, err := Generate("adult", Config{Rows: 0, Seed: 1}); err == nil {
		t.Fatal("expected error for zero rows")
	}
}

// TestGenerateTooFewRows: below two rows per target class Generate returns
// an error naming the dataset and the minimum, at every such size, and at
// the minimum itself it builds the table with every class present twice.
func TestGenerateTooFewRows(t *testing.T) {
	for _, name := range Names() {
		sc, err := schemaFor(name)
		if err != nil {
			t.Fatal(err)
		}
		minRows := 2 * len(sc.priors)
		want := fmt.Sprintf("datasets: %s needs at least %d rows", name, minRows)
		for rows := 1; rows < minRows; rows++ {
			_, err := Generate(name, Config{Rows: rows, Seed: 1})
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("%s at %d rows: error %v, want one containing %q", name, rows, err, want)
			}
		}
		d, err := Generate(name, Config{Rows: minRows, Seed: 1})
		if err != nil {
			t.Fatalf("%s at %d rows: %v", name, minRows, err)
		}
		counts := map[float64]int{}
		for i := 0; i < minRows; i++ {
			counts[d.Table.Data.At(i, d.Target)]++
		}
		if len(counts) != len(sc.priors) {
			t.Fatalf("%s at %d rows: %d classes present, want %d", name, minRows, len(counts), len(sc.priors))
		}
		for c, n := range counts {
			if n != 2 {
				t.Fatalf("%s at %d rows: class %v has %d rows, want 2", name, minRows, c, n)
			}
		}
	}
}

func TestGenerateDeterministicPerSeed(t *testing.T) {
	a, err := Generate("loan", Config{Rows: 200, Seed: 7})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	b, err := Generate("loan", Config{Rows: 200, Seed: 7})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if !a.Table.Data.Equal(b.Table.Data) {
		t.Fatal("same seed must give identical data")
	}
	c, err := Generate("loan", Config{Rows: 200, Seed: 8})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if a.Table.Data.Equal(c.Table.Data) {
		t.Fatal("different seeds should give different data")
	}
}

func TestTargetPriorsApproximated(t *testing.T) {
	tests := []struct {
		name      string
		class     int
		wantPrior float64
		tolerance float64
	}{
		{"adult", 1, 0.24, 0.05},
		{"credit", 1, 0.02, 0.015},
		{"loan", 1, 0.096, 0.04},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			d, err := Generate(tc.name, Config{Rows: 3000, Seed: 2})
			if err != nil {
				t.Fatalf("Generate: %v", err)
			}
			var count int
			for i := 0; i < d.Table.Rows(); i++ {
				if int(d.Table.Data.At(i, d.Target)) == tc.class {
					count++
				}
			}
			got := float64(count) / float64(d.Table.Rows())
			if math.Abs(got-tc.wantPrior) > tc.tolerance {
				t.Fatalf("class %d frequency = %v want ~%v", tc.class, got, tc.wantPrior)
			}
		})
	}
}

func TestEveryClassPresent(t *testing.T) {
	// Even tiny datasets must contain >= 2 rows of every class so
	// stratified splitting works.
	for _, name := range Names() {
		d, err := Generate(name, Config{Rows: 300, Seed: 3})
		if err != nil {
			t.Fatalf("Generate(%s): %v", name, err)
		}
		k := d.Table.Specs[d.Target].NumCategories()
		counts := make([]int, k)
		for i := 0; i < d.Table.Rows(); i++ {
			counts[int(d.Table.Data.At(i, d.Target))]++
		}
		for c, n := range counts {
			if n < 2 {
				t.Fatalf("%s: class %d has %d rows", name, c, n)
			}
		}
	}
}

func TestFeaturesCorrelateWithTarget(t *testing.T) {
	// The latent-factor model must induce predictive structure: at least
	// one continuous feature should have a noticeable mean shift between
	// classes. Without this, the GTV ML-utility experiments are vacuous.
	d, err := Generate("adult", Config{Rows: 4000, Seed: 4})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	var bestShift float64
	for j, spec := range d.Table.Specs {
		if spec.Kind != encoding.KindContinuous {
			continue
		}
		var sum0, sum1, n0, n1, sq float64
		col := d.Table.Column(j)
		for i, v := range col {
			if int(d.Table.Data.At(i, d.Target)) == 0 {
				sum0 += v
				n0++
			} else {
				sum1 += v
				n1++
			}
			sq += v * v
		}
		mean := (sum0 + sum1) / float64(len(col))
		std := math.Sqrt(sq/float64(len(col)) - mean*mean)
		shift := math.Abs(sum0/n0-sum1/n1) / (std + 1e-12)
		if shift > bestShift {
			bestShift = shift
		}
	}
	if bestShift < 0.2 {
		t.Fatalf("no feature separates classes (best standardized shift %v)", bestShift)
	}
}

func TestMixedColumnsHaveSpecialValues(t *testing.T) {
	d, err := Generate("adult", Config{Rows: 1000, Seed: 5})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	j := d.Table.ColumnByName("capital_gain")
	if j < 0 {
		t.Fatal("capital_gain column missing")
	}
	var zeros int
	for _, v := range d.Table.Column(j) {
		if v == 0 {
			zeros++
		}
	}
	frac := float64(zeros) / 1000
	if frac < 0.7 || frac > 0.95 {
		t.Fatalf("capital_gain special fraction = %v want ~0.85", frac)
	}
}

func TestTrainTestSplitStratified(t *testing.T) {
	d, err := Generate("credit", Config{Rows: 2000, Seed: 6})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	rng := rand.New(rand.NewSource(1))
	train, test, err := d.TrainTestSplit(rng, 0.2)
	if err != nil {
		t.Fatalf("TrainTestSplit: %v", err)
	}
	if train.Rows()+test.Rows() != 2000 {
		t.Fatalf("split sizes %d + %d != 2000", train.Rows(), test.Rows())
	}
	// The rare fraud class must appear in both splits.
	countClass := func(tbl *encoding.Table) int {
		var n int
		for i := 0; i < tbl.Rows(); i++ {
			if int(tbl.Data.At(i, d.Target)) == 1 {
				n++
			}
		}
		return n
	}
	if countClass(train) == 0 || countClass(test) == 0 {
		t.Fatal("stratified split lost the minority class")
	}

	// The split depends on the seed alone. covtype's seven classes each
	// take one permutation from the caller's stream, so drawing them in map
	// order would pair classes with permutations differently from one call
	// to the next.
	cov, err := Generate("covtype", Config{Rows: 700, Seed: 6})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	split := func() *encoding.Table {
		train, _, err := cov.TrainTestSplit(rand.New(rand.NewSource(1)), 0.2)
		if err != nil {
			t.Fatalf("TrainTestSplit: %v", err)
		}
		return train
	}
	want := split()
	for i := 0; i < 20; i++ {
		if !split().Data.Equal(want.Data) {
			t.Fatalf("same-seed split %d differs from the first", i+1)
		}
	}
}

func TestTrainTestSplitErrors(t *testing.T) {
	d, err := Generate("loan", Config{Rows: 100, Seed: 7})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	rng := rand.New(rand.NewSource(1))
	if _, _, err := d.TrainTestSplit(rng, 0); err == nil {
		t.Fatal("expected error for frac 0")
	}
	if _, _, err := d.TrainTestSplit(rng, 1); err == nil {
		t.Fatal("expected error for frac 1")
	}
}

func TestSchemasMatchPaperShape(t *testing.T) {
	// Column-type mix must match what each paper dataset is known for.
	tests := []struct {
		name         string
		wantClasses  int
		wantMixedMin int
		wantCatMin   int // categorical features excluding target
		wantContMin  int
	}{
		{"adult", 2, 2, 6, 2},
		{"covtype", 7, 0, 2, 9},
		{"intrusion", 5, 3, 4, 3},
		{"credit", 2, 0, 0, 10},
		{"loan", 2, 1, 6, 4},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			d, err := Generate(tc.name, Config{Rows: 100, Seed: 8})
			if err != nil {
				t.Fatalf("Generate: %v", err)
			}
			if got := d.Table.Specs[d.Target].NumCategories(); got != tc.wantClasses {
				t.Fatalf("classes = %d want %d", got, tc.wantClasses)
			}
			var mixed, cat, cont int
			for j, s := range d.Table.Specs {
				if j == d.Target {
					continue
				}
				switch s.Kind {
				case encoding.KindMixed:
					mixed++
				case encoding.KindCategorical:
					cat++
				case encoding.KindContinuous:
					cont++
				}
			}
			if mixed < tc.wantMixedMin || cat < tc.wantCatMin || cont < tc.wantContMin {
				t.Fatalf("mixed/cat/cont = %d/%d/%d want >= %d/%d/%d",
					mixed, cat, cont, tc.wantMixedMin, tc.wantCatMin, tc.wantContMin)
			}
		})
	}
}
