package encoding

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/gmm"
	"repro/internal/tensor"
)

// sampleTable builds a small mixed-schema table:
//
//	col 0 "gender": categorical {M, F}
//	col 1 "income": continuous, bimodal
//	col 2 "mortgage": mixed with special value 0
func sampleTable(t *testing.T, rng *rand.Rand, rows int) *Table {
	t.Helper()
	data := tensor.New(rows, 3)
	for i := 0; i < rows; i++ {
		row := data.RawRow(i)
		row[0] = float64(rng.Intn(2))
		if rng.Float64() < 0.5 {
			row[1] = rng.NormFloat64()*2 + 20
		} else {
			row[1] = rng.NormFloat64()*5 + 80
		}
		if rng.Float64() < 0.3 {
			row[2] = 0 // special: no mortgage
		} else {
			row[2] = rng.NormFloat64()*10 + 100
		}
	}
	tbl, err := NewTable([]ColumnSpec{
		{Name: "gender", Kind: KindCategorical, Categories: []string{"M", "F"}},
		{Name: "income", Kind: KindContinuous},
		{Name: "mortgage", Kind: KindMixed, SpecialValues: []float64{0}},
	}, data)
	if err != nil {
		t.Fatalf("NewTable: %v", err)
	}
	return tbl
}

func TestNewTableValidation(t *testing.T) {
	tests := []struct {
		name  string
		specs []ColumnSpec
		data  *tensor.Dense
	}{
		{
			"width mismatch",
			[]ColumnSpec{{Name: "a", Kind: KindContinuous}},
			tensor.New(1, 2),
		},
		{
			"categorical without categories",
			[]ColumnSpec{{Name: "a", Kind: KindCategorical}},
			tensor.New(1, 1),
		},
		{
			"mixed without specials",
			[]ColumnSpec{{Name: "a", Kind: KindMixed}},
			tensor.New(1, 1),
		},
		{
			"category index out of range",
			[]ColumnSpec{{Name: "a", Kind: KindCategorical, Categories: []string{"x"}}},
			tensor.FromRows([][]float64{{3}}),
		},
		{
			"non-integer category",
			[]ColumnSpec{{Name: "a", Kind: KindCategorical, Categories: []string{"x", "y"}}},
			tensor.FromRows([][]float64{{0.5}}),
		},
		{
			"NaN cell",
			[]ColumnSpec{{Name: "a", Kind: KindContinuous}},
			tensor.FromRows([][]float64{{math.NaN()}}),
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewTable(tc.specs, tc.data); err == nil {
				t.Fatal("expected validation error")
			}
		})
	}
}

func TestTransformerLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tbl := sampleTable(t, rng, 400)
	tr, err := FitTransformer(rng, tbl, gmm.DefaultConfig())
	if err != nil {
		t.Fatalf("FitTransformer: %v", err)
	}
	spans := tr.Spans()
	// gender: 1 one-hot span; income: scalar+one-hot; mortgage: scalar+one-hot.
	if len(spans) != 5 {
		t.Fatalf("span count = %d want 5", len(spans))
	}
	if spans[0].Type != SpanOneHot || !spans[0].Categorical || spans[0].Width != 2 {
		t.Fatalf("gender span = %+v", spans[0])
	}
	if spans[1].Type != SpanScalar || spans[1].Width != 1 {
		t.Fatalf("income alpha span = %+v", spans[1])
	}
	if spans[2].Type != SpanOneHot || spans[2].Categorical {
		t.Fatalf("income mode span should not be conditionable: %+v", spans[2])
	}
	// Spans must tile [0, Width) contiguously.
	off := 0
	for _, s := range spans {
		if s.Start != off {
			t.Fatalf("span %+v starts at %d want %d", s, s.Start, off)
		}
		off = s.End()
	}
	if off != tr.Width() {
		t.Fatalf("spans cover %d, width %d", off, tr.Width())
	}
	if got := len(tr.CategoricalSpans()); got != 1 {
		t.Fatalf("categorical spans = %d want 1", got)
	}
}

func TestTransformOneHotValidity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tbl := sampleTable(t, rng, 300)
	tr, err := FitTransformer(rng, tbl, gmm.DefaultConfig())
	if err != nil {
		t.Fatalf("FitTransformer: %v", err)
	}
	enc, err := tr.Transform(rng, tbl)
	if err != nil {
		t.Fatalf("Transform: %v", err)
	}
	if enc.Cols() != tr.Width() {
		t.Fatalf("encoded width %d want %d", enc.Cols(), tr.Width())
	}
	for i := 0; i < enc.Rows(); i++ {
		for _, s := range tr.Spans() {
			if s.Type != SpanOneHot {
				continue
			}
			ones, sum := 0, 0.0
			for j := s.Start; j < s.End(); j++ {
				v := enc.At(i, j)
				sum += v
				if v == 1 {
					ones++
				} else if v != 0 {
					t.Fatalf("row %d span %+v has non-binary value %v", i, s, v)
				}
			}
			if ones != 1 || sum != 1 {
				t.Fatalf("row %d span %+v has %d ones", i, s, ones)
			}
		}
	}
}

func TestTransformScalarRange(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tbl := sampleTable(t, rng, 300)
	tr, err := FitTransformer(rng, tbl, gmm.DefaultConfig())
	if err != nil {
		t.Fatalf("FitTransformer: %v", err)
	}
	enc, err := tr.Transform(rng, tbl)
	if err != nil {
		t.Fatalf("Transform: %v", err)
	}
	for i := 0; i < enc.Rows(); i++ {
		for _, s := range tr.Spans() {
			if s.Type != SpanScalar {
				continue
			}
			if v := enc.At(i, s.Start); v < -1 || v > 1 {
				t.Fatalf("alpha %v outside [-1,1]", v)
			}
		}
	}
}

func TestRoundTripCategorical(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	tbl := sampleTable(t, rng, 200)
	tr, err := FitTransformer(rng, tbl, gmm.DefaultConfig())
	if err != nil {
		t.Fatalf("FitTransformer: %v", err)
	}
	enc, err := tr.Transform(rng, tbl)
	if err != nil {
		t.Fatalf("Transform: %v", err)
	}
	back, err := tr.Inverse(enc)
	if err != nil {
		t.Fatalf("Inverse: %v", err)
	}
	for i := 0; i < tbl.Rows(); i++ {
		if back.Data.At(i, 0) != tbl.Data.At(i, 0) {
			t.Fatalf("row %d categorical round trip %v -> %v", i, tbl.Data.At(i, 0), back.Data.At(i, 0))
		}
	}
}

func TestRoundTripContinuousAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tbl := sampleTable(t, rng, 500)
	tr, err := FitTransformer(rng, tbl, gmm.DefaultConfig())
	if err != nil {
		t.Fatalf("FitTransformer: %v", err)
	}
	enc, err := tr.Transform(rng, tbl)
	if err != nil {
		t.Fatalf("Transform: %v", err)
	}
	back, err := tr.Inverse(enc)
	if err != nil {
		t.Fatalf("Inverse: %v", err)
	}
	// Mode-specific normalization is lossy only via the [-1,1] clip; for
	// in-distribution data reconstruction should be near-exact.
	var worst float64
	for i := 0; i < tbl.Rows(); i++ {
		d := math.Abs(back.Data.At(i, 1) - tbl.Data.At(i, 1))
		if d > worst {
			worst = d
		}
	}
	if worst > 1.0 {
		t.Fatalf("continuous round-trip worst error %v", worst)
	}
}

func TestRoundTripMixedSpecials(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	tbl := sampleTable(t, rng, 300)
	tr, err := FitTransformer(rng, tbl, gmm.DefaultConfig())
	if err != nil {
		t.Fatalf("FitTransformer: %v", err)
	}
	enc, err := tr.Transform(rng, tbl)
	if err != nil {
		t.Fatalf("Transform: %v", err)
	}
	back, err := tr.Inverse(enc)
	if err != nil {
		t.Fatalf("Inverse: %v", err)
	}
	for i := 0; i < tbl.Rows(); i++ {
		orig := tbl.Data.At(i, 2)
		got := back.Data.At(i, 2)
		if orig == 0 {
			if got != 0 {
				t.Fatalf("row %d special value lost: %v", i, got)
			}
		} else if math.Abs(got-orig) > 5 {
			t.Fatalf("row %d mixed continuous error %v vs %v", i, got, orig)
		}
	}
}

func TestCategoryFrequencies(t *testing.T) {
	data := tensor.FromRows([][]float64{{0}, {0}, {1}, {0}})
	tbl, err := NewTable([]ColumnSpec{{Name: "c", Kind: KindCategorical, Categories: []string{"a", "b"}}}, data)
	if err != nil {
		t.Fatalf("NewTable: %v", err)
	}
	freq, err := CategoryFrequencies(tbl, 0)
	if err != nil {
		t.Fatalf("CategoryFrequencies: %v", err)
	}
	if freq[0] != 0.75 || freq[1] != 0.25 {
		t.Fatalf("freq = %v", freq)
	}
	if _, err := CategoryFrequencies(tbl, 5); err == nil {
		t.Fatal("expected error for bad column")
	}
}

func TestVerticalSplitAndConcat(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tbl := sampleTable(t, rng, 50)
	parts, err := tbl.VerticalSplit([]int{0, 1, 0}, 2)
	if err != nil {
		t.Fatalf("VerticalSplit: %v", err)
	}
	if parts[0].Cols() != 2 || parts[1].Cols() != 1 {
		t.Fatalf("split widths = %d,%d", parts[0].Cols(), parts[1].Cols())
	}
	if parts[0].Specs[0].Name != "gender" || parts[0].Specs[1].Name != "mortgage" {
		t.Fatalf("party 0 columns = %v", []string{parts[0].Specs[0].Name, parts[0].Specs[1].Name})
	}
	// Row alignment must be preserved.
	for i := 0; i < tbl.Rows(); i++ {
		if parts[1].Data.At(i, 0) != tbl.Data.At(i, 1) {
			t.Fatalf("row %d misaligned after split", i)
		}
	}
	joined, err := ConcatColumns(parts...)
	if err != nil {
		t.Fatalf("ConcatColumns: %v", err)
	}
	if joined.Cols() != 3 {
		t.Fatalf("joined cols = %d", joined.Cols())
	}
}

func TestVerticalSplitErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	tbl := sampleTable(t, rng, 10)
	if _, err := tbl.VerticalSplit([]int{0, 0}, 2); err == nil {
		t.Fatal("expected length-mismatch error")
	}
	if _, err := tbl.VerticalSplit([]int{0, 0, 0}, 2); err == nil {
		t.Fatal("expected empty-party error")
	}
	if _, err := tbl.VerticalSplit([]int{0, 5, 1}, 2); err == nil {
		t.Fatal("expected invalid-party error")
	}
	if _, err := tbl.VerticalSplit([]int{0, 0, 0}, -1); err == nil {
		t.Fatal("expected negative-party-count error")
	}
}

func TestShuffleRowsKeepsAlignmentAcrossParties(t *testing.T) {
	// The training-with-shuffling invariant: two parties sharing a seed
	// produce permutations that keep rows aligned.
	rng := rand.New(rand.NewSource(9))
	tbl := sampleTable(t, rng, 40)
	parts, err := tbl.VerticalSplit([]int{0, 1, 1}, 2)
	if err != nil {
		t.Fatalf("VerticalSplit: %v", err)
	}
	seed := int64(12345)
	permA := rand.New(rand.NewSource(seed)).Perm(tbl.Rows())
	permB := rand.New(rand.NewSource(seed)).Perm(tbl.Rows())
	a := parts[0].ShuffleRows(permA)
	b := parts[1].ShuffleRows(permB)
	joined, err := ConcatColumns(a, b)
	if err != nil {
		t.Fatalf("ConcatColumns: %v", err)
	}
	// Every joined row must equal some original row (alignment preserved).
	orig, err := ConcatColumns(parts...)
	if err != nil {
		t.Fatalf("ConcatColumns: %v", err)
	}
	for i := 0; i < joined.Rows(); i++ {
		src := permA[i]
		for j := 0; j < joined.Cols(); j++ {
			if joined.Data.At(i, j) != orig.Data.At(src, j) {
				t.Fatalf("row %d col %d broken alignment", i, j)
			}
		}
	}
}

// Property: for random categorical-only tables, Transform->Inverse is exact.
func TestQuickCategoricalRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 1 + rng.Intn(40)
		k := 2 + rng.Intn(5)
		data := tensor.New(rows, 1)
		for i := 0; i < rows; i++ {
			data.Set(i, 0, float64(rng.Intn(k)))
		}
		cats := make([]string, k)
		for i := range cats {
			cats[i] = string(rune('a' + i))
		}
		tbl, err := NewTable([]ColumnSpec{{Name: "c", Kind: KindCategorical, Categories: cats}}, data)
		if err != nil {
			return false
		}
		tr, err := FitTransformer(rng, tbl, gmm.DefaultConfig())
		if err != nil {
			return false
		}
		enc, err := tr.Transform(rng, tbl)
		if err != nil {
			return false
		}
		back, err := tr.Inverse(enc)
		if err != nil {
			return false
		}
		return back.Data.Equal(tbl.Data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestSelectColumnsOutOfRange(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	tbl := sampleTable(t, rng, 5)
	if _, err := tbl.SelectColumns([]int{0, 7}); err == nil {
		t.Fatal("expected out-of-range error")
	}
}

func TestColumnByName(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tbl := sampleTable(t, rng, 5)
	if got := tbl.ColumnByName("income"); got != 1 {
		t.Fatalf("ColumnByName(income) = %d", got)
	}
	if got := tbl.ColumnByName("nope"); got != -1 {
		t.Fatalf("ColumnByName(nope) = %d", got)
	}
}

func TestInverseWidthMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	tbl := sampleTable(t, rng, 30)
	tr, err := FitTransformer(rng, tbl, gmm.DefaultConfig())
	if err != nil {
		t.Fatalf("FitTransformer: %v", err)
	}
	if _, err := tr.Inverse(tensor.New(5, tr.Width()+1)); err == nil {
		t.Fatal("expected width mismatch error")
	}
}

func TestTransformSchemaMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	tbl := sampleTable(t, rng, 30)
	tr, err := FitTransformer(rng, tbl, gmm.DefaultConfig())
	if err != nil {
		t.Fatalf("FitTransformer: %v", err)
	}
	sub, err := tbl.SelectColumns([]int{0})
	if err != nil {
		t.Fatalf("SelectColumns: %v", err)
	}
	if _, err := tr.Transform(rng, sub); err == nil {
		t.Fatal("expected column-count mismatch error")
	}
}

func TestTransformInvalidCategory(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	tbl := sampleTable(t, rng, 30)
	tr, err := FitTransformer(rng, tbl, gmm.DefaultConfig())
	if err != nil {
		t.Fatalf("FitTransformer: %v", err)
	}
	// Corrupt a categorical cell after validation.
	bad := tbl.GatherRows([]int{0, 1, 2})
	bad.Data.Set(1, 0, 99)
	if _, err := tr.Transform(rng, bad); err == nil {
		t.Fatal("expected invalid-category error")
	}
}

func TestMixedColumnAllSpecialValues(t *testing.T) {
	// Degenerate mixed column: every value is special. Encoding must not
	// crash and the round trip must preserve the specials.
	rng := rand.New(rand.NewSource(23))
	data := tensor.New(20, 1)
	tbl, err := NewTable([]ColumnSpec{
		{Name: "m", Kind: KindMixed, SpecialValues: []float64{0}},
	}, data)
	if err != nil {
		t.Fatalf("NewTable: %v", err)
	}
	tr, err := FitTransformer(rng, tbl, gmm.DefaultConfig())
	if err != nil {
		t.Fatalf("FitTransformer: %v", err)
	}
	enc, err := tr.Transform(rng, tbl)
	if err != nil {
		t.Fatalf("Transform: %v", err)
	}
	back, err := tr.Inverse(enc)
	if err != nil {
		t.Fatalf("Inverse: %v", err)
	}
	for i := 0; i < 20; i++ {
		if back.Data.At(i, 0) != 0 {
			t.Fatalf("row %d special value lost", i)
		}
	}
}
