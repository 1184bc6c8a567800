package condvec

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/encoding"
	"repro/internal/gmm"
	"repro/internal/tensor"
)

// The references below are NewSampler and encoding.CategoryFrequencies as
// they stood before the index was built in row passes: each categorical
// column copied out of the table twice, once to count in floats and once to
// counting-sort. TestNewSamplerMatchesReference holds NewSampler to them,
// bit for bit.

func categoryFrequenciesReference(t *encoding.Table, j int) ([]float64, error) {
	if j < 0 || j >= len(t.Specs) || t.Specs[j].Kind != encoding.KindCategorical {
		return nil, fmt.Errorf("encoding: column %d is not categorical", j)
	}
	freq := make([]float64, t.Specs[j].NumCategories())
	for _, v := range t.Column(j) {
		freq[int(v)]++
	}
	n := float64(t.Rows())
	if n > 0 {
		for k := range freq {
			freq[k] /= n
		}
	}
	return freq, nil
}

func newSamplerReference(t *encoding.Table, tr *encoding.Transformer) (*Sampler, error) {
	if t.Rows() == 0 {
		return nil, errors.New("condvec: empty table")
	}
	if t.Rows() > math.MaxInt32 {
		return nil, fmt.Errorf("condvec: %d rows exceed the int32 row-index space", t.Rows())
	}
	spans := tr.CategoricalSpans()
	s := &Sampler{
		spans:    spans,
		numRows:  t.Rows(),
		probs:    make([][]float64, len(spans)),
		rawProbs: make([][]float64, len(spans)),
		catRows:  make([][]int32, len(spans)),
		catOff:   make([][]int32, len(spans)),
		offsets:  make([]int, len(spans)),
	}
	for i, sp := range spans {
		s.offsets[i] = s.width
		s.width += sp.Width

		freq, err := categoryFrequenciesReference(t, sp.Column)
		if err != nil {
			return nil, fmt.Errorf("condvec: span %d: %w", i, err)
		}
		// Log-frequency sampling: p_k proportional to log(1 + count_k).
		probs := make([]float64, len(freq))
		var total float64
		for k, f := range freq {
			probs[k] = math.Log1p(f * float64(t.Rows()))
			total += probs[k]
		}
		if total <= 0 {
			return nil, fmt.Errorf("condvec: column %d has no observed categories", sp.Column)
		}
		for k := range probs {
			probs[k] /= total
		}
		s.probs[i] = probs
		s.rawProbs[i] = freq

		// Counting sort into the flat per-span index: one pass to count,
		// one to place. Ascending row order within each category matches
		// the append order the ragged layout used to produce, so sampling
		// draws identical rows from identical RNG streams.
		col := t.Column(sp.Column)
		off := make([]int32, len(freq)+1)
		for _, v := range col {
			off[int(v)+1]++
		}
		for c := 1; c < len(off); c++ {
			off[c] += off[c-1]
		}
		rows := make([]int32, len(col))
		next := append([]int32(nil), off[:len(freq)]...)
		for row, v := range col {
			c := int(v)
			rows[next[c]] = int32(row)
			next[c]++
		}
		s.catRows[i] = rows
		s.catOff[i] = off
	}
	return s, nil
}

// requireSameFloats compares bit patterns, span by span.
func requireSameFloats(t *testing.T, what string, got, want [][]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d spans, reference %d", what, len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%s: span %d has %d entries, reference %d", what, i, len(got[i]), len(want[i]))
		}
		for k := range want[i] {
			if math.Float64bits(got[i][k]) != math.Float64bits(want[i][k]) {
				t.Fatalf("%s: span %d entry %d = %v, reference %v", what, i, k, got[i][k], want[i][k])
			}
		}
	}
}

// oracleTable builds a rows-row table whose categorical columns have the
// given category counts (each drawn from the first used of them), followed
// by one continuous column.
func oracleTable(t *testing.T, rows int, cats []int, used []int) *encoding.Table {
	t.Helper()
	r := rand.New(rand.NewSource(int64(rows)))
	data := tensor.New(rows, len(cats)+1)
	specs := make([]encoding.ColumnSpec, 0, len(cats)+1)
	for j, k := range cats {
		names := make([]string, k)
		for c := range names {
			names[c] = fmt.Sprint(c)
		}
		specs = append(specs, encoding.ColumnSpec{Name: fmt.Sprint("c", j), Kind: encoding.KindCategorical, Categories: names})
	}
	specs = append(specs, encoding.ColumnSpec{Name: "x", Kind: encoding.KindContinuous})
	for i := 0; i < rows; i++ {
		row := data.RawRow(i)
		for j := range cats {
			// Skewed, so groups differ in size.
			row[j] = float64(r.Intn(used[j]) * r.Intn(2))
		}
		row[len(cats)] = r.NormFloat64()
	}
	tbl, err := encoding.NewTable(specs, data)
	if err != nil {
		t.Fatalf("NewTable: %v", err)
	}
	return tbl
}

func TestNewSamplerMatchesReference(t *testing.T) {
	cases := []struct {
		name       string
		rows       int
		cats, used []int
	}{
		// Category 3 of the first column and categories 7..9 of the third
		// are in no row; the second column has one category.
		{"mixed", 1000, []int{5, 1, 10}, []int{3, 1, 7}},
		{"no categorical column", 300, nil, nil},
		{"one row", 1, []int{2, 3}, []int{2, 3}},
		// Past 256 categories the codes are four bytes wide.
		{"wide", 700, []int{4, 300}, []int{4, 300}},
	}
	for _, tc := range cases {
		tbl := oracleTable(t, tc.rows, tc.cats, tc.used)
		tr, err := encoding.FitTransformer(rand.New(rand.NewSource(1)), tbl, gmm.DefaultConfig())
		if err != nil {
			t.Fatalf("%s: FitTransformer: %v", tc.name, err)
		}
		// The stored copy has 64-row stripes, so every row count above but
		// the first leaves the last stripe short.
		st := encoding.Storage{Dir: t.TempDir(), Name: "raw", BlockRows: 64}
		if err := encoding.WriteRawTable(st, tbl, "oracle"); err != nil {
			t.Fatal(err)
		}
		stored, _, err := encoding.OpenRawTable(st)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			if err := stored.Close(); err != nil {
				t.Error(err)
			}
		})
		want, err := newSamplerReference(tbl, tr)
		if err != nil {
			t.Fatalf("%s: reference: %v", tc.name, err)
		}
		for _, src := range []struct {
			name string
			tbl  *encoding.Table
		}{{"memory", tbl}, {"stored", stored}} {
			what := tc.name + "/" + src.name
			got, err := NewSampler(src.tbl, tr)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			requireSameFloats(t, what+": probs", got.probs, want.probs)
			requireSameFloats(t, what+": rawProbs", got.rawProbs, want.rawProbs)
			if !reflect.DeepEqual(got.catRows, want.catRows) || !reflect.DeepEqual(got.catOff, want.catOff) {
				t.Fatalf("%s: row index differs from the reference", what)
			}
			if !reflect.DeepEqual(got.spans, want.spans) || !reflect.DeepEqual(got.offsets, want.offsets) ||
				got.width != want.width || got.numRows != want.numRows {
				t.Fatalf("%s: layout differs from the reference", what)
			}
			freqs := make([][]float64, len(got.spans))
			for i, sp := range got.spans {
				if freqs[i], err = encoding.CategoryFrequencies(src.tbl, sp.Column); err != nil {
					t.Fatal(err)
				}
			}
			requireSameFloats(t, what+": rawProbs against CategoryFrequencies", got.rawProbs, freqs)
		}
	}
}
