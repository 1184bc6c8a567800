package condvec

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
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

// referenceSampler is the Sampler as it stood before its row index became
// category codes and a rank: per span, one int32 row list grouped by
// category (ascending rows within a group), catOff[i][c] the start of
// category c's group, with a trailing end sentinel.
type referenceSampler struct {
	spans           []encoding.Span
	width, numRows  int
	probs, rawProbs [][]float64
	catRows, catOff [][]int32
	offsets         []int
}

func newSamplerReference(t *encoding.Table, tr *encoding.Transformer) (*referenceSampler, error) {
	if t.Rows() == 0 {
		return nil, errors.New("condvec: empty table")
	}
	if t.Rows() > math.MaxInt32 {
		return nil, fmt.Errorf("condvec: %d rows exceed the int32 row-index space", t.Rows())
	}
	spans := tr.CategoricalSpans()
	s := &referenceSampler{
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

// candidates returns the (possibly empty) row group matching category cat
// of span i.
func (s *referenceSampler) candidates(i, cat int) []int32 {
	return s.catRows[i][s.catOff[i][cat]:s.catOff[i][cat+1]]
}

// sample is Sample (probs) and SampleSynthesis (rawProbs) as they were:
// both returned a row per CV.
func (s *referenceSampler) sample(rng *rand.Rand, batch int, probs [][]float64) *Batch {
	cv := tensor.New(batch, s.width)
	rows := make([]int, batch)
	choices := make([]Choice, batch)
	hot := make([]int, batch)
	for b := 0; b < batch; b++ {
		if len(s.spans) == 0 {
			rows[b] = rng.Intn(s.numRows)
			choices[b] = Choice{Span: -1, Category: -1}
			hot[b] = -1
			continue
		}
		span := rng.Intn(len(s.spans))
		cat := sampleDiscrete(rng, probs[span])
		candidates := s.candidates(span, cat)
		if len(candidates) == 0 {
			rows[b] = rng.Intn(s.numRows)
		} else {
			rows[b] = int(candidates[rng.Intn(len(candidates))])
		}
		cv.Set(b, s.offsets[span]+cat, 1)
		choices[b] = Choice{Span: span, Category: cat}
		hot[b] = s.offsets[span] + cat
	}
	return &Batch{CV: cv, Rows: rows, Choices: choices, Hot: hot}
}

// sampleFixed is SampleFixed as it was, with a row per CV.
func (s *referenceSampler) sampleFixed(rng *rand.Rand, batch, spanIdx, category int) *Batch {
	cv := tensor.New(batch, s.width)
	rows := make([]int, batch)
	choices := make([]Choice, batch)
	hot := make([]int, batch)
	candidates := s.candidates(spanIdx, category)
	for b := 0; b < batch; b++ {
		cv.Set(b, s.offsets[spanIdx]+category, 1)
		if len(candidates) > 0 {
			rows[b] = int(candidates[rng.Intn(len(candidates))])
		} else {
			rows[b] = rng.Intn(s.numRows)
		}
		choices[b] = Choice{Span: spanIdx, Category: category}
		hot[b] = s.offsets[spanIdx] + category
	}
	return &Batch{CV: cv, Rows: rows, Choices: choices, Hot: hot}
}

// reindex is Reindex as it was: every list entry renamed through the
// inverse permutation, each group keeping its pre-shuffle order.
func (s *referenceSampler) reindex(perm []int) {
	inv := make([]int, len(perm))
	for k, old := range perm {
		inv[old] = k
	}
	for _, lst := range s.catRows {
		for k, old := range lst {
			lst[k] = int32(inv[old])
		}
	}
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
// by one continuous column. fill picks the layout of the categories:
// "skewed" (random, half the rows category 0), "sorted" (ascending, so each
// used category fills whole blocks) or "constant" (every row holds
// category used-1).
func oracleTable(t *testing.T, rows int, cats, used []int, fill string) *encoding.Table {
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
			switch fill {
			case "skewed":
				row[j] = float64(r.Intn(used[j]) * r.Intn(2))
			case "sorted":
				row[j] = float64(i * used[j] / rows)
			case "constant":
				row[j] = float64(used[j] - 1)
			default:
				t.Fatalf("unknown fill %q", fill)
			}
		}
		row[len(cats)] = r.NormFloat64()
	}
	tbl, err := encoding.NewTable(specs, data)
	if err != nil {
		t.Fatalf("NewTable: %v", err)
	}
	return tbl
}

// requireSameIndex holds got's index to want's row lists: the count of
// every category of every span, and its u-th row for every u. It also
// bounds the index's size: the codes' width a row, the rank's quarter byte
// a row, and a rank row of rounding.
func requireSameIndex(t *testing.T, what string, got *Sampler, want *referenceSampler) {
	t.Helper()
	if len(got.index) != len(want.catOff) {
		t.Fatalf("%s: %d span indexes, reference %d", what, len(got.index), len(want.catOff))
	}
	for i := range got.index {
		x := &got.index[i]
		off := want.catOff[i]
		if x.cats() != len(off)-1 {
			t.Fatalf("%s: span %d indexes %d categories, reference %d", what, i, x.cats(), len(off)-1)
		}
		for c := 0; c < x.cats(); c++ {
			group := want.catRows[i][off[c]:off[c+1]]
			if n := x.count(c); n != len(group) {
				t.Fatalf("%s: span %d category %d counts %d rows, reference %d", what, i, c, n, len(group))
			}
			for u, r := range group {
				if g := x.row(c, u); g != int(r) {
					t.Fatalf("%s: span %d category %d row %d is %d, reference %d", what, i, c, u, g, r)
				}
			}
		}
		rows := want.numRows
		if size := len(x.codes) + 4*len(x.rank); size > rows*x.width+rows/4+8*x.cats() {
			t.Fatalf("%s: span %d index is %d bytes for %d rows of %d-byte codes and %d categories", what, i, size, rows, x.width, x.cats())
		}
	}
}

// requireSameDraws runs one draw of the sampler and of the reference from
// equal generators and wants equal CVs, choices and hot positions, the
// reference's rows from a training draw and none from a synthesis draw,
// and both generators left at the same point.
func requireSameDraws(t *testing.T, what string, training bool, got func(*rand.Rand) (*Batch, error), want func(*rand.Rand) *Batch) {
	t.Helper()
	gotRng, wantRng := rand.New(rand.NewSource(7)), rand.New(rand.NewSource(7))
	g, err := got(gotRng)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	w := want(wantRng)
	if !reflect.DeepEqual(g.CV.Data(), w.CV.Data()) || g.CV.Cols() != w.CV.Cols() {
		t.Fatalf("%s: CVs differ from the reference", what)
	}
	if !reflect.DeepEqual(g.Choices, w.Choices) || !reflect.DeepEqual(g.Hot, w.Hot) {
		t.Fatalf("%s: choices or hot positions differ from the reference", what)
	}
	if training && !reflect.DeepEqual(g.Rows, w.Rows) {
		t.Fatalf("%s: rows %v, reference %v", what, g.Rows, w.Rows)
	}
	if !training && g.Rows != nil {
		t.Fatalf("%s: a synthesis batch carries %d rows", what, len(g.Rows))
	}
	if a, b := gotRng.Int63(), wantRng.Int63(); a != b {
		t.Fatalf("%s: the generator is left elsewhere than the reference leaves it", what)
	}
}

func TestNewSamplerMatchesReference(t *testing.T) {
	cases := []struct {
		name       string
		rows       int
		cats, used []int
		fill       string
	}{
		// Category 3 of the first column and categories 7..9 of the third
		// are in no row; the second column has one category. 1000 rows are
		// no multiple of any of the three columns' blocks (128, 64 and 256
		// rows).
		{"mixed", 1000, []int{5, 1, 10}, []int{3, 1, 7}, "skewed"},
		{"no categorical column", 300, nil, nil, "skewed"},
		{"one row", 1, []int{2, 3}, []int{2, 3}, "skewed"},
		// One block and one row past it.
		{"ragged last block", 65, []int{4}, []int{4}, "skewed"},
		// Each category fills whole 64-row blocks.
		{"sorted", 2000, []int{3, 4}, []int{3, 2}, "sorted"},
		{"one category in every row", 500, []int{4, 1}, []int{2, 1}, "constant"},
		// Past 256 categories the codes are two bytes wide, past 65 536 four.
		{"wide", 700, []int{4, 300}, []int{4, 300}, "skewed"},
		{"widest", 300, []int{1<<16 + 5}, []int{1<<16 + 5}, "sorted"},
	}
	for _, tc := range cases {
		tbl := oracleTable(t, tc.rows, tc.cats, tc.used, tc.fill)
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
		src, _, err := encoding.OpenRawTable(st)
		if err != nil {
			t.Fatal(err)
		}
		stored, err := src.Load()
		if err != nil {
			t.Fatal(err)
		}
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
			requireSameIndex(t, what, got, want)
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

		got, err := NewSampler(tbl, tr)
		if err != nil {
			t.Fatal(err)
		}
		requireSameDraws(t, tc.name+"/Sample", true,
			func(r *rand.Rand) (*Batch, error) { return got.Sample(r, 300) },
			func(r *rand.Rand) *Batch { return want.sample(r, 300, want.probs) })
		requireSameDraws(t, tc.name+"/SampleSynthesis", false,
			func(r *rand.Rand) (*Batch, error) { return got.SampleSynthesis(r, 300) },
			func(r *rand.Rand) *Batch { return want.sample(r, 300, want.rawProbs) })
		for i, sp := range want.spans {
			// Every category of the narrow columns, absent ones included
			// (their draws are uniform rows); the widest column's first few.
			for c := 0; c < min(sp.Width, 12); c++ {
				requireSameDraws(t, fmt.Sprintf("%s/SampleFixed(%d,%d)", tc.name, i, c), false,
					func(r *rand.Rand) (*Batch, error) { return got.SampleFixed(r, 40, i, c) },
					func(r *rand.Rand) *Batch { return want.sampleFixed(r, 40, i, c) })
			}
		}

		// Reindex keeps each category's rows; the old one kept a group in
		// its pre-shuffle order, the index lists rows ascending.
		perm := rand.New(rand.NewSource(int64(tc.rows))).Perm(tc.rows)
		if err := got.Reindex(perm); err != nil {
			t.Fatal(err)
		}
		want.reindex(perm)
		for i := range want.catRows {
			for c := 0; c+1 < len(want.catOff[i]); c++ {
				group := want.catRows[i][want.catOff[i][c]:want.catOff[i][c+1]]
				sort.Slice(group, func(a, b int) bool { return group[a] < group[b] })
			}
		}
		requireSameIndex(t, tc.name+"/Reindex", got, want)
	}
}
