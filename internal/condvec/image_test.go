package condvec

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/datasets"
	"repro/internal/encoding"
	"repro/internal/gmm"
)

// TestImageSamplerMatchesTableSampler builds the index of every stand-in
// dataset, and of tables with spans of 300 and 65 541 categories (two- and
// four-byte codes), from the encoded image's code columns, the image in
// memory and stored in 64-row stripes, and holds it to the index built from
// the table's rows, byte for byte.
func TestImageSamplerMatchesTableSampler(t *testing.T) {
	type source struct {
		name string
		tbl  *encoding.Table
	}
	var sources []source
	for _, name := range datasets.Names() {
		d, err := datasets.Generate(name, datasets.Config{Rows: 700, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		sources = append(sources, source{name, d.Table})
	}
	sources = append(sources,
		source{"wide", oracleTable(t, 700, []int{4, 300}, []int{4, 300}, "skewed")},
		source{"widest", oracleTable(t, 300, []int{1<<16 + 5}, []int{1<<16 + 5}, "sorted")})
	for _, src := range sources {
		for _, st := range []encoding.Storage{{}, {Dir: t.TempDir(), Name: "party", BlockRows: 64}} {
			what := src.name + "/memory"
			if st.Enabled() {
				what = src.name + "/stored"
			}
			tr, image, err := encoding.OpenOrEncode(st, src.tbl, 5, gmm.DefaultConfig())
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			want, err := NewSampler(src.tbl, tr)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			got, err := NewImageSampler(&image, tr)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			if err := image.Close(); err != nil {
				t.Fatal(err)
			}
			if len(want.index) == 0 {
				t.Fatalf("%s: no categorical span", what)
			}
			for i := range want.index {
				g, w := &got.index[i], &want.index[i]
				if !bytes.Equal(g.codes, w.codes) || !reflect.DeepEqual(g.rank, w.rank) ||
					g.width != w.width || g.shift != w.shift || g.blocks != w.blocks || g.rows != w.rows {
					t.Fatalf("%s: span %d's index differs from the table's", what, i)
				}
			}
			requireSameFloats(t, what+": probs", got.probs, want.probs)
			requireSameFloats(t, what+": rawProbs", got.rawProbs, want.rawProbs)
			if len(got.index) != len(want.index) || !reflect.DeepEqual(got.spans, want.spans) ||
				!reflect.DeepEqual(got.offsets, want.offsets) || got.width != want.width || got.numRows != want.numRows {
				t.Fatalf("%s: layout differs from the table's", what)
			}
		}
	}
}
