package core

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/coldata"
	"repro/internal/datasets"
	"repro/internal/encoding"
	"repro/internal/tensor"
)

// codeColumns returns the image column of each categorical column of specs,
// in order: an encoded image holds one column per span, a categorical
// column one span and a continuous or mixed column two.
func codeColumns(specs []encoding.ColumnSpec) []int {
	var cols []int
	s := 0
	for _, spec := range specs {
		if spec.Kind == encoding.KindCategorical {
			cols = append(cols, s)
			s++
			continue
		}
		s += 2
	}
	return cols
}

// TestStaleStoreTrainsOnItsImage builds a federation over one table into a
// data directory, then one over a different table of the same shape into
// the same directory. The store key is the seed, the GMM configuration, the
// row count and the schema, not the rows, so the second construction opens
// the first one's images. Each party must then draw idx_p from the image it
// gathers from: every row a training CV batch names carries the CV's
// category in the party's stored image.
func TestStaleStoreTrainsOnItsImage(t *testing.T) {
	dir := t.TempDir()
	opts := DefaultOptions()
	opts.DataDir = dir
	build := func(seed int64) (*GTV, []*encoding.Table) {
		d, err := datasets.Generate("adult", datasets.Config{Rows: 3000, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		assignment, err := EvenAssignment(d.Table.Cols(), 2)
		if err != nil {
			t.Fatal(err)
		}
		parts, err := d.Table.VerticalSplit(assignment, 2)
		if err != nil {
			t.Fatal(err)
		}
		g, err := NewFromAssignment(d.Table, assignment, 2, opts)
		if err != nil {
			t.Fatal(err)
		}
		return g, parts
	}
	stamp := func(i int) os.FileInfo {
		fi, err := os.Stat(filepath.Join(dir, fmt.Sprintf("client-%d.enc.gtvcol", i)))
		if err != nil {
			t.Fatal(err)
		}
		return fi
	}
	first, _ := build(1)
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}
	before := []os.FileInfo{stamp(0), stamp(1)}
	g, parts := build(2)
	defer func() {
		if err := g.Close(); err != nil {
			t.Error(err)
		}
	}()
	for i, fi := range before {
		if now := stamp(i); !now.ModTime().Equal(fi.ModTime()) || now.Size() != fi.Size() {
			t.Fatalf("client %d re-encoded its store: the second construction was no hit", i)
		}
	}
	for i, c := range g.clients {
		r, err := coldata.Open(filepath.Join(dir, fmt.Sprintf("client-%d.enc.gtvcol", i)), 0)
		if err != nil {
			t.Fatal(err)
		}
		cols := codeColumns(parts[i].Specs)
		for batch := 0; batch < 5; batch++ {
			b, err := c.SampleCV(64, false)
			if err != nil {
				t.Fatal(err)
			}
			rows := make([]int32, len(b.Rows))
			for k, row := range b.Rows {
				rows[k] = int32(row)
			}
			codes := tensor.New(len(rows), r.Cols())
			if err := r.GatherRowsInto(rows, codes); err != nil {
				t.Fatal(err)
			}
			for k, ch := range b.Choices {
				if got := codes.At(k, cols[ch.Span]); got != float64(ch.Category) {
					t.Fatalf("client %d: row %d, drawn for category %d of span %d, holds category %v in the image",
						i, rows[k], ch.Category, ch.Span, got)
				}
			}
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// rewriteImage replaces the gtvcol file at path by a copy, written afresh
// (so every block CRC matches), whose cell (row, col) holds v; the copy
// keeps the metadata an encoded image carries.
func rewriteImage(t *testing.T, path string, row, col int, v float64) {
	t.Helper()
	r, err := coldata.Open(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	cols := make([][]float64, r.Cols())
	for j := range cols {
		if cols[j], err = r.Column(j); err != nil {
			t.Fatal(err)
		}
	}
	cols[col][row] = v
	w, err := coldata.Create(path+".tampered", r.Cols(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"fingerprint", "transformer"} {
		if err := w.SetMeta(name, r.Meta(name)); err != nil {
			t.Fatal(err)
		}
	}
	cells := make([]float64, len(cols))
	for i := 0; i < r.Rows(); i++ {
		for j := range cols {
			cells[j] = cols[j][i]
		}
		if err := w.AppendRow(cells); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(path+".tampered", path); err != nil {
		t.Fatal(err)
	}
}

// TestImageCodeGuard stores a party's image, then rewrites one cell of its
// first categorical column's code column with a value that is no category
// of the column: a fraction, a negative number and the category count
// itself. Opening the store again must fail construction, for the
// centralized trainer and for a federation's party, naming the image
// column and the raw column.
func TestImageCodeGuard(t *testing.T) {
	d, err := datasets.Generate("adult", datasets.Config{Rows: 300, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	assignment, err := EvenAssignment(d.Table.Cols(), 2)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := d.Table.VerticalSplit(assignment, 2)
	if err != nil {
		t.Fatal(err)
	}
	trainers := []struct {
		name  string
		specs []encoding.ColumnSpec
		build func(opts Options) (interface{ Close() error }, error)
	}{
		{"central", d.Table.Specs, func(opts Options) (interface{ Close() error }, error) {
			return NewCentralized(d.Table, opts)
		}},
		{"client-1", parts[1].Specs, func(opts Options) (interface{ Close() error }, error) {
			return NewFromAssignment(d.Table, assignment, 2, opts)
		}},
	}
	for _, tr := range trainers {
		var spec encoding.ColumnSpec
		for _, s := range tr.specs {
			if s.Kind == encoding.KindCategorical {
				spec = s
				break
			}
		}
		col := codeColumns(tr.specs)[0]
		for _, bad := range []float64{1.5, -1, float64(spec.NumCategories())} {
			opts := DefaultOptions()
			opts.DataDir = t.TempDir()
			m, err := tr.build(opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}
			rewriteImage(t, filepath.Join(opts.DataDir, tr.name+".enc.gtvcol"), 7, col, bad)
			m, err = tr.build(opts)
			if err == nil {
				_ = m.Close()
				t.Fatalf("%s: an image holding %v in column %q's codes was accepted", tr.name, bad, spec.Name)
			}
			for _, want := range []string{fmt.Sprintf("encoded column %d (column %q)", col, spec.Name), fmt.Sprintf("row 7 holds %v", bad)} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("%s, %v: error %q does not say %q", tr.name, bad, err, want)
				}
			}
		}
	}
}
