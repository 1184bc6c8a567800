package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
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

// TestWarmOpenCopiesNoRow builds a federation into a data directory, then
// again over the same table behind a 1 MiB block cache. Both parties' stores
// match, so the second construction reads none of the table's rows: it must
// allocate less than the one copy of the parties' raw columns that a split
// makes.
func TestWarmOpenCopiesNoRow(t *testing.T) {
	d, err := datasets.Generate("adult", datasets.Config{Rows: 20000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	assignment, err := EvenAssignment(d.Table.Cols(), 2)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.DataDir = t.TempDir()
	opts.BlockCacheMB = 1
	build := func() {
		g, err := NewFromAssignment(d.Table, assignment, 2, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Close(); err != nil {
			t.Fatal(err)
		}
	}
	build()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	build()
	runtime.ReadMemStats(&after)
	split := uint64(d.Table.Rows() * d.Table.Cols() * 8)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("warm construction allocated %d bytes; a split copies %d", got, split)
	if got >= split {
		t.Fatalf("a warm construction allocated %d bytes, no less than the %d bytes of a split of the raw columns", got, split)
	}
}

// TestPartialHitReencodesOnlyTheMiss builds a federation into a data
// directory, trains two rounds and checkpoints, then deletes
// client-1.enc.gtvcol and does it again. Client 0's store matches and must
// not be rewritten; client 1 loads its columns, and must write an image
// byte-identical to the first one; and the second checkpoint must equal the
// first.
func TestPartialHitReencodesOnlyTheMiss(t *testing.T) {
	table, assignment := loanSplit(t, 240, 12, 2)
	dir := t.TempDir()
	path := func(i int) string { return filepath.Join(dir, fmt.Sprintf("client-%d.enc.gtvcol", i)) }
	run := func() []byte {
		opts := DefaultOptions()
		opts.Rounds = 2
		opts.BlockDim = 16
		opts.NoiseDim = 8
		opts.BatchSize = 20
		opts.DataDir = dir
		g, err := NewFromAssignment(table, assignment, 2, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			if err := g.Close(); err != nil {
				t.Error(err)
			}
		}()
		if err := g.Train(nil); err != nil {
			t.Fatal(err)
		}
		ckpt, err := g.Checkpoint(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		blob, err := os.ReadFile(ckpt)
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	cold := run()
	kept, err := os.Stat(path(0))
	if err != nil {
		t.Fatal(err)
	}
	image, err := os.ReadFile(path(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(path(1)); err != nil {
		t.Fatal(err)
	}
	partial := run()
	if now, err := os.Stat(path(0)); err != nil || !now.ModTime().Equal(kept.ModTime()) || now.Size() != kept.Size() {
		t.Fatalf("client 0's matching store was rewritten (%v)", err)
	}
	if again, err := os.ReadFile(path(1)); err != nil || !bytes.Equal(again, image) {
		t.Fatalf("client 1's re-encoded store differs from the cold one (%v)", err)
	}
	sameCheckpoint(t, "cold vs partial hit", cold, partial)
}
