package encoding

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/tensor"
)

// selectColumnsReference is SelectColumns as it stood before it gathered a
// row at a time: one pooled one-column copy per selected column, joined by
// ConcatCols. TestSelectColumnsMatchesReference holds SelectColumns and
// VerticalSplit to it, bit for bit.
func selectColumnsReference(t *Table, cols []int) (*Table, error) {
	d := t.mustDense("SelectColumns")
	specs := make([]ColumnSpec, len(cols))
	mats := make([]*tensor.Dense, len(cols))
	for i, j := range cols {
		if j < 0 || j >= t.Cols() {
			return nil, fmt.Errorf("encoding: column index %d out of range %d", j, t.Cols())
		}
		specs[i] = t.Specs[j]
		mats[i] = d.SliceCols(j, j+1)
	}
	return &Table{Specs: specs, Data: tensor.ConcatCols(mats...)}, nil
}

// wideTable is a rows x 6 table of every kind, with a one-category column
// and a category (index 3 of "grade") no row has.
func wideTable(t *testing.T, rows int) *Table {
	t.Helper()
	r := rand.New(rand.NewSource(30))
	data := tensor.New(rows, 6)
	for i := 0; i < rows; i++ {
		row := data.RawRow(i)
		row[0] = float64(r.Intn(3))
		row[1] = r.NormFloat64()*4 + 10
		row[2] = 0
		row[3] = []float64{0, r.ExpFloat64() * 50}[r.Intn(2)]
		row[4] = float64([]int{0, 1, 2, 4}[r.Intn(4)])
		row[5] = -r.Float64()
	}
	tbl, err := NewTable([]ColumnSpec{
		{Name: "region", Kind: KindCategorical, Categories: []string{"n", "s", "e"}},
		{Name: "age", Kind: KindContinuous},
		{Name: "country", Kind: KindCategorical, Categories: []string{"only"}},
		{Name: "debt", Kind: KindMixed, SpecialValues: []float64{0}},
		{Name: "grade", Kind: KindCategorical, Categories: []string{"a", "b", "c", "d", "e"}},
		{Name: "score", Kind: KindContinuous},
	}, data)
	if err != nil {
		t.Fatalf("NewTable: %v", err)
	}
	return tbl
}

func requireSameTable(t *testing.T, what string, got, want *Table) {
	t.Helper()
	if !reflect.DeepEqual(got.Specs, want.Specs) {
		t.Fatalf("%s: specs %+v, reference %+v", what, got.Specs, want.Specs)
	}
	requireSameMatrix(t, what, got.Data, want.Data)
}

func TestSelectColumnsMatchesReference(t *testing.T) {
	for _, rows := range []int{1, 257, 1001} {
		tbl := wideTable(t, rows)
		for _, cols := range [][]int{
			{0, 1, 2, 3, 4, 5}, // all, in order
			{5, 3, 0},          // reordered
			{2, 2, 4, 2},       // repeated
			{4},
		} {
			what := fmt.Sprintf("%d rows, columns %v", rows, cols)
			got, err := tbl.SelectColumns(cols)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			want, err := selectColumnsReference(tbl, cols)
			if err != nil {
				t.Fatal(err)
			}
			requireSameTable(t, what, got, want)
		}
		assignment := []int{1, 0, 2, 1, 0, 1}
		parts, err := tbl.VerticalSplit(assignment, 3)
		if err != nil {
			t.Fatal(err)
		}
		for p, cols := range [][]int{{1, 4}, {0, 3, 5}, {2}} {
			want, err := selectColumnsReference(tbl, cols)
			if err != nil {
				t.Fatal(err)
			}
			requireSameTable(t, fmt.Sprintf("%d rows, party %d", rows, p), parts[p], want)
		}
	}
}

// TestDeferredSplitMatchesVerticalSplit holds DeferredSplit's parts to
// VerticalSplit's: before any row is copied, each part answers the same
// schema and the row count, allocating less than the copy; each loads the
// same table bit for bit; and the split behind them runs once however many
// parties ask, in whatever order and from however many goroutines: every
// Load returns the first one's tables, and once they exist, loading every
// part again allocates nothing.
func TestDeferredSplitMatchesVerticalSplit(t *testing.T) {
	assignment := []int{1, 0, 2, 1, 0, 1}
	for _, rows := range []int{1, 257, 1001} {
		tbl := wideTable(t, rows)
		want, err := tbl.VerticalSplit(assignment, 3)
		if err != nil {
			t.Fatal(err)
		}
		var parts []Source
		deferred := allocatedBy(func() { parts, err = tbl.DeferredSplit(assignment, 3) })
		if err != nil {
			t.Fatal(err)
		}
		if copied := uint64(rows * tbl.Cols() * 8); rows > 1 && deferred >= copied {
			t.Fatalf("%d rows: DeferredSplit allocated %d bytes before any Load, no less than the %d-byte copy", rows, deferred, copied)
		}
		for p, part := range parts {
			if !reflect.DeepEqual(part.Schema(), want[p].Specs) || part.Rows() != rows {
				t.Fatalf("%d rows, party %d: schema %+v and %d rows, VerticalSplit's %+v and %d", rows, p, part.Schema(), part.Rows(), want[p].Specs, rows)
			}
		}
		loaded := make([][]*Table, 8)
		var wg sync.WaitGroup
		for g := range loaded {
			loaded[g] = make([]*Table, len(parts))
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := range parts {
					p := (g + k) % len(parts)
					loaded[g][p] = parts[p].Load()
				}
			}()
		}
		wg.Wait()
		for p := range parts {
			requireSameTable(t, fmt.Sprintf("%d rows, party %d", rows, p), loaded[0][p], want[p])
			for g := range loaded {
				if loaded[g][p] != loaded[0][p] {
					t.Fatalf("%d rows, party %d: goroutine %d loaded another table: the split ran twice", rows, p, g)
				}
			}
		}
		if again := allocatedBy(func() {
			for _, part := range parts {
				part.Load()
			}
		}); again != 0 {
			t.Fatalf("%d rows: loading every part again allocated %d bytes", rows, again)
		}
	}
}
