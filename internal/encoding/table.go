// Package encoding implements the tabular feature engineering used by
// CTGAN/CTAB-GAN and therefore by GTV: one-hot encoding for categorical
// columns, mode-specific normalization (via a per-column Gaussian mixture)
// for continuous columns, and the mixed-type encoder for columns that hold
// both special discrete values and a continuous part. A fitted Transformer
// maps raw tables to the GAN's training representation and back.
package encoding

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/tensor"
)

// ColumnKind classifies a raw table column.
type ColumnKind int

// Column kinds.
const (
	// KindCategorical columns hold one of a finite set of categories,
	// stored as 0-based category indices.
	KindCategorical ColumnKind = iota + 1
	// KindContinuous columns hold real values.
	KindContinuous
	// KindMixed columns hold real values interleaved with special discrete
	// values (e.g. 0 meaning "no mortgage"), per the CTAB-GAN encoder.
	KindMixed
)

// ColumnSpec describes one raw column.
type ColumnSpec struct {
	Name string
	Kind ColumnKind
	// Categories names the categories of a categorical column; cells store
	// indices into this slice. Required for KindCategorical.
	Categories []string
	// SpecialValues lists the discrete special values of a mixed column.
	// Required (non-empty) for KindMixed.
	SpecialValues []float64
}

// NumCategories returns the category count of a categorical column.
func (s *ColumnSpec) NumCategories() int { return len(s.Categories) }

// Validate checks internal consistency of the spec.
func (s *ColumnSpec) Validate() error {
	switch s.Kind {
	case KindCategorical:
		if len(s.Categories) < 1 {
			return fmt.Errorf("encoding: categorical column %q has no categories", s.Name)
		}
	case KindContinuous:
		// nothing extra
	case KindMixed:
		if len(s.SpecialValues) == 0 {
			return fmt.Errorf("encoding: mixed column %q has no special values", s.Name)
		}
	default:
		return fmt.Errorf("encoding: column %q has invalid kind %d", s.Name, int(s.Kind))
	}
	return nil
}

// Source is a party's raw table as OpenOrEncode reads it. The schema and
// the row count, which key the party's store, are always at hand; the rows
// are read only when the store misses and the party fits and encodes. A
// *Table is its own source; DeferredSplit's parts copy their columns out of
// the parent table, and OpenRawTable's stored split reads its file, only
// when first loaded.
type Source interface {
	// Schema returns the column specs.
	Schema() []ColumnSpec
	// Rows returns the row count.
	Rows() int
	// Load returns the table, materializing its rows if they are not yet.
	Load() (*Table, error)
}

// Table is a raw tabular dataset: one float64 cell per row and column,
// held in memory. Categorical cells store 0-based category indices.
type Table struct {
	Specs []ColumnSpec
	//shape:(R,C)
	Data *tensor.Dense
}

// NewTable validates and wraps specs+data into a Table.
//
//shape:in(R,C)
func NewTable(specs []ColumnSpec, data *tensor.Dense) (*Table, error) {
	if data.Cols() != len(specs) {
		return nil, fmt.Errorf("encoding: %d specs for %d data columns", len(specs), data.Cols())
	}
	if err := validateSpecs(specs); err != nil {
		return nil, err
	}
	for i := 0; i < data.Rows(); i++ {
		row := data.RawRow(i)
		for j := range specs {
			v := row[j]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("encoding: row %d column %q is not finite", i, specs[j].Name)
			}
			if specs[j].Kind == KindCategorical {
				//lint:ignore floateq category indices must be exactly integral; Trunc round-trip is the intended exactness test
				if v != math.Trunc(v) || v < 0 || int(v) >= len(specs[j].Categories) {
					return nil, fmt.Errorf("encoding: row %d column %q has invalid category index %v", i, specs[j].Name, v)
				}
			}
		}
	}
	return &Table{Specs: specs, Data: data}, nil
}

// Schema returns the column specs (Source).
func (t *Table) Schema() []ColumnSpec { return t.Specs }

// Load returns t itself (Source).
func (t *Table) Load() (*Table, error) { return t, nil }

// Rows returns the number of rows. Row and column counts are shape
// metadata the protocol discloses by design (the server sizes batches and
// splits with them), not row values.
//
//privacy:sanitizer table shape metadata (row count)
func (t *Table) Rows() int { return t.Data.Rows() }

// Cols returns the number of columns.
//
//privacy:sanitizer table shape metadata (column count)
func (t *Table) Cols() int { return t.Data.Cols() }

// Column returns a copy of column j's raw values.
func (t *Table) Column(j int) []float64 { return t.Data.Col(j) }

// ScanRows streams every row through fn in order. The row slice is only
// valid during the callback.
func (t *Table) ScanRows(fn func(i int, row []float64) error) error {
	for i := 0; i < t.Data.Rows(); i++ {
		if err := fn(i, t.Data.RawRow(i)); err != nil {
			return err
		}
	}
	return nil
}

// ColumnByName returns the index of the named column, or -1.
func (t *Table) ColumnByName(name string) int {
	for j := range t.Specs {
		if t.Specs[j].Name == name {
			return j
		}
	}
	return -1
}

// SelectColumns returns a new Table containing the given columns, in order
// (a column may repeat): VerticalSplit's one-party case.
func (t *Table) SelectColumns(cols []int) (*Table, error) {
	for _, j := range cols {
		if j < 0 || j >= t.Cols() {
			return nil, fmt.Errorf("encoding: column index %d out of range %d", j, t.Cols())
		}
	}
	return t.selectParts([][]int{cols})[0], nil
}

// SliceRows returns a new Table with rows [from, to).
func (t *Table) SliceRows(from, to int) *Table {
	return &Table{Specs: t.Specs, Data: t.Data.SliceRows(from, to)}
}

// GatherRows returns a new Table whose row k is t's row idx[k].
func (t *Table) GatherRows(idx []int) *Table {
	return &Table{Specs: t.Specs, Data: t.Data.GatherRows(idx)}
}

// ShuffleRows returns a new Table with rows permuted by perm.
func (t *Table) ShuffleRows(perm []int) *Table {
	return &Table{Specs: t.Specs, Data: t.Data.ShuffleRows(perm)}
}

// ConcatColumns horizontally joins tables that share a row count, as the
// server does when assembling the final synthetic dataset from per-client
// slices.
func ConcatColumns(tables ...*Table) (*Table, error) {
	if len(tables) == 0 {
		return nil, errors.New("encoding: no tables to concatenate")
	}
	rows := tables[0].Rows()
	var specs []ColumnSpec
	mats := make([]*tensor.Dense, 0, len(tables))
	for _, t := range tables {
		if t.Rows() != rows {
			return nil, fmt.Errorf("encoding: row count mismatch %d vs %d", t.Rows(), rows)
		}
		specs = append(specs, t.Specs...)
		mats = append(mats, t.Data)
	}
	return &Table{Specs: specs, Data: tensor.ConcatCols(mats...)}, nil
}

// VerticalSplit partitions the table's columns across parties according to
// assignment, where assignment[j] names the party owning column j. It
// returns one Table per party with the party's columns in original order.
func (t *Table) VerticalSplit(assignment []int, numParties int) ([]*Table, error) {
	colsPer, err := t.partition(assignment, numParties)
	if err != nil {
		return nil, err
	}
	return t.selectParts(colsPer), nil
}

// DeferredSplit is VerticalSplit with the copy put off until a party needs
// its rows. Each part answers its schema and row count at once. The first
// Load of any part materializes every part in VerticalSplit's one pass over
// the rows, and every later Load returns those tables. So a federation
// whose parties all open a matching store copies no row, and one that
// encodes copies them once. Load is safe for concurrent use. The parts
// hold t, and the materialized tables, for as long as they are kept.
func (t *Table) DeferredSplit(assignment []int, numParties int) ([]Source, error) {
	colsPer, err := t.partition(assignment, numParties)
	if err != nil {
		return nil, err
	}
	return t.deferred(colsPer), nil
}

// DeferredPart is one party of DeferredSplit, for a process that holds
// that party alone: its Load copies out the party's columns only
// (SelectColumns), not every party's.
func (t *Table) DeferredPart(assignment []int, numParties, party int) (Source, error) {
	colsPer, err := t.partition(assignment, numParties)
	if err != nil {
		return nil, err
	}
	if party < 0 || party >= numParties {
		return nil, fmt.Errorf("encoding: party %d out of range %d", party, numParties)
	}
	return t.deferred(colsPer[party : party+1])[0], nil
}

// deferred returns one source per column list, all materialized by the
// first Load in one selectParts pass.
func (t *Table) deferred(colsPer [][]int) []Source {
	split := sync.OnceValue(func() []*Table { return t.selectParts(colsPer) })
	out := make([]Source, len(colsPer))
	for p, cols := range colsPer {
		out[p] = &splitPart{specs: t.specsOf(cols), rows: t.Rows(), party: p, split: split}
	}
	return out
}

// splitPart is one part of a deferred split.
type splitPart struct {
	specs []ColumnSpec
	rows  int
	party int
	split func() []*Table
}

func (s *splitPart) Schema() []ColumnSpec { return s.specs }

func (s *splitPart) Rows() int { return s.rows }

func (s *splitPart) Load() (*Table, error) { return s.split()[s.party], nil }

// partition lists each party's columns, in table order, after checking
// that assignment names a party for every column and leaves none empty.
func (t *Table) partition(assignment []int, numParties int) ([][]int, error) {
	if len(assignment) != t.Cols() {
		return nil, fmt.Errorf("encoding: assignment length %d for %d columns", len(assignment), t.Cols())
	}
	if numParties < 0 {
		return nil, fmt.Errorf("encoding: negative party count %d", numParties)
	}
	colsPer := make([][]int, numParties)
	for j, p := range assignment {
		if p < 0 || p >= numParties {
			return nil, fmt.Errorf("encoding: column %d assigned to invalid party %d", j, p)
		}
		colsPer[p] = append(colsPer[p], j)
	}
	for p, cols := range colsPer {
		if len(cols) == 0 {
			return nil, fmt.Errorf("encoding: party %d owns no columns", p)
		}
	}
	return colsPer, nil
}

// specsOf returns the specs of the given columns, in that order.
func (t *Table) specsOf(cols []int) []ColumnSpec {
	specs := make([]ColumnSpec, len(cols))
	for k, j := range cols {
		specs[k] = t.Specs[j]
	}
	return specs
}

// selectParts returns one Table per column list, holding those columns of
// t in that order, from one pass over t's rows: each row is read once and
// scattered to every part. A part's matrix is exactly rows x len(cols): a
// party's table lives as long as its federation's set-up, so it is not
// rounded up to a pooled slab class. The column indices must be in range.
func (t *Table) selectParts(colsPer [][]int) []*Table {
	rows, width := t.Rows(), t.Cols()
	out := make([]*Table, len(colsPer))
	type part struct {
		cols []int
		dst  []float64
	}
	parts := make([]part, len(colsPer))
	for p, cols := range colsPer {
		m := tensor.New(rows, len(cols))
		out[p], parts[p] = &Table{Specs: t.specsOf(cols), Data: m}, part{cols: cols, dst: m.Data()}
	}
	src := t.Data.Data()
	for i := 0; i < rows; i++ {
		row := src[i*width : (i+1)*width]
		for p := range parts {
			pt := &parts[p]
			w := len(pt.cols)
			dst := pt.dst[i*w : i*w+w]
			for k, j := range pt.cols {
				dst[k] = row[j]
			}
		}
	}
	return out
}
