package core

import (
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/datasets"
	"repro/internal/encoding"
	"repro/internal/snap"
	"repro/internal/stats"
	"repro/internal/tensor"
	"repro/internal/vfl"
)

// loanSplit generates a loan table, keeps only cols when any are given, and
// assigns its columns evenly to the given number of parties.
func loanSplit(t *testing.T, rows int, seed int64, parties int, cols ...int) (*encoding.Table, []int) {
	t.Helper()
	d, err := datasets.Generate("loan", datasets.Config{Rows: rows, Seed: seed})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	table := d.Table
	if len(cols) > 0 {
		if table, err = table.SelectColumns(cols); err != nil {
			t.Fatalf("SelectColumns: %v", err)
		}
	}
	assignment, err := EvenAssignment(table.Cols(), parties)
	if err != nil {
		t.Fatalf("EvenAssignment: %v", err)
	}
	return table, assignment
}

func TestEvenAssignment(t *testing.T) {
	tests := []struct {
		cols, clients int
		want          []int
	}{
		{4, 2, []int{0, 0, 1, 1}},
		{5, 2, []int{0, 0, 0, 1, 1}},
		{7, 3, []int{0, 0, 0, 1, 1, 2, 2}},
		{3, 3, []int{0, 1, 2}},
	}
	for _, tc := range tests {
		got, err := EvenAssignment(tc.cols, tc.clients)
		if err != nil {
			t.Fatalf("EvenAssignment(%d,%d): %v", tc.cols, tc.clients, err)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("EvenAssignment(%d,%d) = %v want %v", tc.cols, tc.clients, got, tc.want)
			}
		}
	}
}

func TestEvenAssignmentErrors(t *testing.T) {
	if _, err := EvenAssignment(2, 3); err == nil {
		t.Fatal("expected error: more clients than columns")
	}
	if _, err := EvenAssignment(2, 0); err == nil {
		t.Fatal("expected error: zero clients")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, DefaultOptions()); err == nil {
		t.Fatal("expected error for no tables")
	}
	d, err := datasets.Generate("loan", datasets.Config{Rows: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewFromAssignment(d.Table, make([]int, d.Table.Cols()), -1, DefaultOptions()); err == nil {
		t.Fatal("expected error for a negative client count")
	}
}

func TestGTVEndToEndOnDataset(t *testing.T) {
	if testing.Short() {
		t.Skip("GAN training in -short mode")
	}
	table, assignment := loanSplit(t, 400, 1, 2)
	opts := DefaultOptions()
	opts.Rounds = 25
	opts.BlockDim = 48
	opts.NoiseDim = 16
	g, err := NewFromAssignment(table, assignment, 2, opts)
	if err != nil {
		t.Fatalf("NewFromAssignment: %v", err)
	}
	if got := len(g.Ratios()); got != 2 {
		t.Fatalf("ratios length %d", got)
	}
	if err := g.Train(nil); err != nil {
		t.Fatalf("Train: %v", err)
	}
	joined, parts, err := g.SynthesizeParts(200)
	if err != nil {
		t.Fatalf("SynthesizeParts: %v", err)
	}
	if joined.Rows() != 200 || joined.Cols() != table.Cols() {
		t.Fatalf("synthetic shape %dx%d want 200x%d", joined.Rows(), joined.Cols(), table.Cols())
	}
	if len(parts) != 2 {
		t.Fatalf("parts = %d", len(parts))
	}
	if !joined.Data.AllFinite() {
		t.Fatal("synthetic data contains NaN")
	}
	// Synthetic data must be schema-valid and statistically comparable to
	// each party's own columns.
	realParts, err := table.VerticalSplit(assignment, 2)
	if err != nil {
		t.Fatalf("VerticalSplit: %v", err)
	}
	avg, err := stats.AvgClientDiff(realParts, parts)
	if err != nil {
		t.Fatalf("AvgClientDiff on synthetic parts: %v", err)
	}
	if avg < 0 {
		t.Fatalf("AvgClientDiff = %v", avg)
	}
}

func TestCentralizedWrapper(t *testing.T) {
	if testing.Short() {
		t.Skip("GAN training in -short mode")
	}
	d, err := datasets.Generate("loan", datasets.Config{Rows: 200, Seed: 2})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	opts := DefaultOptions()
	opts.Rounds = 5
	opts.BlockDim = 32
	opts.NoiseDim = 16
	c, err := NewCentralized(d.Table, opts)
	if err != nil {
		t.Fatalf("NewCentralized: %v", err)
	}
	if err := c.Train(nil); err != nil {
		t.Fatalf("Train: %v", err)
	}
	synth, err := c.Synthesize(50)
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	if synth.Rows() != 50 {
		t.Fatalf("rows = %d", synth.Rows())
	}
}

func TestPaperOptionsShape(t *testing.T) {
	o := PaperOptions()
	if o.BlockDim != 256 || o.BatchSize != 500 || o.NoiseDim != 128 || o.DiscSteps != 5 {
		t.Fatalf("paper options = %+v", o)
	}
	if o.Plan != (vfl.Plan{DiscServer: 2, GenClient: 2}) {
		t.Fatalf("paper plan = %+v", o.Plan)
	}
}

func TestGTVCommStatsExposed(t *testing.T) {
	if testing.Short() {
		t.Skip("GAN training in -short mode")
	}
	table, assignment := loanSplit(t, 150, 10, 2)
	opts := DefaultOptions()
	opts.Rounds = 1
	opts.BlockDim = 32
	opts.NoiseDim = 16
	opts.BatchSize = 32
	g, err := NewFromAssignment(table, assignment, 2, opts)
	if err != nil {
		t.Fatalf("NewFromAssignment: %v", err)
	}
	if _, _, err := g.TrainRound(); err != nil {
		t.Fatalf("TrainRound: %v", err)
	}
	if g.CommStats().Total() == 0 {
		t.Fatal("comm stats should be nonzero after a round")
	}
}

func TestSynthesizeCondition(t *testing.T) {
	if testing.Short() {
		t.Skip("GAN training in -short mode")
	}
	table, assignment := loanSplit(t, 300, 11, 2)
	opts := DefaultOptions()
	opts.Rounds = 350
	opts.BlockDim = 48
	opts.NoiseDim = 16
	g, err := NewFromAssignment(table, assignment, 2, opts)
	if err != nil {
		t.Fatalf("NewFromAssignment: %v", err)
	}
	if err := g.Train(nil); err != nil {
		t.Fatalf("Train: %v", err)
	}
	// The target column lives on client 1 (second half of the columns).
	synth, err := g.SynthesizeCondition(120, 1, "target", "class_1")
	if err != nil {
		t.Fatalf("SynthesizeCondition: %v", err)
	}
	if synth.Rows() != 120 {
		t.Fatalf("rows = %d", synth.Rows())
	}
	// The conditioned category is rare (~10%) unconditionally; conditioning
	// must raise its share substantially.
	targetCol := synth.ColumnByName("target")
	var count int
	for i := 0; i < synth.Rows(); i++ {
		if int(synth.Data.At(i, targetCol)) == 1 {
			count++
		}
	}
	// The class's unconditional share is ~10%; conditioning must raise it
	// clearly (full saturation needs paper-scale training).
	frac := float64(count) / float64(synth.Rows())
	if frac < 0.3 {
		t.Fatalf("conditioned class share = %v, conditioning ineffective", frac)
	}
	// Error paths.
	if _, err := g.SynthesizeCondition(10, 5, "target", "class_1"); err == nil {
		t.Fatal("expected client range error")
	}
	if _, err := g.SynthesizeCondition(10, 1, "nope", "class_1"); err == nil {
		t.Fatal("expected unknown column error")
	}
	if _, err := g.SynthesizeCondition(10, 1, "target", "nope"); err == nil {
		t.Fatal("expected unknown category error")
	}
}

// TestTrainCheckpointCadence pins the rule gtv-train, gtv-server and
// GTV.Train share: a checkpoint every k rounds (0 means every round), one
// more after the last round when it falls off the interval, and after a
// failed write no further attempt — training runs to the end and the first
// failure is what Train reports.
func TestTrainCheckpointCadence(t *testing.T) {
	table, assignment := loanSplit(t, 60, 12, 2)
	tests := []struct {
		name          string
		every, rounds int
		// failAt is the completed-round count at which the progress callback
		// moves the checkpoint directory away (before that round's save);
		// one round later it moves it back, so exactly the saves in between
		// fail. 0 never does.
		failAt  int
		want    []int  // rounds whose checkpoint file must exist afterwards
		wantErr string // substring of Train's error, "" for success
	}{
		{"every round by default", 0, 3, 0, []int{1, 2, 3}, ""},
		{"every round", 1, 3, 0, []int{1, 2, 3}, ""},
		{"interval divides rounds", 3, 6, 0, []int{3, 6}, ""},
		{"last round off the interval", 3, 7, 0, []int{3, 6, 7}, ""},
		{"failed write is remembered", 1, 4, 2, []int{1}, "checkpointing"},
		{"failed final write", 3, 4, 4, []int{3}, "final checkpoint"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "ckpt")
			opts := DefaultOptions()
			opts.Rounds = tc.rounds
			opts.DiscSteps = 1
			opts.BlockDim = 16
			opts.NoiseDim = 8
			opts.BatchSize = 16
			opts.CheckpointDir = dir
			opts.CheckpointEvery = tc.every
			g, err := NewFromAssignment(table, assignment, 2, opts)
			if err != nil {
				t.Fatalf("NewFromAssignment: %v", err)
			}
			var seen []int
			err = g.Train(func(round int, _, _ float64) {
				seen = append(seen, round)
				switch {
				case tc.failAt == 0:
				case round+1 == tc.failAt:
					if err := os.Rename(dir, dir+".gone"); err != nil {
						t.Error(err)
					}
				case round+1 == tc.failAt+1:
					if err := os.Rename(dir+".gone", dir); err != nil {
						t.Error(err)
					}
				}
			})
			if len(seen) != tc.rounds {
				t.Fatalf("progress saw rounds %v, want all %d", seen, tc.rounds)
			}
			if tc.wantErr == "" && err != nil {
				t.Fatalf("Train: %v", err)
			}
			if tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr) || !errors.Is(err, os.ErrNotExist)) {
				t.Fatalf("Train error = %v, want a %q error wrapping os.ErrNotExist", err, tc.wantErr)
			}
			if tc.failAt == tc.rounds {
				dir += ".gone"
			}
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, e := range entries {
				got = append(got, e.Name())
			}
			var want []string
			for _, r := range tc.want {
				want = append(want, filepath.Base(snap.CheckpointPath(dir, r)))
			}
			if !slices.Equal(got, want) {
				t.Fatalf("checkpoint files = %v, want %v", got, want)
			}
		})
	}
}

func TestColumnOrder(t *testing.T) {
	// 4 columns, assignment (1,0,1,0): party 0's columns 1 and 3 come first.
	if got, want := ColumnOrder([]int{1, 0, 1, 0}, 2), []int{1, 3, 0, 2}; !slices.Equal(got, want) {
		t.Fatalf("ColumnOrder = %v, want %v", got, want)
	}
}

// hugeColumnTable is a 40-row table whose "huge" column is finite but near
// 1e154, where a square overflows: its mixture fits to values the encoder
// cannot represent.
func hugeColumnTable(t *testing.T) *encoding.Table {
	t.Helper()
	data := tensor.New(40, 3)
	for i := 0; i < data.Rows(); i++ {
		row := data.RawRow(i)
		row[0] = float64(i % 2)
		row[1] = 1e154 * (1 + float64(i)/40)
		row[2] = float64(i%7) - 3
	}
	tbl, err := encoding.NewTable([]encoding.ColumnSpec{
		{Name: "segment", Kind: encoding.KindCategorical, Categories: []string{"a", "b"}},
		{Name: "huge", Kind: encoding.KindContinuous},
		{Name: "small", Kind: encoding.KindContinuous},
	}, data)
	if err != nil {
		t.Fatalf("NewTable: %v", err)
	}
	return tbl
}

// TestUnencodableColumnIsNamed: on both trainers, a column the encoder
// cannot represent ends the run with an error that names the column.
// Encoded as NaN cells, it would let the centralized trainer synthesize NaN
// rows with no error, and make the federation report the honest client's
// reply as non-finite.
func TestUnencodableColumnIsNamed(t *testing.T) {
	opts := DefaultOptions()
	opts.Rounds = 2
	opts.DiscSteps = 1
	opts.BlockDim = 16
	opts.NoiseDim = 8
	opts.BatchSize = 20
	type trainer interface {
		Train(func(int, float64, float64)) error
		Synthesize(int) (*encoding.Table, error)
		Close() error
	}
	for _, c := range []struct {
		name  string
		build func() (trainer, error)
	}{
		{"centralized", func() (trainer, error) { return NewCentralized(hugeColumnTable(t), opts) }},
		{"federated", func() (trainer, error) {
			return NewFromAssignment(hugeColumnTable(t), []int{0, 0, 1}, 2, opts)
		}},
	} {
		run := func() error {
			tr, err := c.build()
			if err != nil {
				return err
			}
			defer tr.Close()
			if err := tr.Train(nil); err != nil {
				return err
			}
			synth, err := tr.Synthesize(10)
			if err != nil {
				return err
			}
			if !synth.Data.AllFinite() {
				return errors.New("synthesized a non-finite cell with no error")
			}
			return nil
		}
		err := run()
		if err == nil || !strings.Contains(err.Error(), `"huge"`) || strings.Contains(err.Error(), "reply") {
			t.Errorf("%s: run ended in %v, want an encoding error naming column \"huge\"", c.name, err)
		}
	}
}

// TestNewHoldsNoRawRows: the parts handed to New can be collected as soon
// as New returns, while the federation, kept alive, still trains a round
// and synthesizes.
func TestNewHoldsNoRawRows(t *testing.T) {
	for _, transport := range []string{"local", "binary"} {
		t.Run(transport, func(t *testing.T) {
			var freed atomic.Int32
			g := newOverDroppedParts(t, transport, &freed)
			defer g.Close()
			for try := 0; freed.Load() < 2; try++ {
				if try == 100 {
					t.Fatalf("%d of 2 parts collected: a live party still holds the rest", freed.Load())
				}
				runtime.GC()
				time.Sleep(10 * time.Millisecond)
			}
			if _, _, err := g.TrainRound(); err != nil {
				t.Fatalf("TrainRound: %v", err)
			}
			synth, err := g.Synthesize(16)
			if err != nil {
				t.Fatalf("Synthesize: %v", err)
			}
			if synth.Rows() != 16 {
				t.Fatalf("synthesized %d rows, want 16", synth.Rows())
			}
			runtime.KeepAlive(g)
		})
	}
}

// newOverDroppedParts builds a two-party federation over a split of a
// generated table, with a finalizer on each part's Data that counts into
// freed, and returns without keeping the parts.
func newOverDroppedParts(t *testing.T, transport string, freed *atomic.Int32) *GTV {
	t.Helper()
	table, assignment := loanSplit(t, 120, 13, 2)
	parts, err := table.VerticalSplit(assignment, 2)
	if err != nil {
		t.Fatalf("VerticalSplit: %v", err)
	}
	for _, p := range parts {
		runtime.SetFinalizer(p.Data, func(*tensor.Dense) { freed.Add(1) })
	}
	opts := DefaultOptions()
	opts.Transport = transport
	opts.DiscSteps = 1
	opts.BlockDim = 16
	opts.NoiseDim = 8
	opts.BatchSize = 20
	g, err := New(parts, opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return g
}

// TestNewFromAssignmentHoldsNoSource: a federation built by
// NewFromAssignment keeps neither its deferred parts nor the table they
// split, whether it loaded them (in memory, or a cold data directory) or
// not (the same directory again, where both stores hit), while it still
// trains a round.
func TestNewFromAssignmentHoldsNoSource(t *testing.T) {
	dir := t.TempDir()
	for _, c := range []struct{ name, dataDir string }{{"in-memory", ""}, {"cold", dir}, {"warm", dir}} {
		var freed atomic.Int32
		g := func() *GTV {
			table, assignment := loanSplit(t, 120, 13, 2)
			runtime.SetFinalizer(table.Data, func(*tensor.Dense) { freed.Add(1) })
			opts := DefaultOptions()
			opts.DiscSteps = 1
			opts.BlockDim = 16
			opts.NoiseDim = 8
			opts.BatchSize = 20
			opts.DataDir = c.dataDir
			g, err := NewFromAssignment(table, assignment, 2, opts)
			if err != nil {
				t.Fatalf("%s: NewFromAssignment: %v", c.name, err)
			}
			return g
		}()
		for try := 0; freed.Load() < 1; try++ {
			if try == 100 {
				t.Fatalf("%s: the split table was not collected: a live party still holds its source", c.name)
			}
			runtime.GC()
			time.Sleep(10 * time.Millisecond)
		}
		if _, _, err := g.TrainRound(); err != nil {
			t.Fatalf("%s: TrainRound: %v", c.name, err)
		}
		if err := g.Close(); err != nil {
			t.Fatalf("%s: Close: %v", c.name, err)
		}
	}
}

func TestGTVDeterministicPerSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("GAN training in -short mode")
	}
	table, assignment := loanSplit(t, 200, 9, 2)
	train := func() [][]float64 {
		opts := DefaultOptions()
		opts.Rounds = 4
		opts.BlockDim = 32
		opts.NoiseDim = 16
		opts.BatchSize = 32
		g, err := NewFromAssignment(table, assignment, 2, opts)
		if err != nil {
			t.Fatalf("NewFromAssignment: %v", err)
		}
		if err := g.Train(nil); err != nil {
			t.Fatalf("Train: %v", err)
		}
		synth, err := g.Synthesize(30)
		if err != nil {
			t.Fatalf("Synthesize: %v", err)
		}
		rows := make([][]float64, synth.Rows())
		for i := range rows {
			rows[i] = append([]float64(nil), synth.Data.RawRow(i)...)
		}
		return rows
	}
	a := train()
	b := train()
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("row %d col %d differs between identically-seeded runs", i, j)
			}
		}
	}
}
