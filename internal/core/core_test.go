package core

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/datasets"
	"repro/internal/snap"
	"repro/internal/stats"
	"repro/internal/vfl"
)

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
	d, err := datasets.Generate("loan", datasets.Config{Rows: 400, Seed: 1})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	assignment, err := EvenAssignment(d.Table.Cols(), 2)
	if err != nil {
		t.Fatalf("EvenAssignment: %v", err)
	}
	opts := DefaultOptions()
	opts.Rounds = 25
	opts.BlockDim = 48
	opts.NoiseDim = 16
	g, err := NewFromAssignment(d.Table, assignment, 2, opts)
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
	if joined.Rows() != 200 || joined.Cols() != d.Table.Cols() {
		t.Fatalf("synthetic shape %dx%d want 200x%d", joined.Rows(), joined.Cols(), d.Table.Cols())
	}
	if len(parts) != 2 {
		t.Fatalf("parts = %d", len(parts))
	}
	if joined.Data.HasNaN() {
		t.Fatal("synthetic data contains NaN")
	}
	// Synthetic data must be schema-valid and statistically comparable.
	clientTables := g.ClientTables()
	avg, err := stats.AvgClientDiff(clientTables, parts)
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

func TestGTVDeterministicPerSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("GAN training in -short mode")
	}
	d, err := datasets.Generate("loan", datasets.Config{Rows: 200, Seed: 9})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	assignment, err := EvenAssignment(d.Table.Cols(), 2)
	if err != nil {
		t.Fatalf("EvenAssignment: %v", err)
	}
	train := func() [][]float64 {
		opts := DefaultOptions()
		opts.Rounds = 4
		opts.BlockDim = 32
		opts.NoiseDim = 16
		opts.BatchSize = 32
		g, err := NewFromAssignment(d.Table, assignment, 2, opts)
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

func TestGTVCommStatsExposed(t *testing.T) {
	if testing.Short() {
		t.Skip("GAN training in -short mode")
	}
	d, err := datasets.Generate("loan", datasets.Config{Rows: 150, Seed: 10})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	assignment, err := EvenAssignment(d.Table.Cols(), 2)
	if err != nil {
		t.Fatalf("EvenAssignment: %v", err)
	}
	opts := DefaultOptions()
	opts.Rounds = 1
	opts.BlockDim = 32
	opts.NoiseDim = 16
	opts.BatchSize = 32
	g, err := NewFromAssignment(d.Table, assignment, 2, opts)
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
	d, err := datasets.Generate("loan", datasets.Config{Rows: 300, Seed: 11})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	assignment, err := EvenAssignment(d.Table.Cols(), 2)
	if err != nil {
		t.Fatalf("EvenAssignment: %v", err)
	}
	opts := DefaultOptions()
	opts.Rounds = 350
	opts.BlockDim = 48
	opts.NoiseDim = 16
	g, err := NewFromAssignment(d.Table, assignment, 2, opts)
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
	d, err := datasets.Generate("loan", datasets.Config{Rows: 60, Seed: 12})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	assignment, err := EvenAssignment(d.Table.Cols(), 2)
	if err != nil {
		t.Fatalf("EvenAssignment: %v", err)
	}
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
			g, err := NewFromAssignment(d.Table, assignment, 2, opts)
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
