package gan

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/datasets"
	"repro/internal/encoding"
	"repro/internal/stats"
	"repro/internal/tensor"
)

// tinyTable builds a 2-column table: a 70/30 categorical and a continuous
// column whose mean depends on the category (so there is structure to learn).
func tinyTable(t *testing.T, rng *rand.Rand, rows int) *encoding.Table {
	t.Helper()
	data := tensor.New(rows, 2)
	for i := 0; i < rows; i++ {
		c := 0.0
		if rng.Float64() < 0.3 {
			c = 1
		}
		data.Set(i, 0, c)
		data.Set(i, 1, rng.NormFloat64()+c*6)
	}
	tbl, err := encoding.NewTable([]encoding.ColumnSpec{
		{Name: "cat", Kind: encoding.KindCategorical, Categories: []string{"a", "b"}},
		{Name: "cont", Kind: encoding.KindContinuous},
	}, data)
	if err != nil {
		t.Fatalf("NewTable: %v", err)
	}
	return tbl
}

func TestCentralizedTrainsAndSynthesizes(t *testing.T) {
	if testing.Short() {
		t.Skip("GAN training in -short mode")
	}
	rng := rand.New(rand.NewSource(1))
	tbl := tinyTable(t, rng, 600)
	cfg := DefaultConfig()
	cfg.Rounds = 60
	cfg.BatchSize = 64
	cfg.NoiseDim = 32
	cfg.BlockDim = 64
	g, err := NewCentralized(tbl, cfg, encoding.Storage{})
	if err != nil {
		t.Fatalf("NewCentralized: %v", err)
	}
	var rounds int
	if err := g.Train(func(round int, dLoss, gLoss float64) {
		rounds++
		if math.IsNaN(dLoss) || math.IsNaN(gLoss) {
			t.Fatalf("round %d produced NaN losses", round)
		}
	}); err != nil {
		t.Fatalf("Train: %v", err)
	}
	if rounds != cfg.Rounds {
		t.Fatalf("progress callback fired %d times want %d", rounds, cfg.Rounds)
	}

	synth, err := g.Synthesize(600)
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	if synth.Rows() != 600 || synth.Cols() != 2 {
		t.Fatalf("synthetic shape %dx%d", synth.Rows(), synth.Cols())
	}
	if !synth.Data.AllFinite() {
		t.Fatal("synthetic data contains NaN")
	}
	// The categorical marginal must be roughly recovered (70/30).
	freq, err := encoding.CategoryFrequencies(synth, 0)
	if err != nil {
		t.Fatalf("CategoryFrequencies: %v", err)
	}
	if freq[1] < 0.1 || freq[1] > 0.6 {
		t.Fatalf("minority frequency = %v want ~0.3 (mode collapse?)", freq[1])
	}
	// Continuous marginal: JSD/WD against real should be small-ish.
	rep, err := stats.Similarity(tbl, synth)
	if err != nil {
		t.Fatalf("Similarity: %v", err)
	}
	if rep.AvgWD > 0.5 {
		t.Fatalf("synthetic continuous column far from real: WD=%v", rep.AvgWD)
	}
}

func TestCentralizedOnDatasetSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("GAN training in -short mode")
	}
	d, err := datasets.Generate("loan", datasets.Config{Rows: 300, Seed: 2})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	cfg := DefaultConfig()
	cfg.Rounds = 10
	cfg.BatchSize = 64
	cfg.NoiseDim = 32
	cfg.BlockDim = 64
	g, err := NewCentralized(d.Table, cfg, encoding.Storage{})
	if err != nil {
		t.Fatalf("NewCentralized: %v", err)
	}
	if err := g.Train(nil); err != nil {
		t.Fatalf("Train: %v", err)
	}
	synth, err := g.Synthesize(100)
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	if synth.Rows() != 100 || synth.Cols() != d.Table.Cols() {
		t.Fatalf("synthetic shape %dx%d", synth.Rows(), synth.Cols())
	}
	if !synth.Data.AllFinite() {
		t.Fatal("synthetic data contains NaN")
	}
	// Schema validity: synthetic data must decode into the same specs.
	if _, err := encoding.NewTable(synth.Specs, synth.Data); err != nil {
		t.Fatalf("synthetic table invalid: %v", err)
	}
}

func TestSynthesizeErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tbl := tinyTable(t, rng, 100)
	cfg := DefaultConfig()
	cfg.Rounds = 1
	cfg.BatchSize = 16
	cfg.NoiseDim = 8
	cfg.BlockDim = 16
	g, err := NewCentralized(tbl, cfg, encoding.Storage{})
	if err != nil {
		t.Fatalf("NewCentralized: %v", err)
	}
	if _, err := g.Synthesize(0); err == nil {
		t.Fatal("expected error for zero rows")
	}
}

func TestCentralizedAllContinuousTable(t *testing.T) {
	if testing.Short() {
		t.Skip("GAN training in -short mode")
	}
	// Tables without categorical columns have no conditional vectors at
	// all; the GAN must still train and synthesize.
	rng := rand.New(rand.NewSource(9))
	data := tensor.New(200, 2)
	for i := 0; i < 200; i++ {
		data.Set(i, 0, rng.NormFloat64())
		data.Set(i, 1, rng.NormFloat64()*2+5)
	}
	tbl, err := encoding.NewTable([]encoding.ColumnSpec{
		{Name: "a", Kind: encoding.KindContinuous},
		{Name: "b", Kind: encoding.KindContinuous},
	}, data)
	if err != nil {
		t.Fatalf("NewTable: %v", err)
	}
	cfg := DefaultConfig()
	cfg.Rounds = 8
	cfg.BatchSize = 32
	cfg.NoiseDim = 16
	cfg.BlockDim = 32
	g, err := NewCentralized(tbl, cfg, encoding.Storage{})
	if err != nil {
		t.Fatalf("NewCentralized: %v", err)
	}
	if err := g.Train(nil); err != nil {
		t.Fatalf("Train: %v", err)
	}
	synth, err := g.Synthesize(64)
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	if synth.Rows() != 64 || !synth.Data.AllFinite() {
		t.Fatalf("bad synthesis: %dx%d", synth.Rows(), synth.Cols())
	}
}

func TestCentralizedDeterministicPerSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("GAN training in -short mode")
	}
	rng := rand.New(rand.NewSource(30))
	tbl := tinyTable(t, rng, 150)
	train := func() *encoding.Table {
		cfg := DefaultConfig()
		cfg.Rounds = 5
		cfg.BatchSize = 32
		cfg.NoiseDim = 16
		cfg.BlockDim = 32
		cfg.Seed = 77
		g, err := NewCentralized(tbl, cfg, encoding.Storage{})
		if err != nil {
			t.Fatalf("NewCentralized: %v", err)
		}
		if err := g.Train(nil); err != nil {
			t.Fatalf("Train: %v", err)
		}
		synth, err := g.Synthesize(40)
		if err != nil {
			t.Fatalf("Synthesize: %v", err)
		}
		return synth
	}
	a := train()
	b := train()
	if !a.Data.Equal(b.Data) {
		t.Fatal("same seed must reproduce identical synthetic data")
	}
}

func TestCentralizedPacTraining(t *testing.T) {
	if testing.Short() {
		t.Skip("GAN training in -short mode")
	}
	rng := rand.New(rand.NewSource(41))
	tbl := tinyTable(t, rng, 150)
	cfg := DefaultConfig()
	cfg.Rounds = 4
	cfg.BatchSize = 40
	cfg.Pac = 10
	cfg.NoiseDim = 16
	cfg.BlockDim = 32
	g, err := NewCentralized(tbl, cfg, encoding.Storage{})
	if err != nil {
		t.Fatalf("NewCentralized: %v", err)
	}
	if err := g.Train(nil); err != nil {
		t.Fatalf("Train with pac: %v", err)
	}
	synth, err := g.Synthesize(30)
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	if !synth.Data.AllFinite() {
		t.Fatal("NaN in pac-trained synthesis")
	}
}

func TestCentralizedPacValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	tbl := tinyTable(t, rng, 50)
	cfg := DefaultConfig()
	cfg.BatchSize = 33
	cfg.Pac = 10
	if _, err := NewCentralized(tbl, cfg, encoding.Storage{}); err == nil {
		t.Fatal("expected pac divisibility error")
	}
}

func TestCentralizedSynthesizeCondition(t *testing.T) {
	if testing.Short() {
		t.Skip("GAN training in -short mode")
	}
	rng := rand.New(rand.NewSource(50))
	tbl := tinyTable(t, rng, 400)
	cfg := DefaultConfig()
	cfg.Rounds = 120
	cfg.DiscSteps = 3
	cfg.BatchSize = 64
	cfg.NoiseDim = 24
	cfg.BlockDim = 64
	cfg.LR = 5e-4
	g, err := NewCentralized(tbl, cfg, encoding.Storage{})
	if err != nil {
		t.Fatalf("NewCentralized: %v", err)
	}
	if err := g.Train(nil); err != nil {
		t.Fatalf("Train: %v", err)
	}
	// Condition on the 30% minority category "b".
	synth, err := g.SynthesizeCondition(128, "cat", "b")
	if err != nil {
		t.Fatalf("SynthesizeCondition: %v", err)
	}
	var count int
	for i := 0; i < synth.Rows(); i++ {
		if int(synth.Data.At(i, 0)) == 1 {
			count++
		}
	}
	if frac := float64(count) / float64(synth.Rows()); frac < 0.6 {
		t.Fatalf("conditioned share = %v, want strong majority of category b", frac)
	}
	if _, err := g.SynthesizeCondition(10, "cont", "b"); err == nil {
		t.Fatal("expected non-categorical error")
	}
	if _, err := g.SynthesizeCondition(0, "cat", "b"); err == nil {
		t.Fatal("expected row-count error")
	}
}

// centralSynthAllocPerRow bounds a warm Centralized.Synthesize, in bytes
// allocated per synthetic row. Before the synthesis loop returned each
// batch's graph, noise and Gumbel draws to the pool, the test's second call
// allocated 11 633 B a row; with the releases it allocates 210 (the
// output matrix, the decoded table and the sampler's CV, none of them pooled).
const centralSynthAllocPerRow = 1000

// TestCentralizedSynthesisReusesBuffers: once one Synthesize has filled the
// pool, the next runs from it.
func TestCentralizedSynthesisReusesBuffers(t *testing.T) {
	if raceBuild {
		t.Skip("the race detector's sync.Pool drops buffers at random")
	}
	cfg := DefaultConfig()
	cfg.Rounds = 1
	cfg.BatchSize = 50
	cfg.NoiseDim = 16
	cfg.BlockDim = 48
	g, err := NewCentralized(tinyTable(t, rand.New(rand.NewSource(3)), 200), cfg, encoding.Storage{})
	if err != nil {
		t.Fatalf("NewCentralized: %v", err)
	}
	const n = 2000
	if _, err := g.Synthesize(n); err != nil {
		t.Fatalf("warm-up Synthesize: %v", err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := g.Synthesize(n); err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	runtime.ReadMemStats(&after)
	if perRow := (after.TotalAlloc - before.TotalAlloc) / n; perRow > centralSynthAllocPerRow {
		t.Fatalf("a warm Synthesize allocated %d B a row, bound %d", perRow, centralSynthAllocPerRow)
	}
}
