package tensor_test

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/encoding"
	"repro/internal/gan"
	"repro/internal/tensor"
)

// TestTrainingBytesSameOnBothKernelPaths is the end-to-end form of the
// path-equivalence table: two rounds of centralized WGAN-GP training
// (forward, gradient-penalty double backward, Adam) on the vector path and on
// the Go path must leave byte-identical state — weights, optimizer moments
// and RNG positions, as the checkpoint serializes them.
func TestTrainingBytesSameOnBothKernelPaths(t *testing.T) {
	if !tensor.HasAsmKernels {
		t.Skip("no vector kernels on this build/CPU")
	}
	rng := rand.New(rand.NewSource(41))
	const rows = 200
	data := tensor.New(rows, 3)
	for i := 0; i < rows; i++ {
		c := float64(rng.Intn(3))
		data.Set(i, 0, c)
		data.Set(i, 1, rng.NormFloat64()+4*c)
		data.Set(i, 2, rng.ExpFloat64())
	}
	tbl, err := encoding.NewTable([]encoding.ColumnSpec{
		{Name: "cat", Kind: encoding.KindCategorical, Categories: []string{"a", "b", "c"}},
		{Name: "x", Kind: encoding.KindContinuous},
		{Name: "y", Kind: encoding.KindContinuous},
	}, data)
	if err != nil {
		t.Fatalf("NewTable: %v", err)
	}
	state := func(path string) []byte {
		tensor.UseKernelPath(t, path)
		cfg := gan.DefaultConfig()
		cfg.Rounds = 2
		cfg.BatchSize = 40
		cfg.Pac = 10 // packs 40 rows into 4: narrow products on top of wide ones
		cfg.NoiseDim = 19
		cfg.BlockDim = 37 // a width with a vector tail
		cfg.Seed = 7
		g, err := gan.NewCentralized(tbl, cfg)
		if err != nil {
			t.Fatalf("NewCentralized: %v", err)
		}
		defer g.Close()
		if err := g.Train(nil); err != nil {
			t.Fatalf("Train: %v", err)
		}
		return g.Snapshot()
	}
	if asm, goPath := state("asm"), state("go"); !bytes.Equal(asm, goPath) {
		t.Fatal("two training rounds left different bytes on the asm and go kernel paths")
	}
}
