package tensor_test

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"os"
	"testing"

	"repro/internal/datasets"
	"repro/internal/encoding"
	"repro/internal/gan"
	"repro/internal/gmm"
	"repro/internal/tensor"
	"repro/internal/vfl"
)

// TestFitSameOnBothKernelPaths is step 1 of Algorithm 1 on both paths: a GMM
// fit of one column, a transformer fitted and streamed through TransformTo,
// and a cold OpenOrEncode into a store of three stripes, on adult rows with
// continuous, mixed and categorical columns. The fitted model's bits, the
// encoded rows, the generator's next draw and the .enc.gtvcol file must be
// the same on the vector path (the mixture routines, the blocked Exp and Log)
// as on the Go path (the per-value posterior and mStep's loops).
func TestFitSameOnBothKernelPaths(t *testing.T) {
	if !tensor.HasAsmKernels {
		t.Skip("no vector kernels on this build/CPU")
	}
	const rows = 1500 // not a multiple of four, so blocks end in a per-value tail
	d, err := datasets.Generate("adult", datasets.Config{Rows: rows, Seed: 3})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	tbl := d.Table
	col := -1
	for j, spec := range tbl.Specs {
		if spec.Kind == encoding.KindContinuous {
			col = j
			break
		}
	}
	if col < 0 {
		t.Fatal("adult has no continuous column")
	}
	cfg := gmm.DefaultConfig()
	state := func(path string) []byte {
		tensor.UseKernelPath(t, path)
		var out []byte
		f64s := func(xs []float64) {
			for _, x := range xs {
				out = binary.LittleEndian.AppendUint64(out, math.Float64bits(x))
			}
		}
		rng := rand.New(rand.NewSource(5))
		m, err := gmm.Fit(rng, tbl.Column(col), cfg)
		if err != nil {
			t.Fatalf("Fit: %v", err)
		}
		f64s(m.Weights)
		f64s(m.Means)
		f64s(m.Stds)
		tr, err := encoding.FitTransformer(rng, tbl, cfg)
		if err != nil {
			t.Fatalf("FitTransformer: %v", err)
		}
		err = tr.TransformTo(rng, tbl, func(row []float64) error {
			f64s(row)
			return nil
		})
		if err != nil {
			t.Fatalf("TransformTo: %v", err)
		}
		out = binary.LittleEndian.AppendUint64(out, uint64(rng.Int63()))
		st := encoding.Storage{Dir: t.TempDir(), Name: "client-0", BlockRows: 600}
		_, backing, err := encoding.OpenOrEncode(st, tbl, 9, cfg)
		if err != nil {
			t.Fatalf("OpenOrEncode: %v", err)
		}
		if err := backing.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		file, err := os.ReadFile(st.EncPath())
		if err != nil {
			t.Fatalf("reading the store: %v", err)
		}
		return append(out, file...)
	}
	if asm, goPath := state("asm"), state("go"); !bytes.Equal(asm, goPath) {
		t.Fatal("fit, encode and store bytes differ between the asm and go kernel paths")
	}
}

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
		g, err := gan.NewCentralized(tbl, cfg, encoding.Storage{})
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

// TestFederatedFaithfulPassBytesSameOnBothKernelPaths is the federated twin:
// three clients with both halves of both networks on their side (plan
// D0_2 G0_2) at block 37, so each D_i^b is 12 or 13 columns wide — one chunk
// of the row path, ending in an overlapping last vector — and the
// full-table real pass, which pushes all 150 rows of the two non-contributing
// clients through them every critic step. Two rounds on the vector path and
// on the Go path must leave the same snapshot: server and client weights,
// optimizer moments, generator positions. (It lives here, not in
// internal/vfl, because the path switch is this package's test-only export.)
func TestFederatedFaithfulPassBytesSameOnBothKernelPaths(t *testing.T) {
	if !tensor.HasAsmKernels {
		t.Skip("no vector kernels on this build/CPU")
	}
	rng := rand.New(rand.NewSource(43))
	const rows = 150
	tables := make([]*encoding.Table, 3)
	for c := range tables {
		data := tensor.New(rows, 2)
		for i := 0; i < rows; i++ {
			k := float64(rng.Intn(3))
			data.Set(i, 0, k)
			data.Set(i, 1, rng.NormFloat64()+3*k)
		}
		tbl, err := encoding.NewTable([]encoding.ColumnSpec{
			{Name: "cat", Kind: encoding.KindCategorical, Categories: []string{"a", "b", "c"}},
			{Name: "x", Kind: encoding.KindContinuous},
		}, data)
		if err != nil {
			t.Fatalf("NewTable: %v", err)
		}
		tables[c] = tbl
	}
	state := func(path string) []byte {
		tensor.UseKernelPath(t, path)
		coord := vfl.NewShuffleCoordinator(5)
		clients := make([]vfl.Client, len(tables))
		for c, tbl := range tables {
			lc, err := vfl.NewLocalClient(tbl, coord, int64(c+1))
			if err != nil {
				t.Fatalf("NewLocalClient: %v", err)
			}
			clients[c] = lc
		}
		cfg := vfl.DefaultConfig()
		cfg.Plan = vfl.Plan{DiscServer: 0, DiscClient: 2, GenServer: 0, GenClient: 2}
		cfg.FaithfulRealPass = true
		cfg.BatchSize = 40
		cfg.Pac = 10
		cfg.NoiseDim = 19
		cfg.BlockDim = 37
		cfg.Seed = 7
		srv, err := vfl.NewServer(clients, cfg)
		if err != nil {
			t.Fatalf("NewServer: %v", err)
		}
		for round := 0; round < 2; round++ {
			if _, _, err := srv.TrainRound(); err != nil {
				t.Fatalf("TrainRound: %v", err)
			}
		}
		snap, err := srv.Snapshot()
		if err != nil {
			t.Fatalf("Snapshot: %v", err)
		}
		return snap
	}
	if asm, goPath := state("asm"), state("go"); !bytes.Equal(asm, goPath) {
		t.Fatal("two federated rounds left different bytes on the asm and go kernel paths")
	}
}
