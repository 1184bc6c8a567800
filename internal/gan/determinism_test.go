package gan

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/datasets"
	"repro/internal/encoding"
	"repro/internal/nn"
	"repro/internal/snap"
)

// TestCentralizedWeightsByteIdentical trains the same configuration twice
// and compares the serialized network weights and every round's losses
// byte for byte. The fused kernels fix their summation order and the
// buffer pool recycles memory without touching values, so two same-seed
// runs must agree exactly — not just to within tolerance. The second
// table has six categorical columns, so a batch's condition loss sums
// several span terms, in an order that must not depend on map iteration;
// it trains long enough that a map-ordered sum shows in some round.
func TestCentralizedWeightsByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("GAN training in -short mode")
	}
	adult, err := datasets.Generate("adult", datasets.Config{Rows: 150, Seed: 3})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	for _, tc := range []struct {
		name   string
		tbl    *encoding.Table
		rounds int
	}{
		{"tiny", tinyTable(t, rand.New(rand.NewSource(40)), 150), 4},
		{"adult", adult.Table, 24},
	} {
		run := func() []byte {
			cfg := DefaultConfig()
			cfg.Rounds = tc.rounds
			cfg.BatchSize = 32
			cfg.NoiseDim = 16
			cfg.BlockDim = 32
			cfg.Seed = 99
			g, err := NewCentralized(tc.tbl, cfg, encoding.Storage{})
			if err != nil {
				t.Fatalf("NewCentralized: %v", err)
			}
			var e snap.Enc
			if err := g.Train(func(_ int, dLoss, gLoss float64) { e.F64(dLoss); e.F64(gLoss) }); err != nil {
				t.Fatalf("Train: %v", err)
			}
			nn.EncodeParams(&e, g.gen)
			nn.EncodeParams(&e, g.disc)
			return e.Buf
		}
		if !bytes.Equal(run(), run()) {
			t.Fatalf("%s: same-seed training runs produced different losses or weight bytes", tc.name)
		}
	}
}
