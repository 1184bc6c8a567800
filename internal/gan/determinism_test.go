package gan

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/nn"
	"repro/internal/snap"
)

// TestCentralizedWeightsByteIdentical trains the same configuration twice
// and compares the serialized network weights byte for byte. The fused
// kernels fix their summation order and the buffer pool recycles memory
// without touching values, so two same-seed runs must agree exactly — not
// just to within tolerance.
func TestCentralizedWeightsByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("GAN training in -short mode")
	}
	rng := rand.New(rand.NewSource(40))
	tbl := tinyTable(t, rng, 150)
	weights := func() []byte {
		cfg := DefaultConfig()
		cfg.Rounds = 4
		cfg.BatchSize = 32
		cfg.NoiseDim = 16
		cfg.BlockDim = 32
		cfg.Seed = 99
		g, err := NewCentralized(tbl, cfg)
		if err != nil {
			t.Fatalf("NewCentralized: %v", err)
		}
		if err := g.Train(nil); err != nil {
			t.Fatalf("Train: %v", err)
		}
		var e snap.Enc
		nn.EncodeParams(&e, g.gen)
		nn.EncodeParams(&e, g.disc)
		return e.Buf
	}
	if !bytes.Equal(weights(), weights()) {
		t.Fatal("same-seed training runs produced different weight bytes")
	}
}
