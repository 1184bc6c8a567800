package gan

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/encoding"
	"repro/internal/nn"
	"repro/internal/snap"
	"repro/internal/snap/snaptest"
)

// resumeTestConfig is small enough that the resume tests stay fast under
// -short and -race: byte-identical replay is about state capture, not
// model capacity.
func resumeTestConfig() Config {
	cfg := DefaultConfig()
	cfg.Rounds = 6
	cfg.DiscSteps = 2
	cfg.BatchSize = 16
	cfg.NoiseDim = 8
	cfg.BlockDim = 16
	cfg.Seed = 7
	return cfg
}

// weightBytes serializes both networks for exact comparison.
func weightBytes(t *testing.T, c *Centralized) []byte {
	t.Helper()
	var e snap.Enc
	nn.EncodeParams(&e, c.gen)
	nn.EncodeParams(&e, c.disc)
	return e.Buf
}

// synthCSV renders a synthesis run to CSV bytes for exact comparison.
// Synthesis consumes the RNG stream and reads the BatchNorm running
// statistics, neither of which Params() covers — comparing its output
// catches trajectory state that a pure weight comparison would miss.
func synthCSV(t *testing.T, c *Centralized, n int) []byte {
	t.Helper()
	tbl, err := c.Synthesize(n)
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	var buf bytes.Buffer
	if err := encoding.WriteCSV(&buf, tbl); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	return buf.Bytes()
}

// TestResumeReplayByteIdentical kills centralized training at round k,
// restores the checkpoint from disk into a freshly built trainer, trains
// to completion, and requires the final weights to be byte-equal to an
// uninterrupted same-seed run. Everything the trajectory depends on —
// weights, Adam moments and step counts, the RNG stream, the round
// counter — must therefore round-trip exactly through the snapshot.
func TestResumeReplayByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tbl := tinyTable(t, rng, 80)
	cfg := resumeTestConfig()

	full, err := NewCentralized(tbl, cfg)
	if err != nil {
		t.Fatalf("NewCentralized(full): %v", err)
	}
	if err := full.Train(nil); err != nil {
		t.Fatalf("Train(full): %v", err)
	}
	want := weightBytes(t, full)
	wantSynth := synthCSV(t, full, 48)

	// Interrupted run: stop after 3 of the 6 rounds and checkpoint. Rounds
	// is excluded from the config fingerprint, so extending it on resume
	// is legitimate.
	dir := t.TempDir()
	interruptedCfg := cfg
	interruptedCfg.Rounds = 3
	first, err := NewCentralized(tbl, interruptedCfg)
	if err != nil {
		t.Fatalf("NewCentralized(first): %v", err)
	}
	if err := first.Train(nil); err != nil {
		t.Fatalf("Train(first): %v", err)
	}
	if _, err := first.SaveCheckpoint(dir); err != nil {
		t.Fatalf("SaveCheckpoint: %v", err)
	}

	resumed, err := NewCentralized(tbl, cfg)
	if err != nil {
		t.Fatalf("NewCentralized(resumed): %v", err)
	}
	rounds, ok, err := resumed.RestoreLatestCheckpoint(dir)
	if err != nil {
		t.Fatalf("RestoreLatestCheckpoint: %v", err)
	}
	if !ok || rounds != 3 {
		t.Fatalf("RestoreLatestCheckpoint = (%d, %v), want (3, true)", rounds, ok)
	}
	if err := resumed.Train(nil); err != nil {
		t.Fatalf("Train(resumed): %v", err)
	}
	if got := weightBytes(t, resumed); !bytes.Equal(got, want) {
		t.Fatal("resumed run weights differ from uninterrupted same-seed run")
	}
	if resumed.Round() != cfg.Rounds {
		t.Fatalf("resumed round counter %d, want %d", resumed.Round(), cfg.Rounds)
	}
	if got := synthCSV(t, resumed, 48); !bytes.Equal(got, wantSynth) {
		t.Fatal("resumed run synthesizes different data than uninterrupted same-seed run")
	}
}

// TestRestoreRejectsConfigDrift holds the fingerprint check to its word: a
// checkpoint taken under different trajectory-relevant hyper-parameters
// must be refused, not silently diverge.
func TestRestoreRejectsConfigDrift(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	tbl := tinyTable(t, rng, 60)
	cfg := resumeTestConfig()
	cfg.Rounds = 1
	c, err := NewCentralized(tbl, cfg)
	if err != nil {
		t.Fatalf("NewCentralized: %v", err)
	}
	if err := c.Train(nil); err != nil {
		t.Fatalf("Train: %v", err)
	}
	blob := c.Snapshot()

	drifted := cfg
	drifted.LR = cfg.LR * 2
	other, err := NewCentralized(tbl, drifted)
	if err != nil {
		t.Fatalf("NewCentralized(drifted): %v", err)
	}
	if err := other.Restore(blob); err == nil {
		t.Fatal("Restore accepted a checkpoint taken under a different learning rate")
	}

	// Extending Rounds alone is sanctioned.
	extended := cfg
	extended.Rounds = 9
	ext, err := NewCentralized(tbl, extended)
	if err != nil {
		t.Fatalf("NewCentralized(extended): %v", err)
	}
	if err := ext.Restore(blob); err != nil {
		t.Fatalf("Restore with extended Rounds: %v", err)
	}
}

// TestRestoreRejectsHostileImages damages a trained trainer's snapshot every
// way internal/snap/snaptest knows — truncation at and between section
// boundaries, every count and dimension maxed out behind a valid CRC, every
// fingerprint value changed — and requires Restore into a fresh same-seed
// trainer to refuse each image cheaply, naming the fingerprint field when
// that is what differs.
func TestRestoreRejectsHostileImages(t *testing.T) {
	tbl := tinyTable(t, rand.New(rand.NewSource(13)), 60)
	cfg := resumeTestConfig()
	cfg.Rounds = 1
	fresh := func() func([]byte) error {
		c, err := NewCentralized(tbl, cfg)
		if err != nil {
			t.Fatalf("NewCentralized: %v", err)
		}
		return c.Restore
	}
	c, err := NewCentralized(tbl, cfg)
	if err != nil {
		t.Fatalf("NewCentralized: %v", err)
	}
	if err := c.Train(nil); err != nil {
		t.Fatalf("Train: %v", err)
	}
	image := c.Snapshot()
	snaptest.Hostile(t, image, map[byte]func(*snaptest.Walker){
		secCMeta:    (*snaptest.Walker).Rest,
		secCRNG:     (*snaptest.Walker).RNG,
		secCGen:     (*snaptest.Walker).Params,
		secCDisc:    (*snaptest.Walker).Params,
		secCGenOpt:  (*snaptest.Walker).Adam,
		secCDiscOpt: (*snaptest.Walker).Adam,
	}, fresh)
	// The meta section is round, data width, CV width, then the fingerprint.
	snaptest.Fingerprint(t, image, secCMeta, 3*8, cfg.fingerprint(), fresh)
}
