package gan

// Checkpoint/restore for the centralized trainer. A snapshot captures the
// complete training trajectory state — round counter, RNG stream, both
// networks' weights and both Adam optimizers — so that restoring it into a
// freshly built same-config trainer continues training byte-identically
// (the resumed cells of core's TestDeterminismMatrix hold it to that). The
// feature encoders, CV sampler and encoded table are deliberately NOT
// captured: they are deterministic functions of (table, seed) replayed by
// NewCentralized, so the snapshot stays model-sized instead of
// dataset-sized.

import (
	"fmt"

	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/snap"
)

// Section ids within a KindCentralized snapshot. The numbering is part of
// the format; append only, and bump snap.Version on any payload change.
const (
	secCMeta    = 1
	secCRNG     = 2
	secCGen     = 3
	secCDisc    = 4
	secCGenOpt  = 5
	secCDiscOpt = 6
)

// centralizedState names everything a centralized checkpoint captures.
// Fields reference the live trainer; encode/decode below serialize every
// one of them. A field added here without being wired through both fails
// the resumed cells of core's TestDeterminismMatrix if it is trajectory
// state, and TestRestoreRejectsConfigDrift or
// TestRestoreRejectsHostileImages if it pins the configuration or the meta
// layout.
type centralizedState struct {
	// cfg is fingerprinted (Rounds excepted, so a resumed run may extend
	// training) and verified on restore: resuming under different
	// hyper-parameters would silently diverge from the original run.
	cfg Config
	// dataWidth and cvWidth pin the fitted encoder layout the weights
	// assume.
	dataWidth int
	cvWidth   int
	round     int
	rng       *rng.Rand
	gen       *nn.Sequential
	disc      *nn.Sequential
	genOpt    nn.AdamState
	discOpt   nn.AdamState
}

// fingerprint lists the trajectory-relevant hyper-parameters, in the order
// the meta section stores them. The one table both writes the fingerprint
// and checks it on restore. Rounds is excluded: extending training on
// resume is legitimate and does not change the trajectory up to the
// checkpoint.
func (cfg Config) fingerprint() []snap.Field {
	return []snap.Field{
		{Name: "disc-steps", Value: int64(cfg.DiscSteps)},
		{Name: "batch", Value: int64(cfg.BatchSize)},
		{Name: "noise-dim", Value: int64(cfg.NoiseDim)},
		{Name: "block-dim", Value: int64(cfg.BlockDim)},
		{Name: "gen-blocks", Value: int64(cfg.GenBlocks)},
		{Name: "disc-blocks", Value: int64(cfg.DiscBlocks)},
		{Name: "lr", Value: cfg.LR},
		{Name: "pac", Value: int64(cfg.Pac)},
		{Name: "seed", Value: cfg.Seed},
	}
}

// encode serializes the state into a finished snapshot image.
func (st *centralizedState) encode(b *snap.Builder) []byte {
	b.Section(secCMeta, func(e *snap.Enc) {
		e.I64(int64(st.round))
		e.I64(int64(st.dataWidth))
		e.I64(int64(st.cvWidth))
		e.Fingerprint(st.cfg.fingerprint())
	})
	b.Section(secCRNG, func(e *snap.Enc) { e.RNG(st.rng) })
	b.Section(secCGen, func(e *snap.Enc) { nn.EncodeParams(e, st.gen) })
	b.Section(secCDisc, func(e *snap.Enc) { nn.EncodeParams(e, st.disc) })
	b.Section(secCGenOpt, func(e *snap.Enc) { nn.EncodeAdamState(e, st.genOpt) })
	b.Section(secCDiscOpt, func(e *snap.Enc) { nn.EncodeAdamState(e, st.discOpt) })
	return b.Bytes()
}

// decode restores the state from a parsed snapshot, writing weights and
// RNG state into the live objects the fields reference. On error the
// trainer state is unspecified; rebuild before retrying.
func (st *centralizedState) decode(s *snap.Snapshot) error {
	if s.Kind != snap.KindCentralized {
		return fmt.Errorf("gtvsnap: snapshot kind %d is not a centralized checkpoint", s.Kind)
	}
	if err := s.Read(secCMeta, "meta", func(d *snap.Dec) {
		st.round = int(d.I64())
		dataW, cvW := int(d.I64()), int(d.I64())
		d.Fingerprint(st.cfg.fingerprint())
		if dataW != st.dataWidth || cvW != st.cvWidth {
			d.Failf("checkpoint encoder widths %d/%d do not match fitted %d/%d", dataW, cvW, st.dataWidth, st.cvWidth)
		}
	}); err != nil {
		return err
	}
	if err := s.Read(secCRNG, "rng", func(d *snap.Dec) { d.RNG(st.rng) }); err != nil {
		return err
	}
	if err := s.Read(secCGen, "generator", func(d *snap.Dec) { nn.RestoreParams(d, st.gen) }); err != nil {
		return err
	}
	if err := s.Read(secCDisc, "discriminator", func(d *snap.Dec) { nn.RestoreParams(d, st.disc) }); err != nil {
		return err
	}
	if err := s.Read(secCGenOpt, "generator optimizer", func(d *snap.Dec) { st.genOpt = nn.DecodeAdamState(d) }); err != nil {
		return err
	}
	return s.Read(secCDiscOpt, "discriminator optimizer", func(d *snap.Dec) { st.discOpt = nn.DecodeAdamState(d) })
}

// snapState gathers the live trainer into a state view.
func (c *Centralized) snapState() *centralizedState {
	return &centralizedState{
		cfg:       c.cfg,
		dataWidth: c.transformer.Width(),
		cvWidth:   c.sampler.Width(),
		round:     c.round,
		rng:       c.rng,
		gen:       c.gen,
		disc:      c.disc,
	}
}

// Snapshot serializes the trainer's complete trajectory state.
func (c *Centralized) Snapshot() []byte {
	st := c.snapState()
	st.genOpt = c.genOpt.StateFor(c.gen.Params())
	st.discOpt = c.discOpt.StateFor(c.disc.Params())
	return st.encode(snap.NewBuilder(snap.KindCentralized))
}

// Restore reinstates a snapshot taken by Snapshot into a trainer built by
// NewCentralized on the same table with the same configuration. On error
// the trainer state is unspecified; rebuild before retrying.
func (c *Centralized) Restore(data []byte) error {
	s, err := snap.Decode(data)
	if err != nil {
		return err
	}
	st := c.snapState()
	if err := st.decode(s); err != nil {
		return err
	}
	if err := c.genOpt.Restore(c.gen.Params(), st.genOpt); err != nil {
		return err
	}
	if err := c.discOpt.Restore(c.disc.Params(), st.discOpt); err != nil {
		return err
	}
	c.round = st.round
	return nil
}

// SaveCheckpoint atomically writes the current state into dir, named by
// the completed round count, and returns the file path.
func (c *Centralized) SaveCheckpoint(dir string) (string, error) {
	return snap.SaveCheckpoint(dir, c.round, c.Snapshot())
}

// RestoreLatestCheckpoint finds the newest checkpoint in dir and restores
// it. ok is false when dir holds no checkpoint (the caller trains from
// scratch).
func (c *Centralized) RestoreLatestCheckpoint(dir string) (rounds int, ok bool, err error) {
	return snap.RestoreLatest(dir, c.Restore, c.Rounds)
}
