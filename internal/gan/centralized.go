package gan

import (
	"fmt"
	"math"

	ag "repro/internal/autograd"
	"repro/internal/condvec"
	"repro/internal/encoding"
	"repro/internal/gmm"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// Config holds the training hyper-parameters shared by the centralized
// baseline and GTV.
type Config struct {
	// Rounds is the number of training rounds (each = DiscSteps critic
	// updates + one generator update).
	Rounds int
	// DiscSteps is the number of critic updates per round (the paper's
	// local discriminator epochs e, default 5 for WGAN-GP).
	DiscSteps int
	// BatchSize is the minibatch size.
	BatchSize int
	// NoiseDim is the generator noise width (CTGAN uses 128).
	NoiseDim int
	// BlockDim is the residual/FN block width (256 in the paper).
	BlockDim int
	// GenBlocks and DiscBlocks set the trunk depths (2 each in the paper).
	GenBlocks, DiscBlocks int
	// LR is the Adam learning rate for both networks (2e-4 in CTGAN).
	LR float64
	// Pac is the PacGAN packing degree: the critic judges Pac samples at a
	// time, which combats mode collapse (CTGAN uses 10). BatchSize must be
	// divisible by Pac. 0 means 1 (no packing).
	Pac int
	// Seed drives all randomness.
	Seed int64
}

// DefaultConfig returns a laptop-scale configuration with the paper's
// architecture (2 residual blocks, 2 FN blocks, width 256).
//
//lint:ignore deadcode test configuration of the gan and tensor tests
func DefaultConfig() Config {
	return Config{
		Rounds:     150,
		DiscSteps:  2,
		BatchSize:  128,
		NoiseDim:   64,
		BlockDim:   256,
		GenBlocks:  2,
		DiscBlocks: 2,
		LR:         2e-4,
		Seed:       1,
	}
}

// validate fills defaults and checks ranges.
func (c *Config) validate() error {
	if c.Rounds <= 0 || c.BatchSize <= 0 {
		return fmt.Errorf("gan: rounds %d and batch size %d must be positive", c.Rounds, c.BatchSize)
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"DiscSteps", c.DiscSteps}, {"NoiseDim", c.NoiseDim}, {"BlockDim", c.BlockDim}} {
		if f.v <= 0 {
			return fmt.Errorf("gan: %s %d must be positive", f.name, f.v)
		}
	}
	if c.GenBlocks < 0 || c.DiscBlocks < 0 {
		return fmt.Errorf("gan: negative block counts %d/%d", c.GenBlocks, c.DiscBlocks)
	}
	// Before the sign check, which NaN passes.
	if math.IsNaN(c.LR) || math.IsInf(c.LR, 0) {
		return fmt.Errorf("gan: LR %v is not finite", c.LR)
	}
	if c.LR <= 0 {
		return fmt.Errorf("gan: LR %v must be positive", c.LR)
	}
	if c.Pac <= 0 {
		c.Pac = 1
	}
	if c.BatchSize%c.Pac != 0 {
		return fmt.Errorf("gan: batch size %d not divisible by pac %d", c.BatchSize, c.Pac)
	}
	return nil
}

// Centralized is the paper's baseline: a single-party conditional tabular
// GAN with CTGAN/CTAB-GAN feature engineering and WGAN-GP training.
type Centralized struct {
	cfg         Config
	rng         *rng.Rand
	transformer *encoding.Transformer
	sampler     *condvec.Sampler
	// data serves the encoded real rows from a gtvcol image: in memory, or
	// the store's file when NewCentralized is given a data directory.
	data  encoding.Backing
	specs []encoding.ColumnSpec

	gen     *nn.Sequential
	disc    *nn.Sequential
	genOpt  *nn.Adam
	discOpt *nn.Adam

	// round counts completed training rounds; checkpoints persist it so a
	// resumed Train picks up exactly where the interrupted run stopped.
	round int
}

// NewCentralized fits the feature encoders on the source's table and
// builds the GAN. The encoded matrix is a gtvcol image: when st names a
// data directory it lives in <dir>/<name>.enc.gtvcol and training batches
// are gathered through a bounded block cache, and a matching cached file
// skips fitting and encoding, and loading the source's rows, entirely;
// otherwise it is held in memory. Encoding draws from the dedicated
// EncodeSeed stream in every path, so in-memory, freshly encoded and
// cache-hit runs are bit-identical. Close releases the backing when
// training is done.
func NewCentralized(src encoding.Source, cfg Config, st encoding.Storage) (*Centralized, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	tr, data, err := encoding.OpenOrEncode(st, src, cfg.Seed, gmm.DefaultConfig())
	if err != nil {
		return nil, fmt.Errorf("gan: encoding table: %w", err)
	}
	sampler, err := condvec.NewImageSampler(&data, tr)
	if err != nil {
		//lint:ignore errdrop the sampler error is the one worth reporting
		_ = data.Close()
		return nil, fmt.Errorf("gan: building CV sampler: %w", err)
	}
	// The capturable generator (internal/rng) is what makes checkpoints
	// possible: its state words are serialized and reinstated on resume.
	prng := rng.New(cfg.Seed)
	dataW := tr.Width()
	cvW := sampler.Width()
	c := &Centralized{
		cfg:         cfg,
		rng:         prng,
		transformer: tr,
		sampler:     sampler,
		data:        data,
		specs:       src.Schema(),
		gen:         NewGenerator(prng.Rand, cfg.NoiseDim+cvW, cfg.BlockDim, cfg.GenBlocks, dataW),
		disc:        NewDiscriminator(prng.Rand, (dataW+cvW)*cfg.Pac, cfg.BlockDim, cfg.DiscBlocks),
		genOpt:      nn.NewAdam(cfg.LR),
		discOpt:     nn.NewAdam(cfg.LR),
	}
	return c, nil
}

// Close releases the encoded-data backing: its block cache, and the file
// handle of a stored trainer.
func (c *Centralized) Close() error { return c.data.Close() }

// Rounds returns the number of completed training rounds.
func (c *Centralized) Rounds() int { return c.round }

// Train runs the full WGAN-GP loop, continuing from the current round
// counter (0 on a fresh trainer, k after restoring a round-k checkpoint).
// The optional progress callback receives (round, criticLoss, genLoss)
// once per round.
func (c *Centralized) Train(progress func(round int, dLoss, gLoss float64)) error {
	for c.round < c.cfg.Rounds {
		round := c.round
		var dLoss float64
		for step := 0; step < c.cfg.DiscSteps; step++ {
			l, err := c.trainDiscStep()
			if err != nil {
				return fmt.Errorf("gan: round %d critic step: %w", round, err)
			}
			dLoss = l
		}
		gLoss, err := c.trainGenStep()
		if err != nil {
			return fmt.Errorf("gan: round %d generator step: %w", round, err)
		}
		c.round++
		if progress != nil {
			progress(round, dLoss, gLoss)
		}
	}
	return nil
}

// generate runs the generator on a fresh batch, returning the activated
// output, the raw output and the CV batch used.
func (c *Centralized) generate(batch int) (*ag.Value, *ag.Value, *condvec.Batch, error) {
	cvb, err := c.sampler.Sample(c.rng.Rand, batch)
	if err != nil {
		return nil, nil, nil, err
	}
	noise := SampleNoise(c.rng.Rand, batch, c.cfg.NoiseDim)
	// Concatenated in the graph, so the pooled input matrix belongs to an
	// interior node and goes back with the step's tape; behind a Const leaf
	// it would be shielded and lost to the collector every step.
	in := ag.ConcatCols(ag.Const(noise), ag.Const(cvb.CV))
	raw := c.gen.Forward(in, true)
	activated := ActivateOutput(raw, c.transformer.Spans(), c.rng.Rand)
	return activated, raw, cvb, nil
}

// trainDiscStep performs one WGAN-GP critic update.
func (c *Centralized) trainDiscStep() (float64, error) {
	batch := c.cfg.BatchSize
	fake, _, cvb, err := c.generate(batch)
	if err != nil {
		return 0, err
	}
	realRows, err := c.data.GatherRows(cvb.Rows)
	if err != nil {
		return 0, err
	}
	cv := cvb.CV

	fakeIn := packRows(ag.ConcatCols(fake.Detach(), ag.Const(cv)), c.cfg.Pac)
	realIn := packRows(ag.ConcatCols(ag.Const(realRows), ag.Const(cv)), c.cfg.Pac)
	fakeScores := c.disc.Forward(fakeIn, true)
	realScores := c.disc.Forward(realIn, true)

	loss := CriticLoss(fakeScores, realScores)
	gp := GradientPenalty(c.rng.Rand, realIn.Data(), fakeIn.Data(), func(x *ag.Value) *ag.Value {
		return c.disc.Forward(x, true)
	})
	total := ag.Add(loss, gp)
	grads := nn.Grads(total, c.disc)
	c.discOpt.Step(c.disc.Params(), grads)
	lossVal := total.Item()

	// The step's graph is dead now: recycle it. fake is a root of its own
	// (the generator forward was cut by Detach); the Detach leaf inside
	// total's graph keeps the shared activation buffer itself alive.
	var tape ag.Tape
	tape.Track(total, fake)
	tape.Track(grads...)
	tape.Release()
	// The gathered real batch is a pooled buffer the backing handed us;
	// the tape shields Const leaves, so it is returned explicitly now that
	// the step's graph is gone.
	realRows.Release()
	return lossVal, nil
}

// trainGenStep performs one generator update (Wasserstein + conditioning).
func (c *Centralized) trainGenStep() (float64, error) {
	batch := c.cfg.BatchSize
	fake, raw, cvb, err := c.generate(batch)
	if err != nil {
		return 0, err
	}
	scores := c.disc.Forward(packRows(ag.ConcatCols(fake, ag.Const(cvb.CV)), c.cfg.Pac), true)
	loss := GeneratorLoss(scores)
	cond := ConditionLoss(raw, c.transformer.CategoricalSpans(), cvb.Choices)
	total := ag.Add(loss, cond)
	grads := nn.Grads(total, c.gen)
	c.genOpt.Step(c.gen.Params(), grads)
	lossVal := total.Item()

	var tape ag.Tape
	tape.Track(total)
	tape.Track(grads...)
	tape.Release()
	return lossVal, nil
}

// Synthesize generates n synthetic rows and decodes them to a raw table.
func (c *Centralized) Synthesize(n int) (*encoding.Table, error) {
	return c.synthesize(n, func(batch int) (*condvec.Batch, error) {
		return c.sampler.SampleSynthesis(c.rng.Rand, batch)
	})
}

// SynthesizeCondition generates n rows all conditioned on column holding
// categoryLabel (CTGAN's "control the class of generation"). The column
// must be categorical.
//
//lint:ignore deadcode conditional synthesis, a capability README documents
func (c *Centralized) SynthesizeCondition(n int, column, categoryLabel string) (*encoding.Table, error) {
	spanIdx, category, err := ResolveCondition(c.specs, c.sampler, column, categoryLabel)
	if err != nil {
		return nil, err
	}
	return c.synthesize(n, func(batch int) (*condvec.Batch, error) {
		return c.sampler.SampleFixed(c.rng.Rand, batch, spanIdx, category)
	})
}

// synthesize is the one synthesis loop: batches of generator-only forward
// passes under sampleCV's conditions, decoded to a raw table.
func (c *Centralized) synthesize(n int, sampleCV func(batch int) (*condvec.Batch, error)) (*encoding.Table, error) {
	if n <= 0 {
		return nil, fmt.Errorf("gan: cannot synthesize %d rows", n)
	}
	out := tensor.New(n, c.transformer.Width())
	done := 0
	for done < n {
		batch := c.cfg.BatchSize
		if n-done < batch {
			batch = n - done
		}
		cvb, err := sampleCV(batch)
		if err != nil {
			return nil, err
		}
		noise := SampleNoise(c.rng.Rand, batch, c.cfg.NoiseDim)
		raw := c.gen.Forward(ag.ConcatCols(ag.Const(noise), ag.Const(cvb.CV)), false)
		act := SampleOutput(raw.Data(), c.transformer.Spans(), c.rng.Rand)
		for i := 0; i < batch; i++ {
			copy(out.RawRow(done+i), act.RawRow(i))
		}
		// The rows are copied out: the batch's graph, sample and noise go back
		// to the pool before the next batch draws from it.
		ag.Release(raw)
		act.Release()
		noise.Release()
		done += batch
	}
	return c.transformer.Inverse(out)
}

// ResolveCondition maps a (column name, category label) pair to the
// sampler's (span index, category index). It is shared with the VFL client,
// which resolves conditions for its own columns.
func ResolveCondition(specs []encoding.ColumnSpec, sampler *condvec.Sampler, column, categoryLabel string) (int, int, error) {
	colIdx := -1
	for j := range specs {
		if specs[j].Name == column {
			colIdx = j
			break
		}
	}
	if colIdx < 0 {
		return 0, 0, fmt.Errorf("gan: unknown column %q", column)
	}
	if specs[colIdx].Kind != encoding.KindCategorical {
		return 0, 0, fmt.Errorf("gan: column %q is not categorical", column)
	}
	category := -1
	for k, label := range specs[colIdx].Categories {
		if label == categoryLabel {
			category = k
			break
		}
	}
	if category < 0 {
		return 0, 0, fmt.Errorf("gan: column %q has no category %q", column, categoryLabel)
	}
	for i, sp := range sampler.Spans() {
		if sp.Column == colIdx {
			return i, category, nil
		}
	}
	return 0, 0, fmt.Errorf("gan: column %q is not conditionable", column)
}
