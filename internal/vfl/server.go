package vfl

import (
	"errors"
	"fmt"
	"log"
	"math"
	"runtime/debug"
	"sort"

	ag "repro/internal/autograd"
	"repro/internal/condvec"
	"repro/internal/encoding"
	"repro/internal/gan"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// Config holds the server-side training configuration for GTV.
type Config struct {
	// Plan is the neural-network partition.
	Plan Plan
	// Rounds is the number of training rounds.
	Rounds int
	// DiscSteps is the number of critic updates per round (the paper's e).
	DiscSteps int
	// BatchSize is the minibatch size.
	BatchSize int
	// NoiseDim is the generator noise width.
	NoiseDim int
	// BlockDim is the discriminator block width (256 in the paper).
	BlockDim int
	// GenBlockDim is the generator block width and the width of the split
	// boundary; 0 means BlockDim. The paper's "enlarged" generator setting
	// raises this to 768 while BlockDim stays 256.
	GenBlockDim int
	// LR is the Adam learning rate for all parties.
	LR float64
	// Seed drives server randomness and per-client weight initialization.
	Seed int64
	// Pac is the PacGAN packing degree applied at the top critic: D^t
	// judges Pac concatenated samples at a time (CTGAN uses 10). BatchSize
	// must be divisible by Pac; 0 means 1.
	Pac int
	// DPLogitNoise, when positive, adds zero-mean Gaussian noise with this
	// standard deviation to every intermediate logit matrix the server
	// receives — the local-DP style protection discussed (and rejected for
	// its accuracy cost) in the paper's §3.3. Off by default.
	DPLogitNoise float64
	// FaithfulRealPass selects the paper's index-privacy mode: when true,
	// clients that did not contribute the conditional vector pass their
	// entire table through D_i^b and the server row-selects the logits, so
	// idx_p never leaves the server/contributor pair (§3.1.6). When false,
	// the server broadcasts idx_p to every client — cheaper, with the
	// privacy trade-off of the paper's P2P alternative.
	FaithfulRealPass bool
	// GradTopK, when in (0, 1), keeps only the largest-magnitude fraction
	// of each boundary gradient the server sends a client (BackwardDisc,
	// BackwardGen), zeroing the rest. Dropped mass is not lost: a
	// per-client, per-stream error-feedback accumulator carries it into
	// the next round's gradient (the standard top-k + memory compressor;
	// Fed-TGAN motivates tolerating this kind of lossy compression in
	// federated tabular GAN training). Sparsified gradients travel as
	// index lists on the binary wire, cutting gradient traffic roughly by
	// the sparsity factor. Lossy and therefore off by default (0): dense
	// same-seed runs stay byte-identical. The accumulator state is
	// checkpointed, so resumed runs replay identically. Transport
	// independent — the sparsification happens in the server before the
	// Client call, so local and remote runs with the same setting match.
	GradTopK float64
	// Parallelism bounds how many clients the server drives concurrently
	// within each protocol step (forwards, gradient scatter, shuffle
	// trigger, synthesis). 0 means all clients at once; 1 reproduces the
	// sequential path. Training results are bit-identical across settings:
	// all server-side randomness is drawn before each fan-out, in client
	// order, and each client's own call sequence is preserved.
	Parallelism int
}

// DefaultConfig returns a laptop-scale GTV configuration with the paper's
// default partition D2_0 G0_2 (all FN blocks on the server, generator on
// the server).
//
//lint:ignore deadcode test configuration of the vfl and tensor tests
func DefaultConfig() Config {
	return Config{
		Plan:      Plan{DiscServer: 2, DiscClient: 0, GenServer: 0, GenClient: 2},
		Rounds:    150,
		DiscSteps: 2,
		BatchSize: 128,
		NoiseDim:  64,
		BlockDim:  256,
		LR:        2e-4,
		Seed:      1,
	}
}

func (c *Config) validate() error {
	if err := c.Plan.Validate(); err != nil {
		return err
	}
	if c.Rounds <= 0 || c.BatchSize <= 0 {
		return fmt.Errorf("vfl: rounds %d and batch size %d must be positive", c.Rounds, c.BatchSize)
	}
	if c.DiscSteps <= 0 {
		c.DiscSteps = 1
	}
	if c.NoiseDim <= 0 {
		c.NoiseDim = 64
	}
	if c.BlockDim <= 0 {
		c.BlockDim = 256
	}
	if c.GenBlockDim <= 0 {
		c.GenBlockDim = c.BlockDim
	}
	if c.LR <= 0 {
		c.LR = 2e-4
	}
	if c.Pac <= 0 {
		c.Pac = 1
	}
	if c.BatchSize%c.Pac != 0 {
		return fmt.Errorf("vfl: batch size %d not divisible by pac %d", c.BatchSize, c.Pac)
	}
	if c.DPLogitNoise < 0 {
		return fmt.Errorf("vfl: negative DP noise %v", c.DPLogitNoise)
	}
	if c.GradTopK < 0 || c.GradTopK > 1 {
		return fmt.Errorf("vfl: gradient top-k fraction %v outside [0, 1]", c.GradTopK)
	}
	return nil
}

// Server is the trusted-third-party coordinator of Algorithm 1. It owns the
// top generator G^t, the top discriminator D^t and the conditional-vector
// filter D^s; it never sees raw rows, the clients' shuffle secret, or (in
// faithful mode) which rows matched a conditional vector on clients other
// than the contributor.
type Server struct {
	cfg Config
	rng *rng.Rand
	// modelRng seeds weight initialization and keeps feeding the top
	// discriminator's dropout masks during training, so checkpoints must
	// capture its stream position alongside rng's.
	modelRng *rng.Rand
	clients  []Client
	infos    []ClientInfo
	ratios   []float64

	sliceWidths []int // generator boundary split (sums to GenBlockDim)
	discWidths  []int // client logit widths (sums to BlockDim)
	cvOffsets   []int
	cvWidth     int
	rows        int

	gTop *nn.Sequential
	dTop *nn.Sequential
	dS   *nn.Sequential
	gOpt *nn.Adam
	dOpt *nn.Adam

	round int
	comm  commAccount

	// topkEF holds the per-client error-feedback accumulators for GradTopK
	// (nil when disabled). The three streams per client are the server's
	// outbound gradient tensors: 0 = disc synthetic, 1 = disc real (after
	// any faithful-pass scatter), 2 = generator. Entries are shape-lazily
	// allocated; fan-out goroutines touch disjoint client indices only.
	// Checkpoints carry them in section secSTopKEF.
	topkEF [][3]*tensor.Dense
}

// fanOut drives fn across all clients under the configured parallelism
// bound (see fanClients). fn must wrap its errors with client context.
func (s *Server) fanOut(fn func(i int, c Client) error) error {
	return fanClients(s.clients, s.cfg.Parallelism, fn)
}

// guardCalls wraps client i so that a panic inside one of its protocol calls
// becomes that call's error, a *panicError naming the client and the method,
// with the stack logged once. Most calls run in fanClients' goroutines, where
// no caller can recover a panic and it would end the server process.
func guardCalls(i int, c Client) Client {
	return Intercept(c, func(method string, call func() (any, error)) (out any, err error) {
		defer stopPanic(&err, func(v any) error { return &panicError{i, method, v} })
		return call()
	})
}

// panicError is a protocol call that panicked instead of returning.
type panicError struct {
	client int
	method string
	value  any
}

func (e *panicError) Error() string {
	return fmt.Sprintf("vfl: client %d %s panicked: %v", e.client, e.method, e.value)
}

// stopPanic, deferred by a protocol step, turns a panic in the step into
// *err = describe(the panic value) and logs that error with the stack.
func stopPanic(err *error, describe func(v any) error) {
	if v := recover(); v != nil {
		*err = describe(v)
		log.Printf("%v\n%s", *err, debug.Stack())
	}
}

// maxCVWidth bounds the federation's conditional-vector width. D^s is a
// cvWidth x cvWidth layer, so at this width its weights alone are 32 GiB:
// an Info reply claiming more is hostile or broken, not a table.
const maxCVWidth = 1 << 16

// NewServer performs the setup handshake: it collects client metadata,
// computes the ratio vector and width splits, builds the top models and
// configures every client's bottom models.
func NewServer(clients []Client, cfg Config) (*Server, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(clients) == 0 {
		return nil, errors.New("vfl: no clients")
	}
	s := &Server{
		cfg:     cfg,
		rng:     rng.New(cfg.Seed),
		clients: make([]Client, len(clients)),
		infos:   make([]ClientInfo, len(clients)),
	}
	for i, c := range clients {
		s.clients[i] = guardCalls(i, c)
	}
	if cfg.GradTopK > 0 {
		s.topkEF = make([][3]*tensor.Dense, len(clients))
	}
	featureCounts := make([]int, len(clients))
	err := s.fanOut(func(i int, c Client) error {
		info, err := c.Info()
		if err != nil {
			return fmt.Errorf("vfl: client %d info: %w", i, err)
		}
		if info.Rows <= 0 || info.EncodedWidth < 0 || info.CVWidth < 0 {
			return &replyError{i, "Info", fmt.Sprintf("%d rows, encoded width %d, CV width %d",
				info.Rows, info.EncodedWidth, info.CVWidth)}
		}
		s.infos[i] = info
		featureCounts[i] = info.Features
		return nil
	})
	if err != nil {
		return nil, err
	}
	s.rows = s.infos[0].Rows
	for i, info := range s.infos {
		if info.Rows != s.rows {
			return nil, fmt.Errorf("vfl: client %d has %d rows, client 0 has %d (tables must be aligned)",
				i, info.Rows, s.rows)
		}
	}
	ratios, err := Ratios(featureCounts)
	if err != nil {
		return nil, err
	}
	s.ratios = ratios
	if s.sliceWidths, err = SplitWidths(cfg.GenBlockDim, ratios); err != nil {
		return nil, fmt.Errorf("vfl: splitting generator boundary: %w", err)
	}
	if s.discWidths, err = SplitWidths(cfg.BlockDim, ratios); err != nil {
		return nil, fmt.Errorf("vfl: splitting discriminator widths: %w", err)
	}
	s.cvOffsets = make([]int, len(clients))
	for i, info := range s.infos {
		if info.CVWidth > maxCVWidth-s.cvWidth { // the sum cannot overflow
			return nil, &replyError{i, "Info", fmt.Sprintf("CV width %d takes the federation's total past %d",
				info.CVWidth, maxCVWidth)}
		}
		s.cvOffsets[i] = s.cvWidth
		s.cvWidth += info.CVWidth
	}

	// Top models. G^t: n1 residual blocks then the boundary FC producing
	// the GenBlockDim-wide vector that Split partitions by P_r. D^t: n3 FN
	// blocks then the mandatory score FC. D^s: a small trainable filter on
	// the conditional vector.
	// The layers retain this generator: dropout masks inside D^t keep
	// drawing from it every round, which is why it lives on the Server (a
	// capturable rng.Rand) instead of being a constructor-local throwaway.
	s.modelRng = rng.New(cfg.Seed + 1)
	initRng := s.modelRng.Rand
	s.gTop = gan.NewGenerator(initRng, cfg.NoiseDim+s.cvWidth, cfg.GenBlockDim, cfg.Plan.GenServer, cfg.GenBlockDim)
	dsOut := 0
	if s.cvWidth > 0 {
		dsOut = s.cvWidth
		s.dS = nn.NewSequential(
			nn.NewLinear(initRng, s.cvWidth, dsOut),
			nn.LeakyReLU{Slope: 0.2},
		)
	}
	s.dTop = gan.NewDiscriminator(initRng, (cfg.BlockDim+dsOut)*cfg.Pac, cfg.BlockDim, cfg.Plan.DiscServer)
	s.gOpt = nn.NewAdam(cfg.LR)
	s.dOpt = nn.NewAdam(cfg.LR)

	err = s.fanOut(func(i int, c Client) error {
		setup := Setup{
			Plan:          cfg.Plan,
			SliceWidth:    s.sliceWidths[i],
			GenBlockWidth: s.sliceWidths[i],
			DiscWidth:     s.discWidths[i],
			LR:            cfg.LR,
			Seed:          cfg.Seed + int64(100+i),
		}
		if err := c.Configure(setup); err != nil {
			return fmt.Errorf("vfl: configuring client %d: %w", i, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Ratios exposes the computed P_r vector.
func (s *Server) Ratios() []float64 { return s.ratios }

// CommStats returns a consistent snapshot of the accumulated
// server<->client payload accounting. It is safe to call from any
// goroutine, including while a round is in flight. Clients whose
// transport measures its connection (WireByteCounter: WireClient, and an
// Intercept decorator over one, which forwards it) additionally contribute
// exact framed bytes to the WireBytes field.
func (s *Server) CommStats() CommStats {
	stats := s.comm.snapshot()
	for _, c := range s.clients {
		if wc, ok := c.(WireByteCounter); ok {
			stats.WireBytes += wc.WireBytes()
		}
		if wc, ok := c.(WireMethodByteCounter); ok {
			stats.WireBytesByMethod.add(wc.WireBytesByMethod())
		}
	}
	return stats
}

// Train runs the full Algorithm 1 loop. The optional progress callback
// receives (round, criticLoss, generatorLoss) once per round.
func (s *Server) Train(progress func(round int, dLoss, gLoss float64)) error {
	// Starting from s.round rather than zero makes the loop resume-aware:
	// a restored checkpoint sets s.round to the rounds already completed.
	for s.round < s.cfg.Rounds {
		r := s.round
		dLoss, gLoss, err := s.TrainRound()
		if err != nil {
			return fmt.Errorf("vfl: round %d: %w", r, err)
		}
		if progress != nil {
			progress(r, dLoss, gLoss)
		}
	}
	return nil
}

// TrainRound runs one round: DiscSteps critic updates, one generator
// update, then the shared shuffle (steps 3-23 of Algorithm 1).
func (s *Server) TrainRound() (dLoss, gLoss float64, err error) {
	for step := 0; step < s.cfg.DiscSteps; step++ {
		if dLoss, err = s.discStep(); err != nil {
			return 0, 0, fmt.Errorf("critic step: %w", err)
		}
	}
	if gLoss, err = s.genStep(); err != nil {
		return 0, 0, fmt.Errorf("generator step: %w", err)
	}
	round := s.round
	err = s.fanOut(func(i int, c Client) error {
		if err := c.EndRound(round); err != nil {
			return fmt.Errorf("client %d shuffle: %w", i, err)
		}
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	s.round++
	s.comm.add(func(c *CommStats) { c.Rounds++ })
	return dLoss, gLoss, nil
}

// pickContributor draws the CV-contributing client p with probability P_r.
func (s *Server) pickContributor() int {
	u := s.rng.Float64()
	var cum float64
	for i, r := range s.ratios {
		cum += r
		if u < cum {
			return i
		}
	}
	return len(s.ratios) - 1
}

// embedCV places contributor p's local conditional vector into the global
// CV coordinate space, in a pooled matrix.
func (s *Server) embedCV(local *tensor.Dense, p int) *tensor.Dense {
	out := tensor.NewPooled(local.Rows(), s.cvWidth)
	off := s.cvOffsets[p]
	for i := 0; i < local.Rows(); i++ {
		copy(out.RawRow(i)[off:off+local.Cols()], local.RawRow(i))
	}
	return out
}

// replyError reports a reply the server cannot use: the client answered,
// but with a matrix, batch or table of the wrong shape, or a matrix holding
// a NaN or an infinity. In VFL the other party is the threat model, so
// every reply is checked against the shape the server itself asked for
// before any of its math sees it — what would
// otherwise be a ConcatCols or matmul panic, or a nil dereference inside a
// fan-out goroutine no caller can recover, is this error instead.
type replyError struct {
	client  int
	method  string
	problem string
}

func (e *replyError) Error() string {
	return fmt.Sprintf("vfl: client %d %s reply: %s", e.client, e.method, e.problem)
}

// checkMatrix is the gate of every matrix a client returns: present, rows x
// cols as the request implies, and finite — one NaN or Inf would otherwise
// poison every loss and weight of the federation from that round on. The
// finiteness scan is one vectorised pass over the reply.
func checkMatrix(client int, method string, m *tensor.Dense, rows, cols int) error {
	switch {
	case m == nil:
		return &replyError{client, method, "no matrix"}
	case m.Rows() != rows || m.Cols() != cols:
		return &replyError{client, method, fmt.Sprintf("%dx%d matrix, want %dx%d", m.Rows(), m.Cols(), rows, cols)}
	case !m.AllFinite():
		return &replyError{client, method, "non-finite element"}
	}
	return nil
}

// cvSource names the contributor of one batch and draws its conditional
// vectors, checked: the one step training, free synthesis and conditional
// synthesis do differently before the generator runs.
type cvSource func(batch int) (p int, cvb *condvec.Batch, err error)

// contributorCV is Algorithm 1's source: contributor p drawn with
// probability P_r, sampling by log-frequency (training) or raw frequency
// (synthesis).
func (s *Server) contributorCV(synthesis bool) cvSource {
	return func(batch int) (int, *condvec.Batch, error) {
		p := s.pickContributor()
		cvb, err := s.clients[p].SampleCV(batch, synthesis)
		return p, cvb, s.checkCV(p, "SampleCV", cvb, err, batch, !synthesis)
	}
}

// fixedCV is conditional synthesis's source: always client p, always the
// one category of its span. It never touches the server RNG.
func (s *Server) fixedCV(p, spanIdx, category int) cvSource {
	return func(batch int) (int, *condvec.Batch, error) {
		cvb, err := s.clients[p].SampleCVFixed(batch, spanIdx, category)
		return p, cvb, s.checkCV(p, "SampleCVFixed", cvb, err, batch, false)
	}
}

// checkCV passes a failed CV call on with the client named, and otherwise
// checks the batch: the CV matrix against the width client p declared and,
// for training, one row index per CV, every index inside the table — the
// server gathers full-pass logits and scatters their gradients by those
// indices. A synthesis batch must carry no index: the server has no use
// for one, and §3.1.5 sanctions idx_p for training only.
func (s *Server) checkCV(p int, method string, b *condvec.Batch, err error, batch int, training bool) error {
	if err != nil {
		return fmt.Errorf("client %d %s: %w", p, method, err)
	}
	if b == nil {
		return &replyError{p, method, "no batch"}
	}
	if err := checkMatrix(p, method, b.CV, batch, s.infos[p].CVWidth); err != nil {
		return err
	}
	if !training {
		if len(b.Rows) != 0 {
			return &replyError{p, method, fmt.Sprintf("%d row indices in a synthesis batch", len(b.Rows))}
		}
		return nil
	}
	if len(b.Rows) != batch {
		return &replyError{p, method, fmt.Sprintf("%d row indices for a batch of %d", len(b.Rows), batch)}
	}
	for _, r := range b.Rows {
		if r < 0 || r >= s.rows {
			return &replyError{p, method, fmt.Sprintf("row index %d outside the %d-row table", r, s.rows)}
		}
	}
	return nil
}

// generatorForward runs steps 1-5 of Algorithm 1: draw the contributor's
// CV from sampleCV, run the top generator and split the boundary output by
// P_r. A synthesis forward (train false) keeps nothing but the slices: the
// graph, the noise and the embedded CV go back to the pool before it
// returns, and globalCV and gtOut come back nil.
func (s *Server) generatorForward(batch int, train bool, sampleCV cvSource) (p int, cvRows []int, globalCV *tensor.Dense, gtOut *ag.Value, slices []*tensor.Dense, err error) {
	p, cvb, err := sampleCV(batch)
	if err != nil {
		return 0, nil, nil, nil, nil, err
	}
	globalCV = s.embedCV(cvb.CV, p)
	s.comm.add(func(c *CommStats) { c.CVBytes += matrixBytes(cvb.CV.Rows(), cvb.CV.Cols()) })
	noise := gan.SampleNoise(s.rng.Rand, batch, s.cfg.NoiseDim)
	// Concatenated in the graph: the pooled input matrix then belongs to an
	// interior node, which the step's tape returns (a Const leaf would
	// shield it, and the collector would have it every step).
	gtOut = s.gTop.Forward(ag.ConcatCols(ag.Const(noise), ag.Const(globalCV)), train)
	slices = gtOut.Data().SplitCols(s.sliceWidths)
	for _, sl := range slices {
		rows, cols := sl.Rows(), sl.Cols()
		s.comm.add(func(c *CommStats) { c.GenSlicesSent += matrixBytes(rows, cols) })
	}
	if !train {
		// SplitCols copied the slices out. They themselves are never
		// released: a WireClient attempt that timed out may still be
		// encoding one (see scatterRowsAccumulate).
		ag.Release(gtOut)
		noise.Release()
		globalCV.Release()
		return p, cvb.Rows, nil, nil, slices, nil
	}
	return p, cvb.Rows, globalCV, gtOut, slices, nil
}

// drawDPNoise pre-draws one DP perturbation matrix from the server RNG, or
// returns nil when the DP mode is off. All draws happen on the main
// goroutine before a fan-out, in client order, so the server's RNG stream
// is consumed identically whether clients run sequentially or
// concurrently.
func (s *Server) drawDPNoise(rows, cols int) *tensor.Dense {
	if s.cfg.DPLogitNoise <= 0 {
		return nil
	}
	return tensor.Randn(s.rng.Rand, rows, cols, 0, s.cfg.DPLogitNoise)
}

// perturb applies a pre-drawn DP noise matrix to an incoming intermediate
// logit matrix (the local-DP protection of §3.3; see Config.DPLogitNoise).
// The noise is drawn at the logits' shape.
//
//shape:in(B,W) in(B,W) out(B,W)
func perturb(m, noise *tensor.Dense) *tensor.Dense {
	if noise == nil {
		return m
	}
	return tensor.Add(m, noise)
}

// sparsifyGrad applies GradTopK compression with error feedback to one
// outbound gradient: the client-bound tensor keeps only the k = ceil(frac
// * n) largest-magnitude elements of grad plus the accumulated residual,
// and everything dropped lands back in the accumulator for the next round
// (top-k + memory). Deterministic: the threshold comes from a full sort
// and ties at the threshold are kept in index order, so a given
// (grad, accumulator) pair always produces the same output regardless of
// transport or parallelism. Returns grad untouched when GradTopK is off;
// otherwise returns a fresh tensor the caller owns.
func (s *Server) sparsifyGrad(client, stream int, grad *tensor.Dense) *tensor.Dense {
	if s.topkEF == nil || grad == nil {
		return grad
	}
	acc := s.topkEF[client][stream]
	if acc == nil || acc.Rows() != grad.Rows() || acc.Cols() != grad.Cols() {
		// First use, or the stream changed shape (e.g. FaithfulRealPass
		// toggled between runs): residuals for the old shape are
		// meaningless, start clean.
		acc = tensor.New(grad.Rows(), grad.Cols())
		s.topkEF[client][stream] = acc
	}
	ad := acc.Data()
	out := tensor.New(grad.Rows(), grad.Cols())
	td := out.Data()
	finite := true
	for i, v := range grad.Data() {
		t := v + ad[i]
		if math.IsNaN(t) || math.IsInf(t, 0) {
			finite = false
		}
		td[i] = t
	}
	n := len(td)
	k := int(math.Ceil(s.cfg.GradTopK * float64(n)))
	if !finite || k >= n {
		// A non-finite gradient must reach the client undamped (its
		// training loop decides what to do with it), and k >= n keeps
		// everything anyway; either way the residual is fully drained.
		clear(ad)
		return out
	}
	if k < 1 {
		k = 1
	}
	abs := make([]float64, n)
	for i, v := range td {
		abs[i] = math.Abs(v)
	}
	sort.Float64s(abs)
	thr := abs[n-k]
	kept := 0
	for _, v := range td {
		if math.Abs(v) > thr {
			kept++
		}
	}
	need := k - kept
	thrBits := math.Float64bits(thr)
	for i, v := range td {
		a := math.Abs(v)
		keep := a > thr
		if !keep && need > 0 && math.Float64bits(a) == thrBits {
			keep = true
			need--
		}
		if keep {
			ad[i] = 0
		} else {
			ad[i] = v
			td[i] = 0
		}
	}
	return out
}

// discStep performs one distributed WGAN-GP critic update (steps 4-16).
func (s *Server) discStep() (float64, error) {
	batch := s.cfg.BatchSize
	p, cvRows, globalCV, gtOut, slices, err := s.generatorForward(batch, true, s.contributorCV(false))
	if err != nil {
		return 0, err
	}
	n := len(s.clients)
	fakeVars := make([]*ag.Value, n)
	realVars := make([]*ag.Value, n)
	// In faithful mode every client but the contributor runs its full local
	// table through D_i^b and the server selects the logits (steps 12, 14).
	fullPass := func(i int) bool { return i != p && s.cfg.FaithfulRealPass }
	// Pre-draw the DP perturbations in the sequential order (synthetic then
	// real, per client) so concurrent rounds stay bit-identical.
	synthNoise := make([]*tensor.Dense, n)
	realNoise := make([]*tensor.Dense, n)
	for i := range s.clients {
		synthNoise[i] = s.drawDPNoise(batch, s.discWidths[i])
		realNoise[i] = s.drawDPNoise(batch, s.discWidths[i])
	}
	err = s.fanOut(func(i int, c Client) error {
		logits, err := c.ForwardSynthetic(slices[i], PhaseDiscriminator)
		if err != nil {
			return fmt.Errorf("client %d synthetic forward: %w", i, err)
		}
		if err := checkMatrix(i, "ForwardSynthetic", logits, batch, s.discWidths[i]); err != nil {
			return err
		}
		s.comm.add(func(cs *CommStats) { cs.DiscLogitsReceived += matrixBytes(logits.Rows(), logits.Cols()) })
		fakeVars[i] = ag.Var(perturb(logits, synthNoise[i]))

		// The contributor selects its own matching rows (step 10), and in
		// broadcast mode so does everyone else.
		idx, wantRows := cvRows, len(cvRows)
		if fullPass(i) {
			idx, wantRows = nil, s.rows
		}
		realLogits, err := c.ForwardReal(idx)
		if err != nil {
			return fmt.Errorf("client %d real forward: %w", i, err)
		}
		if err := checkMatrix(i, "ForwardReal", realLogits, wantRows, s.discWidths[i]); err != nil {
			return err
		}
		s.comm.add(func(cs *CommStats) { cs.DiscLogitsReceived += matrixBytes(realLogits.Rows(), realLogits.Cols()) })
		if fullPass(i) {
			realLogits = realLogits.GatherRows(cvRows)
		}
		realVars[i] = ag.Var(perturb(realLogits, realNoise[i]))
		return nil
	})
	if err != nil {
		return 0, err
	}

	fakeIn, realIn := s.topInputs(fakeVars, realVars, globalCV)
	fakePacked := s.pack(fakeIn)
	realPacked := s.pack(realIn)
	fakeScores := s.dTop.Forward(fakePacked, true)
	realScores := s.dTop.Forward(realPacked, true)
	loss := gan.CriticLoss(fakeScores, realScores)
	gp := gan.GradientPenalty(s.rng.Rand, realPacked.Data(), fakePacked.Data(), func(x *ag.Value) *ag.Value {
		return s.dTop.Forward(x, true)
	})
	total := ag.Add(loss, gp)

	serverParams := s.dTop.Params()
	if s.dS != nil {
		serverParams = append(serverParams, s.dS.Params()...)
	}
	targets := make([]*ag.Value, 0, len(serverParams)+2*n)
	targets = append(targets, serverParams...)
	targets = append(targets, fakeVars...)
	targets = append(targets, realVars...)
	grads := ag.Grad(total, targets...)
	s.dOpt.Step(serverParams, grads[:len(serverParams)])

	err = s.fanOut(func(i int, c Client) error {
		gradSynth := grads[len(serverParams)+i].Data()
		gradReal := grads[len(serverParams)+n+i].Data()
		if fullPass(i) {
			// Scatter back to the client's full-pass output rows,
			// accumulating duplicates.
			gradReal = scatterRowsAccumulate(gradReal, cvRows, s.rows)
		}
		gradSynth = s.sparsifyGrad(i, 0, gradSynth)
		gradReal = s.sparsifyGrad(i, 1, gradReal)
		bytes := matrixBytes(gradSynth.Rows(), gradSynth.Cols()) +
			matrixBytes(gradReal.Rows(), gradReal.Cols())
		s.comm.add(func(cs *CommStats) { cs.GradsSent += bytes })
		if err := c.BackwardDisc(gradSynth, gradReal); err != nil {
			return fmt.Errorf("client %d disc backward: %w", i, err)
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	lossVal := total.Item()

	// All clients have consumed their gradient matrices; recycle the server
	// side of the step's graph. gtOut is a root of its own because the
	// discriminator phase never connects the generator forward to the loss
	// (clients receive plain slices). The fakeVars/realVars leaves are
	// skipped, so client-owned logit buffers are never touched here.
	var tape ag.Tape
	tape.Track(total, gtOut)
	tape.Track(grads...)
	tape.Release()
	// The embedded CV sat under a Const leaf, which the tape shields.
	globalCV.Release()
	return lossVal, nil
}

// genStep performs one distributed generator update (steps 18-22).
func (s *Server) genStep() (float64, error) {
	batch := s.cfg.BatchSize
	p, _, globalCV, gtOut, slices, err := s.generatorForward(batch, true, s.contributorCV(false))
	if err != nil {
		return 0, err
	}
	n := len(s.clients)
	fakeVars := make([]*ag.Value, n)
	synthNoise := make([]*tensor.Dense, n)
	for i := range s.clients {
		synthNoise[i] = s.drawDPNoise(batch, s.discWidths[i])
	}
	err = s.fanOut(func(i int, c Client) error {
		logits, err := c.ForwardSynthetic(slices[i], PhaseGenerator)
		if err != nil {
			return fmt.Errorf("client %d generator forward: %w", i, err)
		}
		if err := checkMatrix(i, "ForwardSynthetic", logits, batch, s.discWidths[i]); err != nil {
			return err
		}
		s.comm.add(func(cs *CommStats) { cs.DiscLogitsReceived += matrixBytes(logits.Rows(), logits.Cols()) })
		fakeVars[i] = ag.Var(perturb(logits, synthNoise[i]))
		return nil
	})
	if err != nil {
		return 0, err
	}
	fakeIn, _ := s.topInputs(fakeVars, nil, globalCV)
	scores := s.dTop.Forward(s.pack(fakeIn), true)
	loss := gan.GeneratorLoss(scores)
	grads := ag.Grad(loss, fakeVars...)

	sliceGrads := make([]*tensor.Dense, n)
	err = s.fanOut(func(i int, c Client) error {
		g := s.sparsifyGrad(i, 2, grads[i].Data())
		s.comm.add(func(cs *CommStats) { cs.GradsSent += matrixBytes(g.Rows(), g.Cols()) })
		sg, err := c.BackwardGen(g, i == p)
		if err != nil {
			return fmt.Errorf("client %d generator backward: %w", i, err)
		}
		if err := checkMatrix(i, "BackwardGen", sg, batch, s.sliceWidths[i]); err != nil {
			return err
		}
		s.comm.add(func(cs *CommStats) { cs.SliceGradsReceived += matrixBytes(sg.Rows(), sg.Cols()) })
		sliceGrads[i] = sg
		return nil
	})
	if err != nil {
		return 0, err
	}
	// Continue backpropagation into G^t with the clients' input gradients.
	boundaryGrad := tensor.ConcatCols(sliceGrads...)
	// BackwardGen hands the server sole ownership of each slice gradient
	// (LocalClient returns a pooled clone; the wire transports decode into
	// pooled buffers); ConcatCols copied them, so recycle them here.
	for _, sg := range sliceGrads {
		sg.Release()
	}
	proxy := ag.SumAll(ag.Mul(gtOut, ag.Const(boundaryGrad)))
	params := s.gTop.Params()
	pgrads := ag.Grad(proxy, params...)
	s.gOpt.Step(params, pgrads)
	lossVal := loss.Item()

	var tape ag.Tape
	tape.Track(proxy, loss)
	tape.Track(grads...)
	tape.Track(pgrads...)
	tape.Release()
	globalCV.Release()
	return lossVal, nil
}

// pack applies PacGAN packing at the critic boundary.
func (s *Server) pack(v *ag.Value) *ag.Value {
	if s.cfg.Pac <= 1 {
		return v
	}
	rows, cols := v.Shape()
	return ag.Reshape(v, rows/s.cfg.Pac, cols*s.cfg.Pac)
}

// topInputs assembles D^t inputs: the concatenation of per-client logits
// and, when conditional vectors exist, the D^s filter output (step 7).
// realVars may be nil during the generator phase.
func (s *Server) topInputs(fakeVars, realVars []*ag.Value, globalCV *tensor.Dense) (fakeIn, realIn *ag.Value) {
	var dsOut *ag.Value
	if s.dS != nil {
		dsOut = s.dS.Forward(ag.Const(globalCV), true)
	}
	join := func(vars []*ag.Value) *ag.Value {
		parts := make([]*ag.Value, 0, len(vars)+1)
		parts = append(parts, vars...)
		if dsOut != nil {
			parts = append(parts, dsOut)
		}
		return ag.ConcatCols(parts...)
	}
	fakeIn = join(fakeVars)
	if realVars != nil {
		realIn = join(realVars)
	}
	return fakeIn, realIn
}

// scatterRowsAccumulate maps gradients of selected rows back onto the full
// row space, summing duplicates. The result is left to the collector on
// purpose: it looks releasable once BackwardDisc has returned, but under a
// call deadline (a WireClient's CallPolicy) an attempt that timed out may still
// be encoding it while its retry returns, so it must not go back to the pool.
func scatterRowsAccumulate(grad *tensor.Dense, idx []int, rows int) *tensor.Dense {
	out := tensor.New(rows, grad.Cols())
	for k, r := range idx {
		dst := out.RawRow(r)
		src := grad.RawRow(k)
		for j, v := range src {
			dst[j] += v
		}
	}
	return out
}

// Synthesize generates n rows of joint synthetic data: the server drives
// generator-only forward passes (steps 1-3 of Fig. 4), each client buffers
// and decodes its own columns, shuffles them with the shared publication
// seed, and the horizontal concatenation of the published slices is the
// final dataset (§3.1.7).
func (s *Server) Synthesize(n int) (*encoding.Table, error) {
	joined, _, err := s.SynthesizeParts(n)
	return joined, err
}

// SynthesizeParts is Synthesize but returns the per-client synthetic slices
// alongside the joined table, which the Avg-client and Across-client
// metrics need.
func (s *Server) SynthesizeParts(n int) (*encoding.Table, []*encoding.Table, error) {
	return s.synthesize(n, s.contributorCV(true))
}

// SynthesizeCondition generates n rows all conditioned on one category of
// client p's categorical span spanIdx (conditional synthesis). The
// contributor is fixed to p for every batch.
func (s *Server) SynthesizeCondition(n, p, spanIdx, category int) (*encoding.Table, error) {
	if p < 0 || p >= len(s.clients) {
		return nil, fmt.Errorf("vfl: client %d out of range %d", p, len(s.clients))
	}
	joined, _, err := s.synthesize(n, s.fixedCV(p, spanIdx, category))
	return joined, err
}

// synthesize is the one synthesis loop: batches of generator-only forward
// passes under sampleCV's conditions, buffered client-side, then one
// Publish per client and the horizontal join.
func (s *Server) synthesize(n int, sampleCV cvSource) (*encoding.Table, []*encoding.Table, error) {
	if n <= 0 {
		return nil, nil, fmt.Errorf("vfl: cannot synthesize %d rows", n)
	}
	done := 0
	for done < n {
		batch := s.cfg.BatchSize
		if n-done < batch {
			batch = n - done
		}
		_, _, _, _, slices, err := s.generatorForward(batch, false, sampleCV)
		if err == nil {
			err = s.fanOut(func(i int, c Client) error {
				if err := c.GenerateRows(slices[i]); err != nil {
					return fmt.Errorf("vfl: client %d generating: %w", i, err)
				}
				return nil
			})
		}
		if err != nil {
			return nil, nil, s.discardSynthesis(err)
		}
		done += batch
	}
	parts := make([]*encoding.Table, len(s.clients))
	err := s.fanOut(func(i int, c Client) error {
		t, err := c.Publish()
		if err != nil {
			return fmt.Errorf("vfl: client %d publishing: %w", i, err)
		}
		if t == nil || t.Rows() != n {
			return &replyError{i, "Publish", fmt.Sprintf("not the %d-row table asked for", n)}
		}
		parts[i] = t
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	joined, err := encoding.ConcatColumns(parts...)
	if err != nil {
		return nil, nil, fmt.Errorf("vfl: assembling synthetic table: %w", err)
	}
	return joined, parts, nil
}

// discardSynthesis is the error path of synthesize's batch loop. The
// clients that generated a batch before the failure still buffer it, and
// their next Publish would hand those rows to the next Synthesize, so every
// client gets one Publish whose table is dropped. Publish consumes a
// publication seed with or without rows, so every client the discard
// reaches moves on by one seed and stays aligned with its peers. A client
// that had nothing buffered refuses that Publish, which is expected. A
// client the discard cannot reach may still hold rows, so its error is
// appended to cause.
func (s *Server) discardSynthesis(cause error) error {
	// The callback records instead of failing: one client the discard
	// cannot reach must not stop it from reaching the others.
	unreached := make([]error, len(s.clients)+1)
	unreached[len(s.clients)] = s.fanOut(func(i int, c Client) error {
		if _, err := c.Publish(); IsTransient(err) {
			unreached[i] = fmt.Errorf("client %d: %w", i, err)
		}
		return nil
	})
	if err := errors.Join(unreached...); err != nil {
		return fmt.Errorf("%w (discarding the rows buffered so far also failed: %v)", cause, err)
	}
	return cause
}
