package vfl

import (
	"errors"
	"fmt"
	"math"

	ag "repro/internal/autograd"
	"repro/internal/condvec"
	"repro/internal/encoding"
	"repro/internal/gan"
	"repro/internal/gmm"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// Phase distinguishes the two halves of a training round.
type Phase int

// Training phases.
const (
	// PhaseDiscriminator trains the critic; the generator path is detached.
	PhaseDiscriminator Phase = iota + 1
	// PhaseGenerator trains the generator through the frozen critic.
	PhaseGenerator
)

// ClientInfo is the metadata a client discloses during setup. None of it is
// row-level data: only schema-shape quantities the protocol needs.
type ClientInfo struct {
	// Features is the number of raw columns the client owns (drives P_r).
	Features int
	// EncodedWidth is the width of the client's encoded representation.
	EncodedWidth int
	// CVWidth is the width of the client's local conditional vector.
	CVWidth int
	// Rows is the number of aligned rows.
	Rows int
}

// Setup carries the architecture parameters the server assigns a client
// once the ratio vector is known.
type Setup struct {
	Plan Plan
	// SliceWidth is the width of the generator slice routed to this client.
	SliceWidth int
	// GenBlockWidth is this client's share of the generator block width.
	GenBlockWidth int
	// DiscWidth is the width of this client's discriminator logits (its
	// share of the discriminator block width).
	DiscWidth int
	// LR is the Adam learning rate.
	LR float64
	// Seed initializes the client's local weights and Gumbel noise.
	Seed int64
}

// Client is the protocol surface the GTV server drives. LocalClient
// implements it in-process; WireClient proxies it over the network; the
// client Intercept returns decorates either.
//
// Concurrency contract: the server fans protocol steps out across
// clients, so distinct Client instances are driven from distinct
// goroutines — but the server serializes the calls it makes to any single
// client (a client never sees two of its own methods in flight at once).
// An implementation must therefore tolerate its methods being invoked
// from changing goroutines over time; the server's fan-out join provides
// the happens-before edge between consecutive calls. Any state shared
// BETWEEN client instances (e.g. the ShuffleCoordinator) must be
// immutable or internally synchronized. LocalClient meets the contract
// because all its mutable state is per-instance, the coordinator is
// internally synchronized (its memo of the latest row order sits behind a
// mutex) and the row orders it hands out are never written again;
// WireClient meets it because its session pipelines concurrent calls by
// sequence number and its reconnect path is mutex-guarded.
// Every data-returning Client method is a privacy sink: its results cross
// to the server, so privflow verifies nothing source-tainted reaches them
// unsanitized.
type Client interface {
	// Info returns schema-shape metadata.
	//privacy:sink schema metadata visible to the server
	Info() (ClientInfo, error)
	// Configure builds the client's bottom models for the assigned widths.
	Configure(Setup) error
	// SampleCV draws a conditional-vector batch from the client's local
	// data (the client acts as contributor p). A training batch carries
	// matching row indices (idx_p); synthesis selects raw-frequency
	// category sampling (generation time) instead of log-frequency sampling
	// (training time), and its batch carries no row indices.
	//privacy:sink conditional vectors and idx_p sent to the server
	SampleCV(batch int, synthesis bool) (*condvec.Batch, error)
	// SampleCVFixed draws a batch whose every CV selects the given category
	// of the client's categorical span spanIdx (conditional synthesis). It
	// carries no row indices.
	//privacy:sink conditioned CV batch sent to the server
	SampleCVFixed(batch, spanIdx, category int) (*condvec.Batch, error)
	// ForwardSynthetic routes a generator slice through G_i^b (+output
	// activations) and D_i^b, returning the intermediate critic logits.
	//privacy:sink critic logits returned to the server
	//shape:in(B,W) out(B,K)
	ForwardSynthetic(slice *tensor.Dense, phase Phase) (*tensor.Dense, error)
	// ForwardReal passes real rows through D_i^b. A nil idx means the full
	// local table (the paper's privacy-preserving path for clients that did
	// not contribute the CV; the server row-selects the logits).
	//privacy:sink real-branch critic logits returned to the server
	//shape:out(R,K)
	ForwardReal(idx []int) (*tensor.Dense, error)
	// BackwardDisc applies critic gradients (w.r.t. the logits returned by
	// the last ForwardSynthetic/ForwardReal) and updates D_i^b.
	//
	//shape:in(Bs,K) in(Br,K2)
	BackwardDisc(gradSynth, gradReal *tensor.Dense) error
	// BackwardGen applies generator gradients, updates G_i^b, and returns
	// the gradient with respect to the input slice so the server can update
	// G^t. conditioned marks this client as the round's CV contributor,
	// which adds the local conditioning cross-entropy.
	//privacy:sink boundary-slice gradient returned to the server
	//shape:in(B,K) out(B,W)
	BackwardGen(gradSynth *tensor.Dense, conditioned bool) (*tensor.Dense, error)
	// EndRound shuffles the local data with the round's shared seed. round
	// is the number of rounds completed before this one, which makes the
	// call idempotent: a repeat of the round just applied (a transport
	// retry whose first attempt did land) changes nothing and succeeds.
	EndRound(round int) error
	// GenerateRows runs a synthesis-time generator pass and buffers the
	// activated rows locally.
	//
	//shape:in(B,W)
	GenerateRows(slice *tensor.Dense) error
	// Publish decodes and shuffles all buffered synthetic rows (with the
	// shared publication seed) and returns the client's synthetic columns.
	//privacy:sink synthetic columns published to the server
	Publish() (*encoding.Table, error)
	// Snapshot serializes the client's bottom-model trajectory state (a
	// KindClient gtvsnap image) for the server's checkpoint. The blob
	// carries weights, optimizer moments and RNG state only — never the
	// table, encoded matrix or CV sampler, which stay client-side and are
	// rebuilt deterministically on restore.
	//privacy:sink bottom-model checkpoint blob stored by the server
	Snapshot() ([]byte, error)
	// Restore reinstates a Snapshot blob into a freshly constructed,
	// already Configure'd client over the same data and seed.
	Restore(state []byte) error
}

// LocalClient is the in-process GTV client: it owns a vertical slice of the
// training table, its feature encoders, the bottom generator and
// discriminator, and their optimizer state.
type LocalClient struct {
	// specs and rows are all the client keeps of its raw table, which
	// construction reads once (to fit and encode, and to count categories)
	// and does not retain. The sampler's row index and data stay in the row
	// order they were built in for the life of the client:
	// training-with-shuffling is order, applied at the boundary (see
	// rowOrder).
	specs       []encoding.ColumnSpec
	rows        int
	transformer *encoding.Transformer
	sampler     *condvec.Sampler
	// data serves the transformed real table (same rows, encoded columns)
	// from a gtvcol image in memory or on disk; leaking what it returns is
	// equivalent to leaking the table.
	//privacy:source client encoded matrix
	data encoding.Backing
	// lastRealBuf is the pooled batch the last ForwardReal gathered; it
	// must stay alive until BackwardDisc recycles the critic graph built
	// on top of it, then goes back to the pool.
	lastRealBuf *tensor.Dense
	coord       *ShuffleCoordinator
	// order is the current row order, shared with every other in-process
	// client of coord. Sampled rows leave through order.pos, the server's
	// idx come in through order.view.
	order rowOrder
	// physIdx is the reusable scratch ForwardReal translates idx into.
	physIdx []int
	// activeRows is the reusable scratch BackwardDisc lists the real-branch
	// gradient's active rows in.
	activeRows []int
	// fullReal is the encoded matrix in the current order, built by the
	// first full-table ForwardReal after a shuffle and dropped by the next
	// EndRound; nil until asked for.
	fullReal *tensor.Dense
	rng      *rng.Rand
	// modelRng seeds Configure's weight initialization and keeps feeding
	// the bottom discriminator's dropout masks during training; snapshots
	// capture its stream position alongside rng's.
	modelRng *rng.Rand

	setup   Setup
	gen     *nn.Sequential
	disc    *nn.Sequential
	genOpt  *nn.Adam
	discOpt *nn.Adam

	// Per-step state retained between forward and backward calls.
	lastSynthOut *ag.Value
	lastRealOut  *ag.Value
	lastRawGen   *ag.Value
	lastSliceVar *ag.Value
	lastDiscGen  *ag.Value // detached generator forward of the critic phase
	lastCV       *condvec.Batch

	synthBuf []*tensor.Dense
	pubCount int
}

var _ Client = (*LocalClient)(nil)

// restrictRealBackward is true, and read-only: only the identity tests
// (through export_test.go) ever clear it, to run the backward pass over every
// row of the real branch and compare.
var restrictRealBackward = true

// NewLocalClient fits the client's feature encoders on its local table,
// holding the encoded matrix as an in-memory gtvcol image. coord must be
// shared by all clients (and hidden from the server); seed drives encoder
// fitting and local randomness.
//
//lint:ignore deadcode in-memory constructor the vfl, tensor and bench/_gtvbench tests use
func NewLocalClient(table *encoding.Table, coord *ShuffleCoordinator, seed int64) (*LocalClient, error) {
	return NewLocalClientStored(table, coord, seed, encoding.Storage{})
}

// NewLocalClientStored is NewLocalClient with an optional gtvcol data
// plane: when st names a data directory, the client's encoded matrix
// lives in <dir>/<name>.enc.gtvcol and real batches are gathered through
// a bounded block cache (a matching cached file skips fitting and
// encoding). Encoding always draws from the dedicated EncodeSeed stream,
// so stored and in-memory clients train bit-identically from the same
// seed. The table is read during construction only: the client keeps its
// column specs and row count, never its rows.
func NewLocalClientStored(table *encoding.Table, coord *ShuffleCoordinator, seed int64, st encoding.Storage) (*LocalClient, error) {
	if coord == nil {
		return nil, errors.New("vfl: client requires a shuffle coordinator")
	}
	tr, data, err := encoding.OpenOrEncode(st, table, seed, gmm.DefaultConfig())
	if err != nil {
		return nil, fmt.Errorf("vfl: encoding client table: %w", err)
	}
	sampler, err := condvec.NewImageSampler(&data, tr)
	if err != nil {
		//lint:ignore errdrop the sampler error is the one worth reporting
		_ = data.Close()
		return nil, fmt.Errorf("vfl: building client CV sampler: %w", err)
	}
	return &LocalClient{
		specs:       table.Specs,
		rows:        table.Rows(),
		transformer: tr,
		sampler:     sampler,
		data:        data,
		coord:       coord,
		rng:         rng.New(seed),
	}, nil
}

// Close releases the encoded-data backing: its block cache, and the file
// handle of a stored client.
func (c *LocalClient) Close() error {
	if c.lastRealBuf != nil {
		c.lastRealBuf.Release()
		c.lastRealBuf = nil
	}
	c.dropFullReal()
	return c.data.Close()
}

// Info implements Client.
func (c *LocalClient) Info() (ClientInfo, error) {
	return ClientInfo{
		Features:     len(c.specs),
		EncodedWidth: c.transformer.Width(),
		CVWidth:      c.sampler.Width(),
		Rows:         c.rows,
	}, nil
}

// Configure implements Client.
func (c *LocalClient) Configure(s Setup) error {
	if err := s.Plan.Validate(); err != nil {
		return err
	}
	if s.SliceWidth <= 0 || s.DiscWidth <= 0 || s.GenBlockWidth <= 0 {
		return fmt.Errorf("vfl: invalid widths in setup %+v", s)
	}
	// Written so that NaN fails it too.
	if !(s.LR > 0 && s.LR <= math.MaxFloat64) {
		return fmt.Errorf("vfl: invalid learning rate %v", s.LR)
	}
	c.setup = s
	// The layers retain this generator: dropout masks inside the bottom
	// discriminator keep drawing from it every round, so it lives on the
	// client (capturable) instead of being a constructor-local throwaway.
	c.modelRng = rng.New(s.Seed)
	initRng := c.modelRng.Rand

	// Bottom generator: n2 residual blocks then the mandatory output FC.
	c.gen = gan.NewGenerator(initRng, s.SliceWidth, s.GenBlockWidth, s.Plan.GenClient, c.transformer.Width())

	// Bottom discriminator: the mandatory input projection (Linear +
	// LeakyReLU) then n4 FN blocks, all at the client's width share.
	discLayers := []nn.Layer{
		nn.NewLinear(initRng, c.transformer.Width(), s.DiscWidth),
		nn.LeakyReLU{Slope: 0.2},
	}
	for i := 0; i < s.Plan.DiscClient; i++ {
		discLayers = append(discLayers, nn.NewDiscBlock(initRng, s.DiscWidth, s.DiscWidth))
	}
	c.disc = nn.NewSequential(discLayers...)

	c.genOpt = nn.NewAdam(s.LR)
	c.discOpt = nn.NewAdam(s.LR)
	return nil
}

func (c *LocalClient) configured() error {
	if c.gen == nil || c.disc == nil {
		return errors.New("vfl: client not configured")
	}
	return nil
}

// checkSlice rejects a generator slice that is absent or not the width
// Configure assigned. Like idx in toPhysical, the slice and the gradients
// checkGrad looks at come from the untrusted side of the protocol, and
// each is checked where its shape is known so that a bad frame is an error
// frame back, never a panic in the gtv-client serving it.
func (c *LocalClient) checkSlice(slice *tensor.Dense) error {
	if slice == nil {
		return errors.New("vfl: no generator slice")
	}
	if slice.Cols() != c.setup.SliceWidth {
		return fmt.Errorf("vfl: slice width %d, expected %d", slice.Cols(), c.setup.SliceWidth)
	}
	return nil
}

// checkGrad rejects a gradient that is absent or not the shape of the
// retained forward output it is the gradient of.
func checkGrad(what string, grad *tensor.Dense, out *ag.Value) error {
	if grad == nil {
		return fmt.Errorf("vfl: no %s gradient", what)
	}
	if rows, cols := out.Shape(); grad.Rows() != rows || grad.Cols() != cols {
		return fmt.Errorf("vfl: %s gradient %dx%d for a %dx%d forward output", what, grad.Rows(), grad.Cols(), rows, cols)
	}
	return nil
}

// missingForward is BackwardDisc's error for a branch whose forward output
// is not retained. It names both ways to get there: a caller that repeats a
// BackwardDisc that did complete must run the forward passes again.
func missingForward(branch, forward string) error {
	return fmt.Errorf("vfl: BackwardDisc has no retained %s output: %s has not run, or a completed BackwardDisc already consumed the forward state", branch, forward)
}

// SampleCV implements Client.
func (c *LocalClient) SampleCV(batch int, synthesis bool) (*condvec.Batch, error) {
	var (
		b   *condvec.Batch
		err error
	)
	if synthesis {
		b, err = c.sampler.SampleSynthesis(c.rng.Rand, batch)
	} else {
		b, err = c.sampler.Sample(c.rng.Rand, batch)
	}
	if err != nil {
		return nil, err
	}
	c.toLogical(b.Rows)
	c.lastCV = b
	// The contributor deliberately shares idx_p with the server; §3.1.5's
	// training-with-shuffling re-permutes rows every round so indices
	// cannot be joined across rounds to reconstruct data.
	//lint:ignore privflow idx_p disclosure is sanctioned by training-with-shuffling (§3.1.5)
	return b, nil
}

// SampleCVFixed implements Client. Its batch carries no row indices.
func (c *LocalClient) SampleCVFixed(batch, spanIdx, category int) (*condvec.Batch, error) {
	b, err := c.sampler.SampleFixed(c.rng.Rand, batch, spanIdx, category)
	if err != nil {
		return nil, err
	}
	c.lastCV = b
	return b, nil
}

// toLogical rewrites the physical rows the sampler drew from its index as
// the positions they hold in the current order — the idx_p the server
// sees. A sampler without categorical columns draws uniform rows rather
// than indexed ones; those already are positions and pass through, as
// they did when the rows themselves moved. (The uniform fallback for a
// category no row matches is re-mapped like an indexed row: pos is a
// bijection, so it stays a uniform draw.)
func (c *LocalClient) toLogical(rows []int) {
	if c.order.pos == nil || c.sampler.NumSpans() == 0 {
		return
	}
	for k, p := range rows {
		rows[k] = int(c.order.pos[p])
	}
}

// toPhysical translates server-supplied row positions into the physical
// rows holding them, rejecting any position outside the table (idx comes
// from the untrusted side of the protocol). The result is scratch, valid
// until the next call.
func (c *LocalClient) toPhysical(idx []int) ([]int, error) {
	if cap(c.physIdx) < len(idx) {
		c.physIdx = make([]int, len(idx))
	}
	phys := c.physIdx[:len(idx)]
	for k, i := range idx {
		if i < 0 || i >= c.rows {
			return nil, fmt.Errorf("vfl: real row index %d out of range %d", i, c.rows)
		}
		if c.order.view != nil {
			i = int(c.order.view[i])
		}
		phys[k] = i
	}
	return phys, nil
}

// dropFullReal returns the ordered full-table matrix to the pool.
func (c *LocalClient) dropFullReal() {
	if c.fullReal != nil {
		c.fullReal.Release()
		c.fullReal = nil
	}
}

// ResolveCondition maps a column name and category label of this client's
// table to the (span index, category index) SampleCVFixed expects.
func (c *LocalClient) ResolveCondition(column, categoryLabel string) (spanIdx, category int, err error) {
	return gan.ResolveCondition(c.specs, c.sampler, column, categoryLabel)
}

// ForwardSynthetic implements Client.
//
//shape:in(B,W) out(B,K)
func (c *LocalClient) ForwardSynthetic(slice *tensor.Dense, phase Phase) (*tensor.Dense, error) {
	if err := c.configured(); err != nil {
		return nil, err
	}
	if err := c.checkSlice(slice); err != nil {
		return nil, err
	}
	switch phase {
	case PhaseDiscriminator:
		// Critic training: the generator path is outside the graph. The
		// activated output is retained so BackwardDisc can recycle the
		// generator forward graph along with the critic's.
		raw := c.gen.Forward(ag.Const(slice), true)
		activated := gan.ActivateOutput(raw, c.transformer.Spans(), c.rng.Rand)
		c.lastSliceVar = nil
		c.lastRawGen = nil
		c.lastDiscGen = activated
		c.lastSynthOut = c.disc.Forward(activated.Detach(), true)
	case PhaseGenerator:
		// Generator training: keep the full graph, including the input
		// slice so the gradient can flow back to the server's G^t.
		c.lastSliceVar = ag.Var(slice)
		c.lastRawGen = c.gen.Forward(c.lastSliceVar, true)
		activated := gan.ActivateOutput(c.lastRawGen, c.transformer.Spans(), c.rng.Rand)
		c.lastSynthOut = c.disc.Forward(activated, true)
	default:
		return nil, fmt.Errorf("vfl: invalid phase %d", phase)
	}
	return c.lastSynthOut.Data(), nil
}

// ForwardReal implements Client.
//
//shape:out(R,K)
func (c *LocalClient) ForwardReal(idx []int) (*tensor.Dense, error) {
	if err := c.configured(); err != nil {
		return nil, err
	}
	if c.lastRealBuf != nil {
		// A prior forward's batch was never consumed by a backward pass
		// (the server re-drove the phase); recycle it before gathering.
		c.lastRealBuf.Release()
		c.lastRealBuf = nil
	}
	var rows *tensor.Dense
	switch {
	case idx != nil:
		phys, err := c.toPhysical(idx)
		if err != nil {
			return nil, err
		}
		m, err := c.data.GatherRows(phys)
		if err != nil {
			return nil, err
		}
		c.lastRealBuf = m
		rows = m
	default:
		// The full-table pass depends on row position (dropout masks are
		// drawn per position), so it needs the matrix in the current order
		// (pos is nil while that is the backing's own): one ordered copy per
		// shuffle epoch, shared by the critic steps of the round — what the
		// physical shuffle used to cost every round, paid only by
		// federations that run the pass.
		if c.fullReal == nil {
			m, err := c.data.Dense(c.order.pos)
			if err != nil {
				return nil, err
			}
			c.fullReal = m
		}
		rows = c.fullReal
	}
	// The bottom discriminator's forward is the sanitizing boundary; only
	// its activations leave the client. Returning the local (rather than
	// re-reading the field) keeps the sanitized flow visible to privflow.
	out := c.disc.Forward(ag.Const(rows), true)
	c.lastRealOut = out
	return out.Data(), nil
}

// BackwardDisc implements Client.
//
//shape:in(Bs,K) in(Br,K2)
func (c *LocalClient) BackwardDisc(gradSynth, gradReal *tensor.Dense) error {
	if err := c.configured(); err != nil {
		return err
	}
	if c.lastSynthOut == nil {
		return missingForward("synthetic-branch", "ForwardSynthetic")
	}
	if c.lastRealOut == nil {
		return missingForward("real-branch", "ForwardReal")
	}
	if err := checkGrad("synthetic-branch", gradSynth, c.lastSynthOut); err != nil {
		return err
	}
	if err := checkGrad("real-branch", gradReal, c.lastRealOut); err != nil {
		return err
	}
	// The full-table pass gets back a gradient that is +0 outside the batch
	// the server selected; the real branch is then differentiated over the
	// kernel groups that hold a batch row, which gives D_i^b the gradient bit
	// for bit (tensor.ActiveRowGroups, ag.RestrictRows). With every group
	// active — a gathered batch — the restriction is the branch itself.
	realOut, realGrad := c.lastRealOut, gradReal
	if restrictRealBackward {
		c.activeRows = gradReal.ActiveRowGroups(c.activeRows)
		if r, err := ag.RestrictRows(c.lastRealOut, c.activeRows); err == nil && r != c.lastRealOut {
			realOut, realGrad = r, gradReal.GatherRows(c.activeRows)
		}
	}
	// <output, grad> has exactly the requested gradients, so a single
	// backward pass updates D_i^b from both branches.
	proxy := ag.Add(
		ag.SumAll(ag.Mul(c.lastSynthOut, ag.Const(gradSynth))),
		ag.SumAll(ag.Mul(realOut, ag.Const(realGrad))),
	)
	params := c.disc.Params()
	grads := ag.Grad(proxy, params...)
	c.discOpt.Step(params, grads)

	// Recycle the whole critic-phase graph: the real branch as the forward
	// recorded it (which proxy no longer reaches once it was restricted), and
	// the generator forward retained by ForwardSynthetic. The Detach leaf
	// inside proxy's graph shields the activation buffer the two graphs
	// share.
	var tape ag.Tape
	tape.Track(proxy, c.lastRealOut, c.lastDiscGen)
	tape.Track(grads...)
	tape.Release()
	// The gathered gradient rows and the gathered real batch are pooled
	// buffers under Const leaves, which the tape shields; they are returned
	// explicitly now that the critic graph is gone.
	if realGrad != gradReal {
		realGrad.Release()
	}
	if c.lastRealBuf != nil {
		c.lastRealBuf.Release()
		c.lastRealBuf = nil
	}
	c.lastSynthOut, c.lastRealOut, c.lastDiscGen = nil, nil, nil
	return nil
}

// BackwardGen implements Client.
//
//shape:in(B,K) out(B,W)
func (c *LocalClient) BackwardGen(gradSynth *tensor.Dense, conditioned bool) (*tensor.Dense, error) {
	if err := c.configured(); err != nil {
		return nil, err
	}
	if c.lastSynthOut == nil || c.lastSliceVar == nil || c.lastRawGen == nil {
		return nil, errors.New("vfl: BackwardGen before a generator-phase forward")
	}
	if err := checkGrad("generator", gradSynth, c.lastSynthOut); err != nil {
		return nil, err
	}
	proxy := ag.SumAll(ag.Mul(c.lastSynthOut, ag.Const(gradSynth)))
	if conditioned && c.lastCV != nil && c.sampler.Width() > 0 {
		cond := gan.ConditionLoss(c.lastRawGen, c.transformer.CategoricalSpans(), c.lastCV.Choices)
		proxy = ag.Add(proxy, cond)
	}
	params := c.gen.Params()
	targets := make([]*ag.Value, 0, len(params)+1)
	targets = append(targets, params...)
	targets = append(targets, c.lastSliceVar)
	grads := ag.Grad(proxy, targets...)
	c.genOpt.Step(params, grads[:len(params)])
	// The slice gradient outlives the release below (the server concatenates
	// it into the boundary gradient), so it is copied out of the graph.
	sliceGrad := grads[len(params)].Data().Clone()

	var tape ag.Tape
	tape.Track(proxy)
	tape.Track(grads...)
	tape.Release()
	c.lastSynthOut, c.lastSliceVar, c.lastRawGen = nil, nil, nil
	return sliceGrad, nil
}

// EndRound implements Client: training-with-shuffling with the shared seed.
// Nothing moves: the client swaps its row order for the coordinator's next
// one, a single assignment that either happens or does not. round must be
// the number of shuffles already applied; one less is a retry of the
// shuffle just applied (its reply was lost) and is acknowledged without
// shuffling again, which would silently misalign this client's rows with
// its peers'.
func (c *LocalClient) EndRound(round int) error {
	switch {
	case round == c.order.shuffles-1:
		return nil
	case round != c.order.shuffles:
		return fmt.Errorf("vfl: EndRound for round %d on a client that has completed %d", round, c.order.shuffles)
	}
	order, err := c.coord.orderAfter(c.order, c.rows, round+1)
	if err != nil {
		return err
	}
	c.order = order
	c.dropFullReal()
	return nil
}

// GenerateRows implements Client.
//
//shape:in(B,W)
func (c *LocalClient) GenerateRows(slice *tensor.Dense) error {
	if err := c.configured(); err != nil {
		return err
	}
	if err := c.checkSlice(slice); err != nil {
		return err
	}
	raw := c.gen.Forward(ag.Const(slice), false)
	c.synthBuf = append(c.synthBuf, gan.SampleOutput(raw.Data(), c.transformer.Spans(), c.rng.Rand))
	// Only the sampled rows outlive the call: the generator graph goes back
	// to the pool.
	ag.Release(raw)
	return nil
}

// Publish implements Client. Every call consumes one publication seed,
// including a call with nothing buffered: the server's discard after a
// failed synthesis calls every client once, and every client that answers
// must stay on its peers' seed.
func (c *LocalClient) Publish() (*encoding.Table, error) {
	seed := c.coord.PublicationSeed(c.pubCount)
	c.pubCount++
	if len(c.synthBuf) == 0 {
		return nil, errors.New("vfl: nothing to publish")
	}
	enc := tensor.ConcatRows(c.synthBuf...)
	for _, m := range c.synthBuf {
		m.Release()
	}
	clear(c.synthBuf)
	c.synthBuf = c.synthBuf[:0]
	decoded, err := c.transformer.Inverse(enc)
	enc.Release()
	if err != nil {
		return nil, fmt.Errorf("vfl: decoding synthetic rows: %w", err)
	}
	// Shuffle before publication with the shared seed so the server cannot
	// align published rows with the generator inputs it observed (§3.1.7).
	perm, err := publicationOrder(seed, decoded.Rows())
	if err != nil {
		return nil, err
	}
	// The secret only orders the published rows (an order-only flow): the
	// rows themselves are synthetic, and publishing a permutation of them
	// reveals neither the secret nor any real row (§3.1.7).
	//lint:ignore privflow the shuffle secret determines row order only, never row values (§3.1.7)
	return decoded.ShuffleRows(perm), nil
}
