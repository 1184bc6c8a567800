// Package core is the top-level GTV API: it wires vertically-partitioned
// tabular data, the partition plan and the training hyper-parameters into a
// ready-to-train system, and exposes synthesis of the joint synthetic table.
//
// A GTV system consists of one trusted-third-party server and N clients,
// each owning a disjoint set of columns for the same (aligned) rows. The
// generator and discriminator are split into top models (server) and bottom
// models (clients) according to a Plan; training follows Algorithm 1 of the
// paper, with conditional vectors accommodated by training-with-shuffling.
//
// Typical use:
//
//	tables, _ := table.VerticalSplit(assignment, 2)
//	g, _ := core.New(tables, core.DefaultOptions())
//	_ = g.Train(nil)
//	synthetic, _ := g.Synthesize(table.Rows())
//
// core.Dial builds it over clients in other processes; the paper's
// centralized CTGAN baseline is core.NewCentralized.
package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime/pprof"

	"repro/internal/encoding"
	"repro/internal/gan"
	"repro/internal/vfl"
)

// Options configures a GTV system. The zero value is not usable; start
// from DefaultOptions.
type Options struct {
	// Plan is the neural-network partition (D^{n3}_{n4} G^{n1}_{n2}).
	Plan vfl.Plan
	// Rounds, DiscSteps and BatchSize control the training loop.
	Rounds, DiscSteps, BatchSize int
	// NoiseDim, BlockDim and GenBlockDim size the networks. GenBlockDim=0
	// means BlockDim; the paper's "enlarged generator" sets it to
	// 3*BlockDim.
	NoiseDim, BlockDim, GenBlockDim int
	// LR is the Adam learning rate for every party.
	LR float64
	// Pac is the PacGAN packing degree at the critic (CTGAN uses 10);
	// BatchSize must be divisible by it. 0 means no packing.
	Pac int
	// DPLogitNoise optionally adds Gaussian noise to intermediate logits
	// received by the server (local-DP style; the paper discusses and
	// rejects this for its accuracy cost — see §3.3).
	DPLogitNoise float64
	// Seed drives model initialization and training randomness.
	Seed int64
	// ShuffleSecret is the secret the clients share for
	// training-with-shuffling. It must be withheld from the server; in this
	// in-process construction that is a convention enforced by the API
	// surface (the server type has no access to it).
	ShuffleSecret int64
	// FaithfulRealPass selects the paper's index-privacy mode (see
	// vfl.Config.FaithfulRealPass).
	FaithfulRealPass bool
	// Parallelism bounds how many clients the server drives concurrently
	// per protocol step: 0 means all, 1 means sequential (see
	// vfl.Config.Parallelism). Training results are bit-identical across
	// settings.
	Parallelism int
	// Transport selects how New's server reaches the clients: "local" (or
	// empty) drives them in-process; "binary" serves each client on a TCP
	// loopback listener over the gtvwire frame protocol (see DESIGN.md
	// "Wire protocol") and dials it as Dial dials a remote one —
	// byte-for-byte the traffic a multi-machine deployment exchanges.
	// Training results are bit-identical across transports (float32 mode
	// aside). Call Close to tear the loopback listeners down.
	Transport string
	// WireFloat32 sends activation and gradient matrices as float32 on
	// the binary transport, halving boundary traffic at the cost of exact
	// cross-transport reproducibility. Only valid with Transport
	// "binary".
	WireFloat32 bool
	// WireTopK, when in (0, 1), keeps only this fraction of each boundary
	// gradient the server sends, with error feedback carrying the dropped
	// mass into later rounds (see vfl.Config.GradTopK). Sparsified
	// gradients travel as index lists on the binary transport; the setting
	// itself is transport independent, so a local run with the same
	// fraction follows the identical trajectory. Lossy; off by default.
	WireTopK float64
	// WireDelta ships checkpoint fetches from remote clients as deltas
	// against the previous fetch instead of full blobs (see
	// vfl.(*WireClient).SetDelta). Lossless. Only valid with Transport
	// "binary".
	WireDelta bool
	// CallPolicy hardens the binary transport's calls (deadline +
	// transient-error retry); ignored for the local transport. The zero
	// value imposes nothing.
	CallPolicy vfl.CallPolicy
	// CheckpointDir, when set, makes Train write an atomic gtvsnap
	// checkpoint of the trainer (for a federation, server state plus every
	// client's bottom-model blob) into this directory every CheckpointEvery
	// rounds and after the final round. See DESIGN.md "Checkpoint format".
	CheckpointDir string
	// CheckpointEvery is the round interval between checkpoints; 0 means
	// every round.
	CheckpointEvery int
	// Resume makes New, Dial and NewCentralized restore the newest checkpoint
	// in CheckpointDir (if any), continuing the original run byte-identically.
	Resume bool
	// DataDir, when set, moves each party's encoded training matrix into
	// a gtvcol columnar file under this directory (<party>.enc.gtvcol);
	// batches are gathered through a bounded block cache, so resident
	// memory stays flat regardless of dataset size. The file is keyed by
	// the seed, the GMM config, the row count and the schema, not by the
	// rows: a rerun with rows of the same shape reuses it without
	// re-fitting or re-encoding, reads none of its rows and trains on the
	// stored image, not on the table it was handed. Training is
	// bit-identical with or without a DataDir.
	DataDir string
	// BlockCacheMB bounds, in MiB, the bytes each party's block cache
	// holds; blocks are held in their on-disk form, so that is about as
	// many MiB of the party's .enc.gtvcol file, and batched training runs
	// at in-memory speed while the file fits. 0 selects the coldata
	// default (256 MiB). Only meaningful with DataDir: without one, the
	// encoded matrix is an in-memory image whose cache is unbounded.
	BlockCacheMB int
}

// storage builds the per-party gtvcol storage config; name is the file
// stem ("central", "client-0", ...).
func (o Options) storage(name string) encoding.Storage {
	return encoding.Storage{
		Dir:        o.DataDir,
		Name:       name,
		CacheBytes: int64(o.BlockCacheMB) << 20,
	}
}

// DefaultOptions returns a laptop-scale configuration with the paper's
// preferred partition D2_0 G2_0 (discriminator on the server, generator on
// the clients — the scalable choice for evenly distributed columns).
func DefaultOptions() Options {
	return Options{
		Plan:          vfl.Plan{DiscServer: 2, DiscClient: 0, GenServer: 0, GenClient: 2},
		Rounds:        400,
		DiscSteps:     3,
		BatchSize:     64,
		NoiseDim:      32,
		BlockDim:      64,
		LR:            5e-4,
		Seed:          1,
		ShuffleSecret: 0x67747673, // any value shared by the clients
	}
}

// PaperOptions returns the paper-scale configuration: block width 256,
// CTGAN's learning rate and five critic steps per round. It is roughly two
// orders of magnitude more compute than DefaultOptions.
//
//lint:ignore deadcode bench/_gtvbench (ROADMAP 1(i))
func PaperOptions() Options {
	o := DefaultOptions()
	o.Rounds = 3000
	o.DiscSteps = 5
	o.BatchSize = 500
	o.NoiseDim = 128
	o.BlockDim = 256
	o.LR = 2e-4
	o.Pac = 10
	return o
}

func (o Options) vflConfig() vfl.Config {
	return vfl.Config{
		Plan:             o.Plan,
		Rounds:           o.Rounds,
		DiscSteps:        o.DiscSteps,
		BatchSize:        o.BatchSize,
		NoiseDim:         o.NoiseDim,
		BlockDim:         o.BlockDim,
		GenBlockDim:      o.GenBlockDim,
		LR:               o.LR,
		Pac:              o.Pac,
		DPLogitNoise:     o.DPLogitNoise,
		Seed:             o.Seed,
		FaithfulRealPass: o.FaithfulRealPass,
		Parallelism:      o.Parallelism,
		GradTopK:         o.WireTopK,
	}
}

// GTV is a configured vertical-federated tabular GAN.
type GTV struct {
	server  *vfl.Server
	ckpt    checkpoints
	clients []*vfl.LocalClient // New's; Dial's run elsewhere

	// Loopback listeners for New's binary transport; gtvwire proxies.
	listeners []net.Listener
	proxies   []io.Closer
}

// New builds a GTV system from pre-partitioned client tables (all with the
// same number of aligned rows). The tables are read during construction
// only: no party keeps its raw rows, and a party whose DataDir store
// matches reads none of them. With the binary Transport in the options,
// each client is served on its own TCP loopback listener and reached the
// way Dial reaches a remote one; call Close when done.
func New(clientTables []*encoding.Table, opts Options) (*GTV, error) {
	parties := make([]encoding.Source, len(clientTables))
	for i, t := range clientTables {
		parties[i] = t
	}
	return newOver(parties, opts)
}

// newOver is New over each party's source: NewFromAssignment's parts load
// their rows only if their store misses.
func newOver(parties []encoding.Source, opts Options) (*GTV, error) {
	if len(parties) == 0 {
		return nil, errors.New("core: no client tables")
	}
	switch opts.Transport {
	case "", "local":
		if opts.WireFloat32 {
			return nil, errors.New("core: WireFloat32 requires the binary transport")
		}
		if opts.WireDelta {
			return nil, errors.New("core: WireDelta requires the binary transport")
		}
	case "binary":
	default:
		return nil, fmt.Errorf("core: unknown transport %q (want local or binary)", opts.Transport)
	}
	g := &GTV{}
	coord := vfl.NewShuffleCoordinator(opts.ShuffleSecret)
	clients := make([]vfl.Client, len(parties))
	for i, src := range parties {
		c, err := NewClient(src, i, coord, opts)
		if err != nil {
			return nil, g.fail(fmt.Errorf("core: client %d: %w", i, err))
		}
		g.clients = append(g.clients, c)
		clients[i] = c
	}
	if opts.Transport != "binary" {
		return g.start(clients, opts)
	}
	addrs := make([]string, len(g.clients))
	for i, c := range g.clients {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, g.fail(fmt.Errorf("core: client %d listener: %w", i, err))
		}
		g.listeners = append(g.listeners, lis)
		// The serve loop and the connections it accepts carry the profile
		// label phase=serve in place of whatever label the caller runs
		// under, so a CPU profile tells the clients' work from the server's.
		//lint:ignore goroleak serve-loop daemon: it exits when Close shuts the listener, which also closes every served connection
		go func() {
			pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(), pprof.Labels("phase", "serve")))
			//lint:ignore errdrop the serve loop ends when Close shuts the listener
			_ = vfl.ServeClientWire(lis, c)
		}()
		addrs[i] = lis.Addr().String()
	}
	return g.dial(addrs, opts)
}

// NewClient builds client i of a federation over its columns; all clients
// share coord's shuffle secret. It is the one place that derives a
// client's seed and gtvcol file name from the options. The source's rows
// are loaded only if the client's store misses.
func NewClient(src encoding.Source, i int, coord *vfl.ShuffleCoordinator, opts Options) (*vfl.LocalClient, error) {
	return vfl.NewLocalClientStored(src, coord, opts.Seed+int64(i)*1000,
		opts.storage(fmt.Sprintf("client-%d", i)))
}

// Dial builds a GTV system over clients served elsewhere (as gtv-client
// does), one address per client in order, under the options' CallPolicy,
// WireFloat32 and WireDelta; the rest is New's. Transport is ignored, and
// SynthesizeCondition sees no clients.
func Dial(addrs []string, opts Options) (*GTV, error) {
	return (&GTV{}).dial(addrs, opts)
}

// dial connects a gtvwire proxy to each address and starts over them.
func (g *GTV) dial(addrs []string, opts Options) (*GTV, error) {
	clients := make([]vfl.Client, len(addrs))
	for i, addr := range addrs {
		wc, err := vfl.DialWireClientPolicy("tcp", addr, opts.CallPolicy)
		if err != nil {
			return nil, g.fail(fmt.Errorf("core: dialing client %d: %w", i, err))
		}
		wc.SetFloat32(opts.WireFloat32)
		wc.SetDelta(opts.WireDelta)
		g.proxies = append(g.proxies, wc)
		clients[i] = wc
	}
	return g.start(clients, opts)
}

// start is the assembly step New and Dial share: the server over clients,
// then the checkpoint options.
func (g *GTV) start(clients []vfl.Client, opts Options) (*GTV, error) {
	server, err := vfl.NewServer(clients, opts.vflConfig())
	if err != nil {
		return nil, g.fail(fmt.Errorf("core: server setup: %w", err))
	}
	g.server = server
	if g.ckpt, err = openCheckpoints(server, opts); err != nil {
		return nil, g.fail(err)
	}
	return g, nil
}

// fail closes everything g has built so far and returns err.
func (g *GTV) fail(err error) error {
	_ = g.Close() //lint:ignore errdrop setup already failed, the teardown error adds nothing
	return err
}

// trainer is what the checkpoint options drive: *vfl.Server and
// *gan.Centralized.
type trainer interface {
	Train(progress func(round int, dLoss, gLoss float64)) error
	Rounds() int
	SaveCheckpoint(dir string) (string, error)
	RestoreLatestCheckpoint(dir string) (rounds int, ok bool, err error)
}

// checkpoints runs one trainer under the options' checkpoint settings.
type checkpoints struct {
	t     trainer
	dir   string
	every int
}

// openCheckpoints, the step New, Dial and NewCentralized share, creates
// CheckpointDir and, with Resume, restores its newest checkpoint into t.
func openCheckpoints(t trainer, opts Options) (checkpoints, error) {
	c := checkpoints{t: t, dir: opts.CheckpointDir, every: opts.CheckpointEvery}
	if c.dir == "" {
		if opts.Resume {
			return c, errors.New("core: Resume is set but CheckpointDir is empty: there is no checkpoint to resume from")
		}
		return c, nil
	}
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return c, fmt.Errorf("core: checkpoint dir: %w", err)
	}
	if opts.Resume {
		if _, _, err := t.RestoreLatestCheckpoint(c.dir); err != nil {
			return c, fmt.Errorf("core: resume: %w", err)
		}
	}
	return c, nil
}

// train is the cadence every trainer shares: progress (which may be nil)
// sees each round, then every `every` rounds (0 means every round) a
// checkpoint goes into dir, and once more after an off-interval last
// round. After a failed write no further one is attempted, and that first
// failure is what train returns once the rounds are done.
func (c checkpoints) train(progress func(round int, dLoss, gLoss float64)) error {
	if c.dir == "" {
		return c.t.Train(progress)
	}
	every := max(c.every, 1)
	var saveErr error
	err := c.t.Train(func(round int, dLoss, gLoss float64) {
		if progress != nil {
			progress(round, dLoss, gLoss)
		}
		if saveErr == nil && (round+1)%every == 0 {
			_, saveErr = c.t.SaveCheckpoint(c.dir)
		}
	})
	if err != nil {
		return err
	}
	if saveErr != nil {
		return fmt.Errorf("checkpointing: %w", saveErr)
	}
	if c.t.Rounds()%every != 0 {
		if _, err := c.t.SaveCheckpoint(c.dir); err != nil {
			return fmt.Errorf("final checkpoint: %w", err)
		}
	}
	return nil
}

// Close tears down the transport (proxies first, then the loopback
// listeners their serve loops accept on) and releases every client's
// encoded-data backing (file handles and block caches when a DataDir is
// configured). It is safe to call more than once.
func (g *GTV) Close() error {
	var first error
	for _, p := range g.proxies {
		if err := p.Close(); err != nil && first == nil {
			first = err
		}
	}
	g.proxies = nil
	for _, lis := range g.listeners {
		if err := lis.Close(); err != nil && first == nil {
			first = err
		}
	}
	g.listeners = nil
	for _, c := range g.clients {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	g.clients = nil
	return first
}

// NewFromAssignment vertically splits a single logical table across
// numClients parties (assignment[j] = owning party of column j) and builds
// the GTV system. The split is deferred (encoding.DeferredSplit): a
// federation whose every party's DataDir store matches reads none of its
// rows, and otherwise the first party that misses copies every party's
// columns in one pass.
func NewFromAssignment(table *encoding.Table, assignment []int, numClients int, opts Options) (*GTV, error) {
	parts, err := table.DeferredSplit(assignment, numClients)
	if err != nil {
		return nil, fmt.Errorf("core: splitting table: %w", err)
	}
	return newOver(parts, opts)
}

// ColumnOrder returns the layout of the table a federation built by
// NewFromAssignment synthesizes: the original column at each position,
// party 0's columns first, each party's in table order.
func ColumnOrder(assignment []int, numClients int) []int {
	order := make([]int, 0, len(assignment))
	for p := 0; p < numClients; p++ {
		for j, owner := range assignment {
			if owner == p {
				order = append(order, j)
			}
		}
	}
	return order
}

// EvenAssignment distributes numCols columns across numClients parties in
// contiguous runs, preserving column order (the paper's neural-network
// partition experiment setup). Leftover columns go to the earliest parties.
func EvenAssignment(numCols, numClients int) ([]int, error) {
	if numClients <= 0 || numCols < numClients {
		return nil, fmt.Errorf("core: cannot split %d columns across %d clients", numCols, numClients)
	}
	out := make([]int, numCols)
	base := numCols / numClients
	extra := numCols % numClients
	j := 0
	for p := 0; p < numClients; p++ {
		width := base
		if p < extra {
			width++
		}
		for k := 0; k < width; k++ {
			out[j] = p
			j++
		}
	}
	return out, nil
}

// Train runs the full training loop under the options' checkpoint
// settings. The optional progress callback receives (round, criticLoss,
// generatorLoss).
func (g *GTV) Train(progress func(round int, dLoss, gLoss float64)) error {
	return g.ckpt.train(progress)
}

// Checkpoint writes a federation checkpoint into dir immediately and
// returns its path.
//
//lint:ignore deadcode bench/_gtvbench (ROADMAP 1(i))
func (g *GTV) Checkpoint(dir string) (string, error) {
	return g.server.SaveCheckpoint(dir)
}

// Rounds returns the number of completed training rounds — non-zero right
// after New or Dial when Options.Resume restored a checkpoint.
func (g *GTV) Rounds() int { return g.server.Rounds() }

// TrainRound runs a single round (for callers driving their own loop).
//
//lint:ignore deadcode bench/_gtvbench (ROADMAP 1(i))
func (g *GTV) TrainRound() (dLoss, gLoss float64, err error) {
	return g.server.TrainRound()
}

// Synthesize generates n rows of joint synthetic data.
func (g *GTV) Synthesize(n int) (*encoding.Table, error) {
	return g.server.Synthesize(n)
}

// SynthesizeParts generates n rows and also returns each client's
// synthetic slice (needed by the Avg-client/Across-client metrics).
func (g *GTV) SynthesizeParts(n int) (*encoding.Table, []*encoding.Table, error) {
	return g.server.SynthesizeParts(n)
}

// Ratios exposes the feature-ratio vector P_r.
func (g *GTV) Ratios() []float64 { return g.server.Ratios() }

// CommStats returns the accumulated server<->client payload accounting.
func (g *GTV) CommStats() vfl.CommStats { return g.server.CommStats() }

// Centralized is gan.Centralized run under the options' checkpoint settings.
type Centralized struct {
	*gan.Centralized
	ckpt checkpoints
}

// NewCentralized builds the paper's centralized CTGAN baseline with
// hyper-parameters and checkpoint settings matching the given options.
func NewCentralized(table *encoding.Table, opts Options) (*Centralized, error) {
	cfg := gan.Config{
		Rounds:     opts.Rounds,
		DiscSteps:  opts.DiscSteps,
		BatchSize:  opts.BatchSize,
		NoiseDim:   opts.NoiseDim,
		BlockDim:   opts.BlockDim,
		GenBlocks:  2,
		DiscBlocks: 2,
		LR:         opts.LR,
		Pac:        opts.Pac,
		Seed:       opts.Seed,
	}
	c, err := gan.NewCentralizedStored(table, cfg, opts.storage("central"))
	if err != nil {
		return nil, err
	}
	ckpt, err := openCheckpoints(c, opts)
	if err != nil {
		_ = c.Close() //lint:ignore errdrop setup already failed, the teardown error adds nothing
		return nil, err
	}
	return &Centralized{Centralized: c, ckpt: ckpt}, nil
}

// Train runs the training loop as GTV.Train does.
func (c *Centralized) Train(progress func(round int, dLoss, gLoss float64)) error {
	return c.ckpt.train(progress)
}

// SynthesizeCondition generates n rows conditioned on one category of one
// client's categorical column ("control the class of generation", §2.2).
// clientIdx names the owning client (in the order tables were passed to
// New); column and categoryLabel refer to that client's schema.
//
//lint:ignore deadcode conditional synthesis, a capability README documents
func (g *GTV) SynthesizeCondition(n, clientIdx int, column, categoryLabel string) (*encoding.Table, error) {
	if clientIdx < 0 || clientIdx >= len(g.clients) {
		return nil, fmt.Errorf("core: client %d out of range %d", clientIdx, len(g.clients))
	}
	spanIdx, category, err := g.clients[clientIdx].ResolveCondition(column, categoryLabel)
	if err != nil {
		return nil, err
	}
	return g.server.SynthesizeCondition(n, clientIdx, spanIdx, category)
}
