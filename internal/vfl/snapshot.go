package vfl

// Checkpoint/restore for the federated trainer. A server checkpoint is one
// gtvsnap file holding the server's own trajectory state — round counter,
// RNG stream, top-model weights, both Adam optimizers, communication
// accounting — plus one opaque blob per client, fetched over the Client
// interface's Snapshot method (a gtvwire round trip for remote clients).
// Each client blob is itself a complete KindClient snapshot of that
// client's bottom models, optimizer moments, RNG stream and shuffle
// progress, and crucially NOT its table, encoded matrix or CV sampler:
// those are deterministic functions of (table, seed) rebuilt by
// NewLocalClient, so the privacy boundary is preserved — the blob the
// server stores carries nothing the protocol has not already sanctioned —
// and checkpoints stay model-sized. Row order, the one piece of data-side
// state training changes, is a shuffle count: restore asks the shuffle
// coordinator to replay the seed-derived order locally (see
// LocalClient.Restore).

import (
	"errors"
	"fmt"

	ag "repro/internal/autograd"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/snap"
	"repro/internal/tensor"
)

// Section ids within a KindClient snapshot. Append only; bump snap.Version
// on any payload change.
const (
	secLMeta     = 1
	secLRNG      = 2
	secLGen      = 3
	secLDisc     = 4
	secLGenOpt   = 5
	secLDiscOpt  = 6
	secLModelRNG = 7
)

// Section ids within a KindServer snapshot. Append only; bump snap.Version
// on any payload change.
const (
	secSMeta     = 1
	secSRNG      = 2
	secSGTop     = 3
	secSDTop     = 4
	secSDS       = 5
	secSGOpt     = 6
	secSDOpt     = 7
	secSComm     = 8
	secSClient   = 9 // repeated: one per client, in client order
	secSModelRNG = 10
	secSTopKEF   = 11 // GradTopK error-feedback accumulators
)

// clientState names everything a client checkpoint blob captures. A field
// added here without being wired through both encode and decode fails
// TestResumeReplayByteIdentical if it is trajectory state;
// TestSnapshotOverWire and TestRestoreRejectsMismatch hold the publication
// count and the two widths.
type clientState struct {
	// shuffles and pubCount are replay counters: together with the
	// coordinator's seed derivations they determine the current row order
	// and the publication stream position without serializing either.
	shuffles int
	pubCount int
	// dataWidth and sliceWidth pin the encoder layout and the configured
	// generator split the weights assume.
	dataWidth  int
	sliceWidth int
	rng        *rng.Rand
	// modelRng feeds the bottom discriminator's dropout masks; its stream
	// position is trajectory state like rng's.
	modelRng *rng.Rand
	gen      *nn.Sequential
	disc     *nn.Sequential
	genOpt   nn.AdamState
	discOpt  nn.AdamState
}

// encode serializes the client state into a finished KindClient image.
func (st *clientState) encode(b *snap.Builder) []byte {
	b.Section(secLMeta, func(e *snap.Enc) {
		e.I64(int64(st.shuffles))
		e.I64(int64(st.pubCount))
		e.I64(int64(st.dataWidth))
		e.I64(int64(st.sliceWidth))
	})
	b.Section(secLRNG, func(e *snap.Enc) { e.RNG(st.rng) })
	b.Section(secLModelRNG, func(e *snap.Enc) { e.RNG(st.modelRng) })
	b.Section(secLGen, func(e *snap.Enc) { nn.EncodeParams(e, st.gen) })
	b.Section(secLDisc, func(e *snap.Enc) { nn.EncodeParams(e, st.disc) })
	b.Section(secLGenOpt, func(e *snap.Enc) { nn.EncodeAdamState(e, st.genOpt) })
	b.Section(secLDiscOpt, func(e *snap.Enc) { nn.EncodeAdamState(e, st.discOpt) })
	return b.Bytes()
}

// decode restores the client state from a parsed KindClient snapshot,
// writing weights and RNG state into the live objects the fields
// reference.
func (st *clientState) decode(s *snap.Snapshot) error {
	if s.Kind != snap.KindClient {
		return fmt.Errorf("gtvsnap: snapshot kind %d is not a client checkpoint", s.Kind)
	}
	if err := s.Read(secLMeta, "meta", func(d *snap.Dec) {
		st.shuffles, st.pubCount = int(d.I64()), int(d.I64())
		dataW, sliceW := int(d.I64()), int(d.I64())
		if st.shuffles < 0 || st.pubCount < 0 {
			d.Failf("negative replay counters %d/%d", st.shuffles, st.pubCount)
		}
		if dataW != st.dataWidth || sliceW != st.sliceWidth {
			d.Failf("checkpoint widths %d/%d do not match configured %d/%d", dataW, sliceW, st.dataWidth, st.sliceWidth)
		}
	}); err != nil {
		return err
	}
	if err := s.Read(secLRNG, "rng", func(d *snap.Dec) { d.RNG(st.rng) }); err != nil {
		return err
	}
	if err := s.Read(secLModelRNG, "model rng", func(d *snap.Dec) { d.RNG(st.modelRng) }); err != nil {
		return err
	}
	if err := s.Read(secLGen, "generator", func(d *snap.Dec) { nn.RestoreParams(d, st.gen) }); err != nil {
		return err
	}
	if err := s.Read(secLDisc, "discriminator", func(d *snap.Dec) { nn.RestoreParams(d, st.disc) }); err != nil {
		return err
	}
	if err := s.Read(secLGenOpt, "generator optimizer", func(d *snap.Dec) { st.genOpt = nn.DecodeAdamState(d) }); err != nil {
		return err
	}
	return s.Read(secLDiscOpt, "discriminator optimizer", func(d *snap.Dec) { st.discOpt = nn.DecodeAdamState(d) })
}

// snapState gathers the live client into a state view.
func (c *LocalClient) snapState() *clientState {
	return &clientState{
		shuffles:   c.order.shuffles,
		pubCount:   c.pubCount,
		dataWidth:  c.transformer.Width(),
		sliceWidth: c.setup.SliceWidth,
		rng:        c.rng,
		modelRng:   c.modelRng,
		gen:        c.gen,
		disc:       c.disc,
	}
}

// Snapshot implements Client: it serializes the bottom-model trajectory
// state as a KindClient snapshot image. The table, encoded matrix and CV
// sampler are deliberately absent — the blob crosses to the server.
func (c *LocalClient) Snapshot() ([]byte, error) {
	if err := c.configured(); err != nil {
		return nil, err
	}
	st := c.snapState()
	st.genOpt = c.genOpt.StateFor(c.gen.Params())
	st.discOpt = c.discOpt.StateFor(c.disc.Params())
	return st.encode(snap.NewBuilder(snap.KindClient)), nil
}

// Restore implements Client: it reinstates a Snapshot blob into a freshly
// constructed, already-configured client over the same data and seed. Row
// order is rebuilt from the checkpointed shuffle count alone: the
// coordinator replays that many seed-derived shuffles over the row order
// (or hands over the one a peer's Restore just computed), reproducing
// exactly the order the original run had at checkpoint time without
// touching table, matrix or sampler. On error the client state is
// unspecified; rebuild before retrying.
func (c *LocalClient) Restore(state []byte) error {
	if err := c.configured(); err != nil {
		return err
	}
	if c.order.shuffles != 0 || c.pubCount != 0 {
		return errors.New("vfl: Restore into a client that has already trained")
	}
	s, err := snap.Decode(state)
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
	order, err := c.coord.orderAfter(rowOrder{}, c.rows, st.shuffles)
	if err != nil {
		return err
	}
	c.order = order
	c.pubCount = st.pubCount
	return nil
}

// serverState names everything a server checkpoint captures beyond the
// per-client blobs. A field added here without being wired through both
// encode and decode fails TestResumeReplayByteIdentical or
// TestTopKResumeByteIdentical if it is trajectory state, and
// TestRestoreRejectsHostileImages if it pins the configuration or the meta
// layout.
type serverState struct {
	// cfg is fingerprinted (Rounds and Parallelism excepted: extending
	// training and changing the fan-out bound are both trajectory-neutral)
	// and verified on restore.
	cfg Config
	// rows, cvWidth and nclients pin the federation layout the weights and
	// blobs assume.
	rows     int
	cvWidth  int
	nclients int
	round    int
	rng      *rng.Rand
	// modelRng feeds the top discriminator's dropout masks; its stream
	// position is trajectory state like rng's.
	modelRng *rng.Rand
	gTop     *nn.Sequential
	dTop     *nn.Sequential
	// dS is the conditional-vector filter; nil when the federation has no
	// categorical spans (cvWidth 0), and that nilness round-trips.
	dS   *nn.Sequential
	gOpt nn.AdamState
	dOpt nn.AdamState
	comm CommStats
	// topkEF holds the GradTopK error-feedback accumulators (nil when the
	// mode is off); undrained residuals are trajectory state, so resumed
	// topk runs replay byte-identically.
	topkEF [][3]*tensor.Dense
	// clients holds one opaque KindClient blob per client, in client
	// order.
	clients [][]byte
}

// fingerprint lists the trajectory-relevant hyper-parameters, in the order
// the meta section stores them. The one table both writes the fingerprint
// and checks it on restore. Rounds is excluded (resume may extend training)
// and so is Parallelism (training is bit-identical across fan-out bounds by
// construction).
func (cfg Config) fingerprint() []snap.Field {
	return []snap.Field{
		{Name: "plan-disc-server", Value: int64(cfg.Plan.DiscServer)},
		{Name: "plan-disc-client", Value: int64(cfg.Plan.DiscClient)},
		{Name: "plan-gen-server", Value: int64(cfg.Plan.GenServer)},
		{Name: "plan-gen-client", Value: int64(cfg.Plan.GenClient)},
		{Name: "disc-steps", Value: int64(cfg.DiscSteps)},
		{Name: "batch", Value: int64(cfg.BatchSize)},
		{Name: "noise-dim", Value: int64(cfg.NoiseDim)},
		{Name: "block-dim", Value: int64(cfg.BlockDim)},
		{Name: "gen-block-dim", Value: int64(cfg.GenBlockDim)},
		{Name: "lr", Value: cfg.LR},
		{Name: "seed", Value: cfg.Seed},
		{Name: "pac", Value: int64(cfg.Pac)},
		{Name: "dp-noise", Value: cfg.DPLogitNoise},
		{Name: "faithful-real-pass", Value: cfg.FaithfulRealPass},
		{Name: "grad-topk", Value: cfg.GradTopK},
	}
}

// encode serializes the server state into a finished KindServer image.
func (st *serverState) encode(b *snap.Builder) []byte {
	b.Section(secSMeta, func(e *snap.Enc) {
		e.I64(int64(st.round))
		e.I64(int64(st.rows))
		e.I64(int64(st.cvWidth))
		e.I64(int64(st.nclients))
		e.Fingerprint(st.cfg.fingerprint())
	})
	b.Section(secSRNG, func(e *snap.Enc) { e.RNG(st.rng) })
	b.Section(secSModelRNG, func(e *snap.Enc) { e.RNG(st.modelRng) })
	b.Section(secSGTop, func(e *snap.Enc) { nn.EncodeParams(e, st.gTop) })
	b.Section(secSDTop, func(e *snap.Enc) { nn.EncodeParams(e, st.dTop) })
	b.Section(secSDS, func(e *snap.Enc) {
		if st.dS == nil {
			e.Bool(false)
			return
		}
		e.Bool(true)
		nn.EncodeParams(e, st.dS)
	})
	b.Section(secSGOpt, func(e *snap.Enc) { nn.EncodeAdamState(e, st.gOpt) })
	b.Section(secSDOpt, func(e *snap.Enc) { nn.EncodeAdamState(e, st.dOpt) })
	b.Section(secSComm, func(e *snap.Enc) {
		e.I64(st.comm.GenSlicesSent)
		e.I64(st.comm.DiscLogitsReceived)
		e.I64(st.comm.GradsSent)
		e.I64(st.comm.SliceGradsReceived)
		e.I64(st.comm.CVBytes)
		e.I64(int64(st.comm.Rounds))
		e.I64(st.comm.WireBytes)
		e.U32(uint32(len(st.comm.WireBytesByMethod)))
		for _, v := range st.comm.WireBytesByMethod {
			e.I64(v)
		}
	})
	b.Section(secSTopKEF, func(e *snap.Enc) {
		e.U32(uint32(len(st.topkEF)))
		for i := range st.topkEF {
			for _, m := range st.topkEF[i] {
				e.Matrix(m)
			}
		}
	})
	for i, blob := range st.clients {
		b.Section(secSClient, func(e *snap.Enc) {
			e.U32(uint32(i))
			e.Bytes(blob)
		})
	}
	return b.Bytes()
}

// decode restores the server state from a parsed KindServer snapshot,
// writing weights and RNG state into the live objects the fields
// reference. Client blobs land in st.clients for the caller to fan out.
func (st *serverState) decode(s *snap.Snapshot) error {
	if s.Kind != snap.KindServer {
		return fmt.Errorf("gtvsnap: snapshot kind %d is not a server checkpoint", s.Kind)
	}
	if err := s.Read(secSMeta, "meta", func(d *snap.Dec) {
		st.round = int(d.I64())
		rows, cvW, ncl := int(d.I64()), int(d.I64()), int(d.I64())
		d.Fingerprint(st.cfg.fingerprint())
		if rows != st.rows || cvW != st.cvWidth || ncl != st.nclients {
			d.Failf("checkpoint federation %d rows/%d cv/%d clients does not match live %d/%d/%d",
				rows, cvW, ncl, st.rows, st.cvWidth, st.nclients)
		}
		if st.round < 0 {
			d.Failf("negative round counter %d", st.round)
		}
	}); err != nil {
		return err
	}
	if err := s.Read(secSRNG, "rng", func(d *snap.Dec) { d.RNG(st.rng) }); err != nil {
		return err
	}
	if err := s.Read(secSModelRNG, "model rng", func(d *snap.Dec) { d.RNG(st.modelRng) }); err != nil {
		return err
	}
	if err := s.Read(secSGTop, "top generator", func(d *snap.Dec) { nn.RestoreParams(d, st.gTop) }); err != nil {
		return err
	}
	if err := s.Read(secSDTop, "top discriminator", func(d *snap.Dec) { nn.RestoreParams(d, st.dTop) }); err != nil {
		return err
	}
	if err := s.Read(secSDS, "cv filter", func(d *snap.Dec) {
		hasDS := d.Bool()
		if hasDS != (st.dS != nil) {
			d.Failf("checkpoint cv-filter presence %v does not match live %v", hasDS, st.dS != nil)
		} else if hasDS {
			nn.RestoreParams(d, st.dS)
		}
	}); err != nil {
		return err
	}
	if err := s.Read(secSGOpt, "generator optimizer", func(d *snap.Dec) { st.gOpt = nn.DecodeAdamState(d) }); err != nil {
		return err
	}
	if err := s.Read(secSDOpt, "discriminator optimizer", func(d *snap.Dec) { st.dOpt = nn.DecodeAdamState(d) }); err != nil {
		return err
	}
	if err := s.Read(secSComm, "comm stats", func(d *snap.Dec) {
		st.comm = CommStats{
			GenSlicesSent:      d.I64(),
			DiscLogitsReceived: d.I64(),
			GradsSent:          d.I64(),
			SliceGradsReceived: d.I64(),
			CVBytes:            d.I64(),
			Rounds:             int(d.I64()),
			WireBytes:          d.I64(),
		}
		if n := d.U32(); n != wireNumMethods {
			d.Failf("checkpoint tallies %d wire methods, this build has %d", n, wireNumMethods)
		}
		for i := range st.comm.WireBytesByMethod {
			st.comm.WireBytesByMethod[i] = d.I64()
		}
	}); err != nil {
		return err
	}
	if err := s.Read(secSTopKEF, "top-k error feedback", func(d *snap.Dec) {
		if n := int(d.U32()); n != len(st.topkEF) {
			d.Failf("checkpoint holds %d top-k accumulators, live server has %d (grad-topk fingerprint should have caught this)", n, len(st.topkEF))
			return
		}
		for i := range st.topkEF {
			for j := range st.topkEF[i] {
				st.topkEF[i][j] = d.Matrix()
			}
		}
	}); err != nil {
		return err
	}

	blobs := s.All(secSClient)
	if len(blobs) != st.nclients {
		return fmt.Errorf("gtvsnap: checkpoint holds %d client blobs for %d clients", len(blobs), st.nclients)
	}
	st.clients = make([][]byte, st.nclients)
	for i, payload := range blobs {
		cd := snap.NewDec(payload)
		idx := int(cd.U32())
		blob := cd.Bytes()
		if err := cd.Finish(); err != nil {
			return err
		}
		// Blob sections are written in client order; the embedded index
		// catches files assembled from mismatched checkpoints.
		if idx != i {
			return fmt.Errorf("gtvsnap: client blob %d carries index %d", i, idx)
		}
		st.clients[i] = blob
	}
	return nil
}

// snapState gathers the live server into a state view.
func (s *Server) snapState() *serverState {
	return &serverState{
		cfg:      s.cfg,
		rows:     s.rows,
		cvWidth:  s.cvWidth,
		nclients: len(s.clients),
		round:    s.round,
		rng:      s.rng,
		modelRng: s.modelRng,
		gTop:     s.gTop,
		dTop:     s.dTop,
		dS:       s.dS,
		topkEF:   s.topkEF,
	}
}

// serverDiscParams returns the parameter list the critic optimizer steps
// over: D^t plus, when present, the conditional-vector filter D^s — the
// same concatenation discStep builds, which is what makes the optimizer
// state restorable against it.
func (s *Server) serverDiscParams() []*ag.Value {
	params := s.dTop.Params()
	if s.dS != nil {
		params = append(params, s.dS.Params()...)
	}
	return params
}

// Snapshot serializes the server's complete trajectory state, fetching
// one state blob from every client over the Client interface. Snapshot
// traffic is bookkeeping, not protocol, so it does not enter the
// communication accounting it captures.
func (s *Server) Snapshot() ([]byte, error) {
	st := s.snapState()
	st.gOpt = s.gOpt.StateFor(s.gTop.Params())
	st.dOpt = s.dOpt.StateFor(s.serverDiscParams())
	st.comm = s.comm.snapshot()
	st.clients = make([][]byte, len(s.clients))
	err := s.fanOut(func(i int, c Client) error {
		blob, err := c.Snapshot()
		if err != nil {
			return fmt.Errorf("client %d snapshot: %w", i, err)
		}
		st.clients[i] = blob
		return nil
	})
	if err != nil {
		return nil, err
	}
	return st.encode(snap.NewBuilder(snap.KindServer)), nil
}

// Restore reinstates a snapshot taken by Snapshot into a server built by
// NewServer over equivalently constructed clients (same tables, same
// seeds, same configuration). Every client receives its blob back over
// the Client interface. On error the federation state is unspecified;
// rebuild before retrying.
func (s *Server) Restore(data []byte) error {
	img, err := snap.Decode(data)
	if err != nil {
		return err
	}
	st := s.snapState()
	if err := st.decode(img); err != nil {
		return err
	}
	if err := s.gOpt.Restore(s.gTop.Params(), st.gOpt); err != nil {
		return err
	}
	if err := s.dOpt.Restore(s.serverDiscParams(), st.dOpt); err != nil {
		return err
	}
	s.comm.restore(st.comm)
	s.topkEF = st.topkEF
	err = s.fanOut(func(i int, c Client) error {
		if err := c.Restore(st.clients[i]); err != nil {
			return fmt.Errorf("client %d restore: %w", i, err)
		}
		return nil
	})
	if err != nil {
		return err
	}
	s.round = st.round
	return nil
}

// Rounds returns the number of completed training rounds.
func (s *Server) Rounds() int { return s.round }

// SaveCheckpoint atomically writes the current federation state into dir,
// named by the completed round count, and returns the file path.
func (s *Server) SaveCheckpoint(dir string) (string, error) {
	data, err := s.Snapshot()
	if err != nil {
		return "", err
	}
	return snap.SaveCheckpoint(dir, s.round, data)
}

// RestoreLatestCheckpoint finds the newest checkpoint in dir and restores
// it across the federation. ok is false when dir holds no checkpoint (the
// caller trains from scratch).
func (s *Server) RestoreLatestCheckpoint(dir string) (rounds int, ok bool, err error) {
	return snap.RestoreLatest(dir, s.Restore, s.Rounds)
}
