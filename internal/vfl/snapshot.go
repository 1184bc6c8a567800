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
	"os"

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

// clientState names everything a client checkpoint blob captures. The
// snapstate lint rule fails the build if a field is added here without
// being wired through both encodeClient and decodeClient.
//
//snap:state
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
	b.Section(secLRNG, func(e *snap.Enc) {
		s := st.rng.State()
		e.U64s(s[:])
	})
	b.Section(secLModelRNG, func(e *snap.Enc) {
		s := st.modelRng.State()
		e.U64s(s[:])
	})
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
	d, err := s.Need(secLMeta, "meta")
	if err != nil {
		return err
	}
	shuffles := int(d.I64())
	pubCount := int(d.I64())
	dataW := int(d.I64())
	sliceW := int(d.I64())
	if err := d.Finish(); err != nil {
		return err
	}
	if shuffles < 0 || pubCount < 0 {
		return fmt.Errorf("gtvsnap: negative replay counters %d/%d", shuffles, pubCount)
	}
	if dataW != st.dataWidth || sliceW != st.sliceWidth {
		return fmt.Errorf("gtvsnap: checkpoint widths %d/%d do not match configured %d/%d", dataW, sliceW, st.dataWidth, st.sliceWidth)
	}
	st.shuffles = shuffles
	st.pubCount = pubCount

	if d, err = s.Need(secLRNG, "rng"); err != nil {
		return err
	}
	if err := decodeRNG(d, st.rng); err != nil {
		return err
	}
	if d, err = s.Need(secLModelRNG, "model rng"); err != nil {
		return err
	}
	if err := decodeRNG(d, st.modelRng); err != nil {
		return err
	}

	if d, err = s.Need(secLGen, "generator"); err != nil {
		return err
	}
	if err := restoreLayer(d, st.gen); err != nil {
		return err
	}
	if d, err = s.Need(secLDisc, "discriminator"); err != nil {
		return err
	}
	if err := restoreLayer(d, st.disc); err != nil {
		return err
	}

	if d, err = s.Need(secLGenOpt, "generator optimizer"); err != nil {
		return err
	}
	st.genOpt = nn.DecodeAdamState(d)
	if err := d.Finish(); err != nil {
		return err
	}
	if d, err = s.Need(secLDiscOpt, "discriminator optimizer"); err != nil {
		return err
	}
	st.discOpt = nn.DecodeAdamState(d)
	return d.Finish()
}

// decodeRNG reads a four-word xoshiro state section into r.
func decodeRNG(d *snap.Dec, r *rng.Rand) error {
	words := d.U64s()
	if err := d.Finish(); err != nil {
		return err
	}
	var rs rng.State
	if len(words) != len(rs) {
		return fmt.Errorf("gtvsnap: rng section holds %d state words, want %d", len(words), len(rs))
	}
	copy(rs[:], words)
	r.SetState(rs)
	return nil
}

// restoreLayer decodes one parameter section into a live layer.
func restoreLayer(d *snap.Dec, l nn.Layer) error {
	if err := nn.RestoreParams(d, l); err != nil {
		return err
	}
	return d.Finish()
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
	c.order = c.coord.orderAfter(rowOrder{}, c.table.Rows(), st.shuffles)
	c.pubCount = st.pubCount
	return nil
}

// serverState names everything a server checkpoint captures beyond the
// per-client blobs. The snapstate lint rule fails the build if a field is
// added here without being wired through both encode and decode.
//
//snap:state
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

// encodeServerFingerprint writes the trajectory-relevant hyper-parameters.
// Rounds is excluded (resume may extend training) and so is Parallelism
// (training is bit-identical across fan-out bounds by construction).
func encodeServerFingerprint(e *snap.Enc, cfg Config) {
	e.I64(int64(cfg.Plan.DiscServer))
	e.I64(int64(cfg.Plan.DiscClient))
	e.I64(int64(cfg.Plan.GenServer))
	e.I64(int64(cfg.Plan.GenClient))
	e.I64(int64(cfg.DiscSteps))
	e.I64(int64(cfg.BatchSize))
	e.I64(int64(cfg.NoiseDim))
	e.I64(int64(cfg.BlockDim))
	e.I64(int64(cfg.GenBlockDim))
	e.F64(cfg.LR)
	e.I64(cfg.Seed)
	e.I64(int64(cfg.Pac))
	e.F64(cfg.DPLogitNoise)
	e.Bool(cfg.FaithfulRealPass)
	e.F64(cfg.GradTopK)
}

// checkServerFingerprint verifies a fingerprint written by
// encodeServerFingerprint against the live configuration.
func checkServerFingerprint(d *snap.Dec, cfg Config) error {
	type field struct {
		name      string
		have, got float64
	}
	b2f := func(b bool) float64 {
		if b {
			return 1
		}
		return 0
	}
	fields := []field{
		{"plan-disc-server", float64(cfg.Plan.DiscServer), float64(d.I64())},
		{"plan-disc-client", float64(cfg.Plan.DiscClient), float64(d.I64())},
		{"plan-gen-server", float64(cfg.Plan.GenServer), float64(d.I64())},
		{"plan-gen-client", float64(cfg.Plan.GenClient), float64(d.I64())},
		{"disc-steps", float64(cfg.DiscSteps), float64(d.I64())},
		{"batch", float64(cfg.BatchSize), float64(d.I64())},
		{"noise-dim", float64(cfg.NoiseDim), float64(d.I64())},
		{"block-dim", float64(cfg.BlockDim), float64(d.I64())},
		{"gen-block-dim", float64(cfg.GenBlockDim), float64(d.I64())},
		{"lr", cfg.LR, d.F64()},
		{"seed", float64(cfg.Seed), float64(d.I64())},
		{"pac", float64(cfg.Pac), float64(d.I64())},
		{"dp-noise", cfg.DPLogitNoise, d.F64()},
		{"faithful-real-pass", b2f(cfg.FaithfulRealPass), b2f(d.Bool())},
		{"grad-topk", cfg.GradTopK, d.F64()},
	}
	if err := d.Err(); err != nil {
		return err
	}
	for _, f := range fields {
		// Exact comparison is the point: any drift in a trajectory-relevant
		// hyper-parameter invalidates the checkpoint.
		//lint:ignore floateq fingerprint fields must match bit-exactly; approximate equality would mask a config mismatch
		if f.have != f.got {
			return fmt.Errorf("gtvsnap: checkpoint %s %v does not match configured %v", f.name, f.got, f.have)
		}
	}
	return nil
}

// encode serializes the server state into a finished KindServer image.
func (st *serverState) encode(b *snap.Builder) []byte {
	b.Section(secSMeta, func(e *snap.Enc) {
		e.I64(int64(st.round))
		e.I64(int64(st.rows))
		e.I64(int64(st.cvWidth))
		e.I64(int64(st.nclients))
		encodeServerFingerprint(e, st.cfg)
	})
	b.Section(secSRNG, func(e *snap.Enc) {
		s := st.rng.State()
		e.U64s(s[:])
	})
	b.Section(secSModelRNG, func(e *snap.Enc) {
		s := st.modelRng.State()
		e.U64s(s[:])
	})
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
	d, err := s.Need(secSMeta, "meta")
	if err != nil {
		return err
	}
	round := int(d.I64())
	rows := int(d.I64())
	cvW := int(d.I64())
	ncl := int(d.I64())
	if err := checkServerFingerprint(d, st.cfg); err != nil {
		return err
	}
	if err := d.Finish(); err != nil {
		return err
	}
	if rows != st.rows || cvW != st.cvWidth || ncl != st.nclients {
		return fmt.Errorf("gtvsnap: checkpoint federation %d rows/%d cv/%d clients does not match live %d/%d/%d",
			rows, cvW, ncl, st.rows, st.cvWidth, st.nclients)
	}
	if round < 0 {
		return fmt.Errorf("gtvsnap: negative round counter %d", round)
	}
	st.round = round

	if d, err = s.Need(secSRNG, "rng"); err != nil {
		return err
	}
	if err := decodeRNG(d, st.rng); err != nil {
		return err
	}
	if d, err = s.Need(secSModelRNG, "model rng"); err != nil {
		return err
	}
	if err := decodeRNG(d, st.modelRng); err != nil {
		return err
	}

	if d, err = s.Need(secSGTop, "top generator"); err != nil {
		return err
	}
	if err := restoreLayer(d, st.gTop); err != nil {
		return err
	}
	if d, err = s.Need(secSDTop, "top discriminator"); err != nil {
		return err
	}
	if err := restoreLayer(d, st.dTop); err != nil {
		return err
	}
	if d, err = s.Need(secSDS, "cv filter"); err != nil {
		return err
	}
	hasDS := d.Bool()
	if hasDS != (st.dS != nil) {
		return fmt.Errorf("gtvsnap: checkpoint cv-filter presence %v does not match live %v", hasDS, st.dS != nil)
	}
	if hasDS {
		if err := restoreLayer(d, st.dS); err != nil {
			return err
		}
	} else if err := d.Finish(); err != nil {
		return err
	}

	if d, err = s.Need(secSGOpt, "generator optimizer"); err != nil {
		return err
	}
	st.gOpt = nn.DecodeAdamState(d)
	if err := d.Finish(); err != nil {
		return err
	}
	if d, err = s.Need(secSDOpt, "discriminator optimizer"); err != nil {
		return err
	}
	st.dOpt = nn.DecodeAdamState(d)
	if err := d.Finish(); err != nil {
		return err
	}

	if d, err = s.Need(secSComm, "comm stats"); err != nil {
		return err
	}
	st.comm = CommStats{
		GenSlicesSent:      d.I64(),
		DiscLogitsReceived: d.I64(),
		GradsSent:          d.I64(),
		SliceGradsReceived: d.I64(),
		CVBytes:            d.I64(),
		Rounds:             int(d.I64()),
		WireBytes:          d.I64(),
	}
	nmethods := int(d.U32())
	if nmethods != wireNumMethods {
		return fmt.Errorf("gtvsnap: checkpoint tallies %d wire methods, this build has %d", nmethods, wireNumMethods)
	}
	for i := range st.comm.WireBytesByMethod {
		st.comm.WireBytesByMethod[i] = d.I64()
	}
	if err := d.Finish(); err != nil {
		return err
	}

	if d, err = s.Need(secSTopKEF, "top-k error feedback"); err != nil {
		return err
	}
	nef := int(d.U32())
	if nef != len(st.topkEF) {
		return fmt.Errorf("gtvsnap: checkpoint holds %d top-k accumulators, live server has %d (grad-topk fingerprint should have caught this)", nef, len(st.topkEF))
	}
	for i := range st.topkEF {
		for j := range st.topkEF[i] {
			st.topkEF[i][j] = d.Matrix()
		}
	}
	if err := d.Finish(); err != nil {
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
	path := snap.CheckpointPath(dir, s.round)
	if err := snap.WriteFileAtomic(path, data); err != nil {
		return "", err
	}
	return path, nil
}

// RestoreLatestCheckpoint finds the newest checkpoint in dir and restores
// it across the federation. ok is false when dir holds no checkpoint (the
// caller trains from scratch).
func (s *Server) RestoreLatestCheckpoint(dir string) (rounds int, ok bool, err error) {
	path, _, ok, err := snap.LatestCheckpoint(dir)
	if err != nil || !ok {
		return 0, ok, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, true, err
	}
	if err := s.Restore(data); err != nil {
		return 0, true, fmt.Errorf("vfl: restoring %s: %w", path, err)
	}
	return s.round, true, nil
}
