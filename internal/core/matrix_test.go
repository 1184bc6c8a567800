package core

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/condvec"
	"repro/internal/encoding"
	"repro/internal/snap"
	"repro/internal/tensor"
	"repro/internal/vfl"
)

// matrixChildEnv marks the process TestDeterminismMatrix starts to run the
// matrix again at the other GOMAXPROCS.
const matrixChildEnv = "GTV_DETERMINISM_MATRIX_CHILD"

// The axes of DESIGN.md "Determinism matrix". A cell holds one value index
// per axis; index 0 of every axis is the base cell.
const (
	axStore = iota
	axTransport
	axParallelism // vfl.Config.Parallelism 1, then 0 (all clients at once)
	axRun         // straight, or killed after matrixKillAt rounds and Resumed
	axKernels     // tensor.SetKernelPath's two paths
)

var matrixAxes = [5][]string{
	{"memory", "fresh", "cached"},
	{"local", "binary", "binary+delta"},
	{"par1", "par0"},
	{"straight", "resumed"},
	{"asm", "go"},
}

type matrixCell [5]int

func (c matrixCell) String() string {
	names := make([]string, len(c))
	for a, v := range c {
		names[a] = matrixAxes[a][v]
	}
	return strings.Join(names, "/")
}

// matrixPairwise is a covering subset of the federated cross: every pair
// of values of any two axes meets in one of its nine cells.
var matrixPairwise = []matrixCell{
	{0, 0, 0, 0, 0}, {0, 1, 0, 1, 1}, {0, 2, 1, 0, 1},
	{1, 0, 0, 1, 1}, {1, 1, 1, 0, 1}, {1, 2, 1, 1, 0},
	{2, 0, 1, 1, 0}, {2, 1, 0, 0, 0}, {2, 2, 0, 1, 1},
}

// matrixDigest is what a cell hashes, each part a hex sha256: the final
// checkpoint image, the bits of Synthesize's and of SynthesizeCondition's
// output, and CommStats' estimate fields (empty for the centralized
// trainer, which has none; the measured wire bytes differ by transport).
type matrixDigest struct{ image, synth, cond, comm string }

// matrixMode is one trajectory and the cells that must all reproduce it.
type matrixMode struct {
	name                string
	centralized         bool
	rows                int
	seed                int64
	cols                []int // loan's columns the mode trains on; nil for all
	clients, condClient int   // condClient owns the "target" column
	pairwise            bool
	opts                func() Options
}

// matrixGoldens holds each mode's digest, pinned on amd64. The centralized
// image and synthesis digests are TestDataPlaneByteIdentityCentralized's
// pins at the same shape.
var matrixGoldens = map[string]matrixDigest{
	"broadcast":   {"6b78013924fd3210f8f728f9e1b26ffa208208b2c6b37e7366039a6245849e4c", "dfc73c523aedbf16b7e726cf3c094ee03dc14f0ce9675a1a9174ed2d24091949", "b0b6e7915d8370504847c2646313989b0bc1eae6605bcea0a5203cba1366aed3", "3b83b6b309c9084ccf5af0acdca8b46da10bda513d01933336c8d8cf06065393"},
	"faithful":    {"22991960c3a66c299fd3de83073d4bcb2a15094236bc28ab0202157c72fafef6", "ec0bdb9f8cb442e3ca56ea160be33e1550a632c70f7367816236b6d03b2a70a7", "fa008c630d086cbf76b9a2f8afb6893a4a2d67b474742246d7731af66c836a71", "3eb16a18a86dd23f15dab49641525c2533fd4ae36f1d1f4ebbcaaa29893c579b"},
	"topk":        {"0cd5798569b0da71f7647926ce5fd785896400630ba7da3a23437e7e19cb73e0", "94a2c6511652fe68ca4e55e2f3d7c26312bdd8955b31df8f141afc359980920d", "34bdec108c693a5571a517f18533c15126fa00a490dc9be8e3e3e5bab898e86e", "3b83b6b309c9084ccf5af0acdca8b46da10bda513d01933336c8d8cf06065393"},
	"dp-noise":    {"c11e6c2fffbde6ebdd1ecf83ece64d69f2463a4942bacf284ae60450de7a6a81", "39c89e5ae915376a8cfd1fd4e659e5df9aa86021c1a80d52820f694d9cc769b6", "38cd6048f8fdbcaf5be5ef6458d4ae7a6d6e8f4f09a355f9fcc679534a3b0be1", "48c2a141cc187cb89f349ad68a9f5d50b34abdc4857ee916c9293567aca88f76"},
	"centralized": {"9154c7d185ad9edb959e378c20134d9b71d57c6a33a3703fa32f6f78fe6e177d", "a4015eb1bf3584e05180668928a814d46707d7c764144f581adc6e611c40e25a", "69b0c4e5540da913d7fa6115ebf86a1694ae8175ddef37625b6503ddc6757586", ""},
}

const matrixKillAt, matrixSynth, matrixCondRows = 1, 40, 30

func matrixModes() []matrixMode {
	federated := func(mutate func(*Options)) func() Options {
		return func() Options {
			o := DefaultOptions()
			o.Plan = vfl.Plan{DiscServer: 1, DiscClient: 1, GenServer: 1, GenClient: 1}
			o.Rounds, o.DiscSteps, o.BatchSize, o.NoiseDim, o.BlockDim = 2, 2, 32, 16, 48
			mutate(&o)
			return o
		}
	}
	return []matrixMode{
		{"broadcast", false, 150, 21, nil, 3, 2, false, federated(func(*Options) {})},
		// Both halves of both networks on the clients, and a block width
		// whose per-client shares end in a vector tail.
		{"faithful", false, 150, 22, nil, 3, 2, false, federated(func(o *Options) {
			o.Plan = vfl.Plan{DiscClient: 2, GenClient: 2}
			o.FaithfulRealPass, o.BatchSize, o.Pac, o.NoiseDim, o.BlockDim = true, 40, 10, 19, 37
		})},
		{"topk", false, 150, 23, nil, 3, 2, true, federated(func(o *Options) { o.WireTopK = 0.25 })},
		// Client 0's critic half is one projection from loan's first four
		// categorical columns to a 256-column share of BlockDim, so its
		// 512-row logits (and the noise added to them) fill the kernel
		// pool's split threshold of 2^17 elements cheaply.
		{"dp-noise", false, 150, 24, []int{3, 5, 7, 8, 9, 10, 11}, 2, 1, true, federated(func(o *Options) {
			o.DPLogitNoise, o.Plan = 0.3, vfl.Plan{GenServer: 1, GenClient: 1}
			o.DiscSteps, o.BatchSize, o.BlockDim, o.GenBlockDim = 1, 512, 448, 48
		})},
		{"centralized", true, 300, 11, nil, 0, 0, false, func() Options {
			o := DefaultOptions()
			o.Rounds, o.BlockDim, o.NoiseDim, o.BatchSize = 4, 32, 16, 32
			return o
		}},
	}
}

// cells lists the mode's cells, the base cell first. The centralized
// trainer has no transport or fan-out axis. In -short mode a mode runs its
// base cell, each axis flipped alone to its second value, and the cell with
// every axis at its last value, so every value still runs.
func (m matrixMode) cells(short bool) []matrixCell {
	if m.pairwise && !short {
		return matrixPairwise
	}
	last := matrixCell{2, 2, 1, 1, 1}
	if m.centralized {
		last[axTransport], last[axParallelism] = 0, 0
	}
	var cells []matrixCell
	for i := 0; i < 72; i++ {
		c := matrixCell{i / 24, i / 8 % 3, i / 4 % 2, i / 2 % 2, i % 2}
		flips, ofMode := 0, true
		for a, v := range c {
			flips += v
			ofMode = ofMode && v <= last[a]
		}
		if ofMode && (!short || flips <= 1 || c == last) {
			cells = append(cells, c)
		}
	}
	return cells
}

// TestDeterminismMatrix trains every mode in every cell through New or
// NewCentralized and requires every cell's digest to equal the mode's
// golden (on amd64, where the goldens were pinned; elsewhere, the first
// cell's digest). The kernel pool sizes itself from GOMAXPROCS once per
// process, so the matrix then runs again in a child process at the other
// GOMAXPROCS: 1 if this one has more, else 2. The dp-noise mode's products
// and its same-shape elementwise ops cross the pool's split threshold, so
// at GOMAXPROCS 2 both kinds of kernel fan out.
func TestDeterminismMatrix(t *testing.T) {
	if _, child := os.LookupEnv(matrixChildEnv); !child {
		defer runMatrixChild(t)
	}
	for _, m := range matrixModes() {
		t.Run(m.name, func(t *testing.T) {
			table, assignment := loanSplit(t, m.rows, m.seed, max(m.clients, 1), m.cols...)
			want := matrixGoldens[m.name]
			if runtime.GOARCH != "amd64" {
				want = matrixDigest{} // the first cell to run sets it
			}
			for _, c := range m.cells(testing.Short()) {
				t.Run(c.String(), func(t *testing.T) {
					got := runMatrixCell(t, m, table, assignment, c)
					if want == (matrixDigest{}) {
						want = got
					}
					if got != want {
						t.Errorf("digest %+v, want %+v", got, want)
					}
				})
			}
		})
	}
}

// runMatrixChild runs the matrix in a child process at the other GOMAXPROCS.
func runMatrixChild(t *testing.T) {
	if t.Failed() {
		return
	}
	procs := 2
	if runtime.GOMAXPROCS(0) > 1 {
		procs = 1
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestDeterminismMatrix$", "-test.count=1", "-test.short="+strconv.FormatBool(testing.Short()))
	cmd.Env = append(os.Environ(), matrixChildEnv+"=1", "GOMAXPROCS="+strconv.Itoa(procs))
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("the matrix at GOMAXPROCS %d: %v\n%s", procs, err, out)
	}
}

// matrixTrainer is what New and NewCentralized return, as a cell drives it.
type matrixTrainer interface {
	Train(progress func(round int, dLoss, gLoss float64)) error
	Synthesize(n int) (*encoding.Table, error)
	Close() error
}

// runMatrixCell trains m in cell c, checkpointing every round, and digests
// the result. A resumed cell trains matrixKillAt rounds in one trainer,
// closes it, and finishes in a second one built with Resume. A "cached"
// cell's trainers must open the store without writing it again.
func runMatrixCell(t *testing.T, m matrixMode, table *encoding.Table, assignment []int, c matrixCell) matrixDigest {
	if !tensor.SetKernelPath(matrixAxes[axKernels][c[axKernels]]) {
		t.Skip("no vector kernels on this build/CPU")
	}
	t.Cleanup(func() { tensor.SetKernelPath("asm") })
	opts := m.opts()
	opts.Transport = "local"
	if c[axTransport] > 0 {
		opts.Transport, opts.WireDelta = "binary", c[axTransport] == 2
	}
	opts.Parallelism = 1 - c[axParallelism]
	opts.CheckpointDir, opts.BlockCacheMB = t.TempDir(), 1
	open := func(o Options) matrixTrainer {
		var tr matrixTrainer
		var err error
		if m.centralized {
			tr, err = NewCentralized(table, o)
		} else {
			tr, err = NewFromAssignment(table, assignment, m.clients, o)
		}
		if err != nil {
			t.Fatalf("building the trainer: %v", err)
		}
		t.Cleanup(func() { tr.Close() })
		return tr
	}
	if c[axStore] > 0 {
		opts.DataDir = t.TempDir()
	}
	if c[axStore] == 2 { // a store the set-up of an earlier run wrote
		if err := open(opts).Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		stores, err := filepath.Glob(filepath.Join(opts.DataDir, "*.enc.gtvcol"))
		if err != nil || len(stores) == 0 {
			t.Fatalf("no store to hit (%v)", err)
		}
		written, _ := os.Stat(stores[0])
		t.Cleanup(func() {
			if now, err := os.Stat(stores[0]); err != nil || !now.ModTime().Equal(written.ModTime()) {
				t.Errorf("the cached store was written again (%v)", err)
			}
		})
	}
	if c[axRun] == 1 {
		killed := opts
		// The killed run fans out at the other bound, so every resume also
		// changes Parallelism, which the fingerprint leaves out.
		killed.Rounds, killed.Parallelism = matrixKillAt, c[axParallelism]
		tr := open(killed)
		if err := tr.Train(nil); err != nil {
			t.Fatalf("Train to the kill: %v", err)
		}
		if err := tr.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		opts.Resume = true
	}
	tr := open(opts)
	if err := tr.Train(nil); err != nil {
		t.Fatalf("Train: %v", err)
	}
	image, err := os.ReadFile(snap.CheckpointPath(opts.CheckpointDir, opts.Rounds))
	if err != nil {
		t.Fatalf("reading the final checkpoint: %v", err)
	}
	synth, err := tr.Synthesize(matrixSynth)
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	var d matrixDigest
	var cond *encoding.Table
	switch tr := tr.(type) {
	case *GTV:
		cond, err = tr.SynthesizeCondition(matrixCondRows, m.condClient, "target", "class_1")
		if err == nil && opts.Transport == "binary" {
			requireConditionOverWire(t, tr, m.condClient)
		}
		st := tr.CommStats()
		d.comm = bitsDigest([]uint64{uint64(st.GenSlicesSent), uint64(st.DiscLogitsReceived),
			uint64(st.GradsSent), uint64(st.SliceGradsReceived), uint64(st.CVBytes), uint64(st.Rounds)})
	case *Centralized:
		cond, err = tr.SynthesizeCondition(matrixCondRows, "target", "class_1")
	}
	if err != nil {
		t.Fatalf("SynthesizeCondition: %v", err)
	}
	sum := sha256.Sum256(image)
	d.image = hex.EncodeToString(sum[:])
	d.synth, d.cond = bitsDigest(synthBits(t, synth)), bitsDigest(synthBits(t, cond))
	return d
}

// requireConditionOverWire asks client p over gtvwire, as
// SynthesizeCondition does, for a batch conditioned on target=class_1, and
// requires every row to carry that condition: the requested choice, and the
// CV the client builds in process.
func requireConditionOverWire(t *testing.T, g *GTV, p int) {
	t.Helper()
	span, category, err := g.clients[p].ResolveCondition("target", "class_1")
	if err != nil {
		t.Fatalf("ResolveCondition: %v", err)
	}
	wire, err := g.proxies[p].(*vfl.WireClient).SampleCVFixed(matrixCondRows, span, category)
	if err != nil {
		t.Fatalf("SampleCVFixed over gtvwire: %v", err)
	}
	local, err := g.clients[p].SampleCVFixed(matrixCondRows, span, category)
	if err != nil {
		t.Fatalf("SampleCVFixed in process: %v", err)
	}
	ok := len(wire.Choices) == matrixCondRows && wire.CV.Equal(local.CV)
	for _, choice := range wire.Choices {
		ok = ok && choice == condvec.Choice{Span: span, Category: category}
	}
	if !ok {
		t.Fatalf("a conditional batch over gtvwire does not carry span %d category %d in every row", span, category)
	}
}
