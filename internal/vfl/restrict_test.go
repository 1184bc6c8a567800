package vfl

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// BackwardDisc differentiates the real branch over the gradient's active row
// groups only. These tests hold the protocol to the rule that this changes no
// bit of anything a federation computes: every run here is repeated with
// FullRealBackward (export_test.go), which differentiates every row as the
// code did before, and the two must agree.

// restrictFederation is a three-client faithful-mode federation of 402 rows
// (a row count with a tail past the last group of four) and batch 24, so the
// full-table gradient of a non-contributing client is +0 in roughly three of
// four row groups. wrap decorates client i before the server sees it.
func restrictFederation(t *testing.T, binary bool, topK float64, wrap func(i int, c Client) Client) (*Server, []*LocalClient) {
	t.Helper()
	tables := threeClientTables(t, 402, 23)
	coord := NewShuffleCoordinator(77)
	locals := make([]*LocalClient, len(tables))
	clients := make([]Client, len(tables))
	for i, tab := range tables {
		locals[i] = newLocal(t, tab, coord, int64(i+1))
		clients[i] = locals[i]
		if binary {
			clients[i] = serveWire(t, locals[i])
		}
		if wrap != nil {
			clients[i] = wrap(i, clients[i])
		}
	}
	cfg := DefaultConfig()
	cfg.Plan = Plan{DiscServer: 1, DiscClient: 2, GenServer: 1, GenClient: 1}
	cfg.Rounds = 4
	cfg.DiscSteps = 2
	cfg.BatchSize = 24
	cfg.NoiseDim = 16
	cfg.BlockDim = 48
	cfg.FaithfulRealPass = true
	cfg.GradTopK = topK
	srv, err := NewServer(clients, cfg)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	return srv, locals
}

// sameBits reports the first element whose bits differ: unlike Dense.Equal
// it takes two NaNs with one payload for equal, which is what "the same
// non-finite weights" means. Two absent matrices (the Adam moments of a
// model never stepped) are the same.
func sameBits(t *testing.T, what string, got, want *tensor.Dense) {
	t.Helper()
	if got == nil || want == nil {
		if got != want {
			t.Fatalf("%s: present in one run only", what)
		}
		return
	}
	if got.Rows() != want.Rows() || got.Cols() != want.Cols() {
		t.Fatalf("%s: %dx%d against %dx%d", what, got.Rows(), got.Cols(), want.Rows(), want.Cols())
	}
	for i, w := range want.Data() {
		if g := got.Data()[i]; math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s: element %d is %v (%#x) with the restricted backward, %v (%#x) with the full one",
				what, i, g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
}

// assertModelSame compares one model and its optimizer between a restricted
// and a full run: weights and both Adam moments, element by element, so that
// a failure names what moved.
func assertModelSame(t *testing.T, what string, rm, fm *nn.Sequential, ro, fo *nn.Adam) {
	t.Helper()
	rp, fp := rm.Params(), fm.Params()
	rs, fs := ro.StateFor(rp), fo.StateFor(fp)
	if rs.T != fs.T {
		t.Fatalf("%s: %d Adam steps against %d", what, rs.T, fs.T)
	}
	for k := range rp {
		sameBits(t, fmt.Sprintf("%s weight %d", what, k), rp[k].Data(), fp[k].Data())
		sameBits(t, fmt.Sprintf("%s Adam m %d", what, k), rs.M[k], fs.M[k])
		sameBits(t, fmt.Sprintf("%s Adam v %d", what, k), rs.V[k], fs.V[k])
	}
}

// assertFederationsSame compares a restricted and a full run: every client's
// models and optimizers, then the server's gtvsnap checkpoint image, which
// holds the server's own models and every client's image (generator
// positions included).
func assertFederationsSame(t *testing.T, rs, fs *Server, rc, fc []*LocalClient) {
	t.Helper()
	for i := range rc {
		assertModelSame(t, fmt.Sprintf("client %d D_i^b", i), rc[i].disc, fc[i].disc, rc[i].discOpt, fc[i].discOpt)
		assertModelSame(t, fmt.Sprintf("client %d G_i^b", i), rc[i].gen, fc[i].gen, rc[i].genOpt, fc[i].genOpt)
	}
	rb, err := rs.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	fb, err := fs.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if !bytes.Equal(rb, fb) {
		t.Fatal("the gtvsnap checkpoint differs between the restricted and the full backward")
	}
}

// restrictedSomeFullTablePass reports whether some client's last BackwardDisc
// got a full-table gradient (more rows than a batch) and left rows out of it.
func restrictedSomeFullTablePass(clients []*LocalClient, batch int) bool {
	for _, c := range clients {
		if n := len(c.activeRows); n > batch && n < c.rows {
			return true
		}
	}
	return false
}

// TestRestrictedBackwardLeavesFederationUnchanged: four faithful-mode rounds
// over each transport, dense and with top-k sparsified gradients (whose
// zeroed elements make more rows inactive).
func TestRestrictedBackwardLeavesFederationUnchanged(t *testing.T) {
	if testing.Short() {
		t.Skip("networked GAN training in -short mode")
	}
	for _, binary := range []bool{false, true} {
		for _, topK := range []float64{0, 0.25} {
			t.Run(fmt.Sprintf("binary=%v/topk=%v", binary, topK), func(t *testing.T) {
				train := func(full bool) (*Server, []*LocalClient) {
					if full {
						FullRealBackward(t)
					}
					srv, locals := restrictFederation(t, binary, topK, nil)
					trainRounds(t, srv, fmt.Sprintf("full=%v", full))
					return srv, locals
				}
				rs, rc := train(false)
				if !restrictedSomeFullTablePass(rc, 24) {
					t.Fatal("no client's full-table backward was restricted: the run does not test the restriction")
				}
				fs, fc := train(true)
				if restrictedSomeFullTablePass(fc, 24) {
					t.Fatal("FullRealBackward did not disable the restriction")
				}
				assertFederationsSame(t, rs, fs, rc, fc)
			})
		}
	}
}

// poisonedGradients is a client whose BackwardDisc receives, in place of
// the server's real-branch gradient, a copy with every fifth row holding
// vals: the gradients a server whose arithmetic has gone non-finite sends.
type poisonedGradients struct {
	Client
	vals []float64
	hit  *bool
}

func (p poisonedGradients) BackwardDisc(gradSynth, gradReal *tensor.Dense) error {
	g := gradReal.Clone()
	for i := 0; i < g.Rows(); i += 5 {
		for j, row := 0, g.RawRow(i); j < len(row); j++ {
			row[j] = p.vals[j%len(p.vals)]
		}
	}
	*p.hit = true
	return p.Client.BackwardDisc(gradSynth, g)
}

// TestRestrictedBackwardUnderHostileLogits runs a federation whose clients
// get non-finite gradient rows: every fifth row NaN, or holding both
// infinities. Those rows used to come from hostile logits, a client's
// ForwardReal reply with such rows, passed through the server's arithmetic;
// the server now refuses a non-finite reply (TestHostileRepliesAreErrors),
// so the rows are written into each client's real-branch gradient on its way
// in, over either transport. The first critic step back-propagates them
// through finite state and leaves every D_i^b non-finite; the server then
// refuses the next reply. Both runs must stop at that same error with the
// state the full backward leaves, bit for bit, NaN payloads included.
func TestRestrictedBackwardUnderHostileLogits(t *testing.T) {
	for name, vals := range map[string][]float64{
		"nan-rows": {math.NaN()},
		"inf-rows": {math.Inf(1), math.Inf(-1)},
	} {
		for _, binary := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/binary=%v", name, binary), func(t *testing.T) {
				train := func(full bool) (*Server, []*LocalClient, error) {
					if full {
						FullRealBackward(t)
					}
					hit := false
					srv, locals := restrictFederation(t, binary, 0, func(_ int, c Client) Client {
						return poisonedGradients{c, vals, &hit}
					})
					// Sequential fan-out: the failing step must stop at the
					// same client, with the same calls made, in both runs.
					srv.cfg.Parallelism = 1
					var err error
					for round := 0; round < 2 && err == nil; round++ {
						_, _, err = srv.TrainRound()
					}
					if !hit {
						t.Fatal("no gradient was rewritten")
					}
					return srv, locals, err
				}
				rs, rc, rerr := train(false)
				if !restrictedSomeFullTablePass(rc, 24) {
					t.Fatal("no client's full-table backward was restricted: the run does not test the restriction")
				}
				fs, fc, ferr := train(true)
				var re *replyError
				if !errors.As(rerr, &re) || re.problem != "non-finite element" || rerr.Error() != fmt.Sprint(ferr) {
					t.Fatalf("want both runs refused at the same non-finite reply, got %v (restricted) and %v (full)", rerr, ferr)
				}
				assertFederationsSame(t, rs, fs, rc, fc)
				if rc[0].disc.Params()[0].Data().AllFinite() {
					t.Fatal("the poisoned rows never reached a client's weights: the run does not test non-finite gradients")
				}
			})
		}
	}
}

// TestRestrictedBackwardHostileGradients hands a served client's BackwardDisc
// the gradients a broken server could send after a full-table forward pass: a
// NaN row, a row of both infinities, and a matrix with the wrong row count.
// The last is an error frame and leaves the forward state usable; the first
// two update D_i^b to exactly the weights the full backward reaches. Nothing
// panics in the goroutine serving the connection — the next call on it
// answers.
func TestRestrictedBackwardHostileGradients(t *testing.T) {
	const sliceW, discW, batch, rows = 8, 17, 8, 61
	step := func(t *testing.T, full bool, spoil func(g *tensor.Dense)) *LocalClient {
		if full {
			FullRealBackward(t)
		}
		ta, _ := twoClientTables(t, rows, 41)
		lc := newLocal(t, ta, NewShuffleCoordinator(55), 1)
		proxy := serveWire(t, lc)
		if err := proxy.Configure(Setup{
			Plan: Plan{DiscClient: 2, GenClient: 2}, SliceWidth: sliceW, GenBlockWidth: sliceW,
			DiscWidth: discW, LR: 1e-3, Seed: 5,
		}); err != nil {
			t.Fatalf("Configure: %v", err)
		}
		if _, err := proxy.ForwardSynthetic(tensor.Full(batch, sliceW, 0.5), PhaseDiscriminator); err != nil {
			t.Fatalf("ForwardSynthetic: %v", err)
		}
		if _, err := proxy.ForwardReal(nil); err != nil {
			t.Fatalf("ForwardReal: %v", err)
		}
		err := proxy.BackwardDisc(tensor.New(batch, discW), tensor.New(rows+3, discW))
		if err == nil || !strings.Contains(err.Error(), "real-branch gradient 64x17 for a 61x17 forward output") {
			t.Fatalf("a gradient with the wrong row count: want an error frame naming the shapes, got: %v", err)
		}
		grad := scatterRowsAccumulate(tensor.Full(batch, discW, 0.25), []int{3, 9, 9, 22, 40, 41, 57, 60}, rows)
		spoil(grad)
		if err := proxy.BackwardDisc(tensor.Full(batch, discW, -0.125), grad); err != nil {
			t.Fatalf("BackwardDisc: %v", err)
		}
		if !full && !restrictedSomeFullTablePass([]*LocalClient{lc}, batch) {
			t.Fatal("the full-table backward was not restricted: the case does not test the restriction")
		}
		if _, err := proxy.Info(); err != nil {
			t.Fatalf("the served client did not survive the gradients: %v", err)
		}
		return lc
	}
	for name, spoil := range map[string]func(g *tensor.Dense){
		"finite":  func(*tensor.Dense) {},
		"nan-row": func(g *tensor.Dense) { copy(g.RawRow(22), tensor.Full(1, discW, math.NaN()).Data()) },
		"inf-row": func(g *tensor.Dense) { g.Set(40, 0, math.Inf(1)); g.Set(40, 5, math.Inf(-1)) },
		// A NaN in a row the scatter left at +0 makes that row active.
		"nan-outside-the-batch": func(g *tensor.Dense) { g.Set(30, 2, math.NaN()) },
	} {
		t.Run(name, func(t *testing.T) {
			r, f := step(t, false, spoil), step(t, true, spoil)
			assertModelSame(t, "D_i^b", r.disc, f.disc, r.discOpt, f.discOpt)
		})
	}
}

// A second BackwardDisc after one that completed has nothing to
// differentiate: the error must say which output is missing and why.
func TestBackwardDiscTwiceNamesTheConsumedForwardState(t *testing.T) {
	ta, _ := twoClientTables(t, 40, 3)
	c := newLocal(t, ta, NewShuffleCoordinator(1), 1)
	if err := c.Configure(Setup{Plan: Plan{DiscServer: 2, GenClient: 2}, SliceWidth: 8, GenBlockWidth: 8, DiscWidth: 8, LR: 1e-3, Seed: 1}); err != nil {
		t.Fatalf("Configure: %v", err)
	}
	if _, err := c.ForwardSynthetic(tensor.New(4, 8), PhaseDiscriminator); err != nil {
		t.Fatalf("ForwardSynthetic: %v", err)
	}
	if err := c.BackwardDisc(tensor.New(4, 8), tensor.New(4, 8)); err == nil || !strings.Contains(err.Error(), "no retained real-branch output: ForwardReal has not run") {
		t.Fatalf("BackwardDisc without ForwardReal: %v", err)
	}
	if _, err := c.ForwardReal([]int{0, 1, 2, 3}); err != nil {
		t.Fatalf("ForwardReal: %v", err)
	}
	if err := c.BackwardDisc(tensor.New(4, 8), tensor.New(4, 8)); err != nil {
		t.Fatalf("BackwardDisc: %v", err)
	}
	if err := c.BackwardDisc(tensor.New(4, 8), tensor.New(4, 8)); err == nil || !strings.Contains(err.Error(), "no retained synthetic-branch output") || !strings.Contains(err.Error(), "already consumed the forward state") {
		t.Fatalf("second BackwardDisc: %v", err)
	}
}

// BenchmarkBackwardDiscFullPass times BackwardDisc alone after the faithful
// mode's full-table forward pass: one of four clients of the adult table with
// a 17-column, two-block D_i^b (the wire-4c client model), a batch of 500
// among 5 000 rows (wire-4c's ratio) and among 50 000 (the rows ≫ batch case
// no bench/ workload has). The gradient is what the server's scatter leaves:
// +0 outside the batch rows. "every-row" is the same step with the
// restriction off (FullRealBackward), the cost it replaced.
func BenchmarkBackwardDiscFullPass(b *testing.B) {
	const batch, sliceW, discW = 500, 32, 17
	for _, rows := range []int{5000, 50000} {
		for _, full := range []bool{false, true} {
			name := fmt.Sprintf("rows=%d", rows)
			if full {
				name += ",every-row"
			}
			b.Run(name, func(b *testing.B) {
				if full {
					FullRealBackward(b)
				}
				c := newLocal(b, splitDataset(b, "adult", rows, 4)[0], NewShuffleCoordinator(7), 1)
				if err := c.Configure(Setup{
					Plan: Plan{DiscClient: 2, GenClient: 2}, SliceWidth: sliceW, GenBlockWidth: sliceW,
					DiscWidth: discW, LR: 2e-4, Seed: 3,
				}); err != nil {
					b.Fatal(err)
				}
				rng := rand.New(rand.NewSource(5))
				slice := tensor.Randn(rng, batch, sliceW, 0, 1)
				gradSynth := tensor.Randn(rng, batch, discW, 0, 0.01)
				gradReal := scatterRowsAccumulate(tensor.Randn(rng, batch, discW, 0, 0.01), rng.Perm(rows)[:batch], rows)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					if _, err := c.ForwardSynthetic(slice, PhaseDiscriminator); err != nil {
						b.Fatal(err)
					}
					if _, err := c.ForwardReal(nil); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					if err := c.BackwardDisc(gradSynth, gradReal); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
