package vfl

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/encoding"
	"repro/internal/stats"
	"repro/internal/tensor"
)

func TestPlanNameRoundTrip(t *testing.T) {
	for _, p := range StandardPlans() {
		parsed, err := ParsePlan(p.Name())
		if err != nil {
			t.Fatalf("ParsePlan(%s): %v", p.Name(), err)
		}
		if parsed != p {
			t.Fatalf("round trip %s -> %+v", p.Name(), parsed)
		}
	}
}

func TestStandardPlansCount(t *testing.T) {
	plans := StandardPlans()
	if len(plans) != 9 {
		t.Fatalf("plan count = %d want 9", len(plans))
	}
	seen := map[string]bool{}
	for _, p := range plans {
		if seen[p.Name()] {
			t.Fatalf("duplicate plan %s", p.Name())
		}
		seen[p.Name()] = true
		if p.DiscServer+p.DiscClient != 2 || p.GenServer+p.GenClient != 2 {
			t.Fatalf("plan %s does not total 2 blocks per network", p.Name())
		}
	}
}

func TestParsePlanErrors(t *testing.T) {
	if _, err := ParsePlan("bogus"); err == nil {
		t.Fatal("expected parse error")
	}
	if _, err := ParsePlan("D-1_0G0_2"); err == nil {
		t.Fatal("expected validation error")
	}
}

func TestRatios(t *testing.T) {
	r, err := Ratios([]int{3, 1})
	if err != nil {
		t.Fatalf("Ratios: %v", err)
	}
	if math.Abs(r[0]-0.75) > 1e-12 || math.Abs(r[1]-0.25) > 1e-12 {
		t.Fatalf("ratios = %v", r)
	}
	if _, err := Ratios(nil); err == nil {
		t.Fatal("expected error for no clients")
	}
	if _, err := Ratios([]int{1, 0}); err == nil {
		t.Fatal("expected error for zero features")
	}
}

func TestSplitWidths(t *testing.T) {
	tests := []struct {
		total  int
		ratios []float64
		want   []int
	}{
		{256, []float64{0.5, 0.5}, []int{128, 128}},
		{256, []float64{0.75, 0.25}, []int{192, 64}},
		{10, []float64{0.34, 0.33, 0.33}, []int{4, 3, 3}},
		{5, []float64{0.99, 0.01}, []int{4, 1}}, // floor of 1 enforced
	}
	for _, tc := range tests {
		got, err := SplitWidths(tc.total, tc.ratios)
		if err != nil {
			t.Fatalf("SplitWidths(%d, %v): %v", tc.total, tc.ratios, err)
		}
		sum := 0
		for _, w := range got {
			sum += w
		}
		if sum != tc.total {
			t.Fatalf("SplitWidths(%d, %v) sums to %d", tc.total, tc.ratios, sum)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("SplitWidths(%d, %v) = %v want %v", tc.total, tc.ratios, got, tc.want)
			}
		}
	}
}

func TestSplitWidthsErrors(t *testing.T) {
	if _, err := SplitWidths(1, []float64{0.5, 0.5}); err == nil {
		t.Fatal("expected error: fewer units than clients")
	}
	if _, err := SplitWidths(10, nil); err == nil {
		t.Fatal("expected error: no ratios")
	}
}

func TestShuffleCoordinatorDeterminism(t *testing.T) {
	a := NewShuffleCoordinator(42)
	b := NewShuffleCoordinator(42)
	for round := 0; round < 5; round++ {
		if a.SeedForRound(round) != b.SeedForRound(round) {
			t.Fatalf("round %d: same secret must give same seed", round)
		}
	}
	if a.SeedForRound(1) == a.SeedForRound(2) {
		t.Fatal("different rounds should give different seeds")
	}
	c := NewShuffleCoordinator(43)
	if a.SeedForRound(0) == c.SeedForRound(0) {
		t.Fatal("different secrets should give different seeds")
	}
	if a.SeedForRound(7) == a.PublicationSeed(7) {
		t.Fatal("publication seeds must be namespaced away from round seeds")
	}
}

// twoClientTables builds a pair of vertically-split tables with
// cross-client structure: client A holds a 70/30 categorical column plus a
// local continuous column; client B holds a continuous column whose mean
// depends on A's category (the correlation GTV must learn across clients).
func twoClientTables(t *testing.T, rows int, seed int64) (*encoding.Table, *encoding.Table) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	da := tensor.New(rows, 2)
	db := tensor.New(rows, 1)
	for i := 0; i < rows; i++ {
		c := 0.0
		if rng.Float64() < 0.3 {
			c = 1
		}
		da.Set(i, 0, c)
		da.Set(i, 1, rng.NormFloat64()+2*c)
		db.Set(i, 0, rng.NormFloat64()+6*c)
	}
	ta, err := encoding.NewTable([]encoding.ColumnSpec{
		{Name: "segment", Kind: encoding.KindCategorical, Categories: []string{"a", "b"}},
		{Name: "spend", Kind: encoding.KindContinuous},
	}, da)
	if err != nil {
		t.Fatalf("NewTable A: %v", err)
	}
	tb, err := encoding.NewTable([]encoding.ColumnSpec{
		{Name: "income", Kind: encoding.KindContinuous},
	}, db)
	if err != nil {
		t.Fatalf("NewTable B: %v", err)
	}
	return ta, tb
}

// newLocal is NewLocalClient for a table the test built itself, where a
// constructor error is a broken fixture.
func newLocal(t testing.TB, tab *encoding.Table, coord *ShuffleCoordinator, seed int64) *LocalClient {
	t.Helper()
	c, err := NewLocalClient(tab, coord, seed)
	if err != nil {
		t.Fatalf("NewLocalClient: %v", err)
	}
	return c
}

// newTestSystem builds a 2-client GTV system with a small fast config.
func newTestSystem(t *testing.T, plan Plan, rows int, faithful bool) (*Server, []*LocalClient) {
	t.Helper()
	ta, tb := twoClientTables(t, rows, 7)
	coord := NewShuffleCoordinator(99)
	ca := newLocal(t, ta, coord, 1)
	cb := newLocal(t, tb, coord, 2)
	cfg := DefaultConfig()
	cfg.Plan = plan
	cfg.Rounds = 40
	cfg.DiscSteps = 3
	cfg.BatchSize = 64
	cfg.NoiseDim = 24
	cfg.BlockDim = 64
	cfg.LR = 5e-4
	cfg.FaithfulRealPass = faithful
	srv, err := NewServer([]Client{ca, cb}, cfg)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	return srv, []*LocalClient{ca, cb}
}

func TestServerSetupWidths(t *testing.T) {
	srv, _ := newTestSystem(t, Plan{DiscServer: 2, GenClient: 2}, 200, false)
	// Client A has 2 features, B has 1: P_r = (2/3, 1/3).
	r := srv.Ratios()
	if math.Abs(r[0]-2.0/3) > 1e-12 || math.Abs(r[1]-1.0/3) > 1e-12 {
		t.Fatalf("ratios = %v", r)
	}
	w := srv.sliceWidths
	if w[0]+w[1] != 64 {
		t.Fatalf("slice widths %v do not sum to GenBlockDim", w)
	}
	if w[0] <= w[1] {
		t.Fatalf("slice widths %v should follow P_r", w)
	}
}

func TestTrainRoundRunsAllPlans(t *testing.T) {
	if testing.Short() {
		t.Skip("GAN training in -short mode")
	}
	for _, plan := range StandardPlans() {
		plan := plan
		t.Run(plan.Name(), func(t *testing.T) {
			srv, _ := newTestSystem(t, plan, 150, false)
			srv.cfg.Rounds = 2
			dLoss, gLoss, err := srv.TrainRound()
			if err != nil {
				t.Fatalf("TrainRound: %v", err)
			}
			if math.IsNaN(dLoss) || math.IsNaN(gLoss) {
				t.Fatalf("NaN losses %v %v", dLoss, gLoss)
			}
		})
	}
}

func TestFaithfulRealPassMode(t *testing.T) {
	if testing.Short() {
		t.Skip("GAN training in -short mode")
	}
	srv, _ := newTestSystem(t, Plan{DiscServer: 2, GenClient: 2}, 150, true)
	if _, _, err := srv.TrainRound(); err != nil {
		t.Fatalf("TrainRound (faithful): %v", err)
	}
}

func TestEndToEndLearnsCrossClientCorrelation(t *testing.T) {
	if testing.Short() {
		t.Skip("GAN training in -short mode")
	}
	srv, clients := newTestSystem(t, Plan{DiscServer: 2, GenClient: 2}, 600, false)
	srv.cfg.Rounds = 450
	if err := srv.Train(nil); err != nil {
		t.Fatalf("Train: %v", err)
	}
	joined, parts, err := srv.SynthesizeParts(600)
	if err != nil {
		t.Fatalf("SynthesizeParts: %v", err)
	}
	if joined.Rows() != 600 || joined.Cols() != 3 {
		t.Fatalf("synthetic shape %dx%d", joined.Rows(), joined.Cols())
	}
	if !joined.Data.AllFinite() {
		t.Fatal("synthetic data has NaN")
	}
	// Marginal check: the 70/30 categorical split must roughly survive.
	freq, err := encoding.CategoryFrequencies(parts[0], 0)
	if err != nil {
		t.Fatalf("CategoryFrequencies: %v", err)
	}
	if freq[1] < 0.08 || freq[1] > 0.6 {
		t.Fatalf("synthetic minority share = %v want ~0.3", freq[1])
	}
	// Cross-client structure: income (client B) must still depend on
	// segment (client A). The real effect is a 6-sigma mean shift; accept
	// any clearly positive association.
	eta := stats.CorrelationRatio(joined.Data.Col(0), joined.Data.Col(2), 2)
	if eta < 0.25 {
		t.Fatalf("synthetic across-client correlation ratio = %v, cross-client structure lost", eta)
	}
	// All clients remained row-aligned through shuffles.
	ta, tb := twoClientTables(t, 600, 7) // the tables newTestSystem splits
	for i, raw := range []*encoding.Table{ta, tb} {
		if n := OrderedTable(clients[i], raw).Rows(); n != 600 {
			t.Fatalf("client table rows changed to %d", n)
		}
	}
}

func TestShuffleKeepsClientsAligned(t *testing.T) {
	ta, tb := twoClientTables(t, 100, 11)
	coord := NewShuffleCoordinator(5)
	ca := newLocal(t, ta, coord, 1)
	cb := newLocal(t, tb, coord, 2)
	// Record the row pairing before shuffles via the deterministic
	// cross-client relationship is not exact; instead track a synthetic ID:
	// row i of A pairs with row i of B. After identical-seed shuffles the
	// permutation must be identical on both sides.
	origA := OrderedTable(ca, ta).Data.Clone()
	origB := OrderedTable(cb, tb).Data.Clone()
	for round := 0; round < 3; round++ {
		if err := ca.EndRound(round); err != nil {
			t.Fatalf("EndRound A: %v", err)
		}
		if err := cb.EndRound(round); err != nil {
			t.Fatalf("EndRound B: %v", err)
		}
	}
	// OrderedTable materialises the shuffled table; take each once.
	nowA, nowB := OrderedTable(ca, ta).Data, OrderedTable(cb, tb).Data
	// The order is the composition of the three per-round permutations, each
	// drawn exactly as rand.Perm draws it (new row k holds old row perm[k]):
	// this pins the coordinator's fused shuffle to math/rand's sequence.
	want := make([]int, 100)
	for k := range want {
		want[k] = k
	}
	for round := 0; round < 3; round++ {
		perm := rand.New(rand.NewSource(coord.SeedForRound(round))).Perm(100)
		next := make([]int, 100)
		for k := range next {
			next[k] = want[perm[k]]
		}
		want = next
	}
	moved := 0
	for i := 0; i < 100; i++ {
		if want[i] != i {
			moved++
		}
		if nowA.At(i, 1) != origA.At(want[i], 1) || nowB.At(i, 0) != origB.At(want[i], 0) {
			t.Fatalf("row %d is not original row %d after three shuffles", i, want[i])
		}
	}
	if moved == 0 {
		t.Fatal("three shuffles left every row in place")
	}
	// Every shuffled A row must sit at the same position as its paired B row.
	for i := 0; i < 100; i++ {
		// find original index of A's row i by matching the (unique)
		// continuous value.
		spend := nowA.At(i, 1)
		orig := -1
		for k := 0; k < 100; k++ {
			if origA.At(k, 1) == spend {
				orig = k
				break
			}
		}
		if orig < 0 {
			t.Fatalf("row %d lost after shuffling", i)
		}
		if nowB.At(i, 0) != origB.At(orig, 0) {
			t.Fatalf("row %d misaligned after shuffling", i)
		}
	}
}

func TestServerRejectsMisalignedClients(t *testing.T) {
	ta, _ := twoClientTables(t, 100, 3)
	_, tb := twoClientTables(t, 90, 3)
	coord := NewShuffleCoordinator(1)
	ca := newLocal(t, ta, coord, 1)
	cb := newLocal(t, tb, coord, 2)
	if _, err := NewServer([]Client{ca, cb}, DefaultConfig()); err == nil {
		t.Fatal("expected row-misalignment error")
	}
}

func TestNewServerValidation(t *testing.T) {
	if _, err := NewServer(nil, DefaultConfig()); err == nil {
		t.Fatal("expected error for no clients")
	}
	cfg := DefaultConfig()
	cfg.Rounds = 0
	ta, _ := twoClientTables(t, 50, 3)
	ca := newLocal(t, ta, NewShuffleCoordinator(1), 1)
	if _, err := NewServer([]Client{ca}, cfg); err == nil {
		t.Fatal("expected config validation error")
	}
	// A non-finite option is the server's own misconfiguration: refused
	// by name before any client is configured with it.
	for name, set := range map[string]func(*Config){
		"LR":           func(c *Config) { c.LR = math.NaN() },
		"DPLogitNoise": func(c *Config) { c.DPLogitNoise = math.NaN() },
		"GradTopK":     func(c *Config) { c.GradTopK = math.NaN() },
	} {
		cfg := DefaultConfig()
		set(&cfg)
		if _, err := NewServer([]Client{ca}, cfg); err == nil || !strings.Contains(err.Error(), "vfl: "+name+" NaN") {
			t.Errorf("%s NaN: NewServer = %v, want an error naming %s", name, err, name)
		}
	}
}

// TestConfigRefusesNonPositive: a zero or negative size or rate is refused
// by name; validate supplies no default of its own for any of them.
func TestConfigRefusesNonPositive(t *testing.T) {
	for name, set := range map[string]func(*Config, int){
		"DiscSteps": func(c *Config, v int) { c.DiscSteps = v },
		"NoiseDim":  func(c *Config, v int) { c.NoiseDim = v },
		"BlockDim":  func(c *Config, v int) { c.BlockDim = v },
		"LR":        func(c *Config, v int) { c.LR = float64(v) },
	} {
		t.Run(name, func(t *testing.T) {
			for _, v := range []int{0, -1} {
				cfg := DefaultConfig()
				set(&cfg, v)
				if err := cfg.validate(); err == nil || !strings.Contains(err.Error(), "vfl: "+name+" ") {
					t.Errorf("%s %d: validate = %v, want an error naming %s", name, v, err, name)
				}
			}
		})
	}
}

func TestClientErrorsBeforeConfigure(t *testing.T) {
	ta, _ := twoClientTables(t, 50, 3)
	c := newLocal(t, ta, NewShuffleCoordinator(1), 1)
	if _, err := c.ForwardSynthetic(tensor.New(4, 8), PhaseDiscriminator); err == nil {
		t.Fatal("expected not-configured error")
	}
	if _, err := c.ForwardReal(nil); err == nil {
		t.Fatal("expected not-configured error")
	}
	if err := c.BackwardDisc(nil, nil); err == nil {
		t.Fatal("expected not-configured error")
	}
	if _, err := c.Publish(); err == nil {
		t.Fatal("expected nothing-to-publish error")
	}
}

func TestBackwardBeforeForwardErrors(t *testing.T) {
	ta, _ := twoClientTables(t, 50, 3)
	c := newLocal(t, ta, NewShuffleCoordinator(1), 1)
	setup := Setup{
		Plan:          Plan{DiscServer: 2, GenClient: 2},
		SliceWidth:    8,
		GenBlockWidth: 8,
		DiscWidth:     8,
		LR:            1e-3,
		Seed:          1,
	}
	if err := c.Configure(setup); err != nil {
		t.Fatalf("Configure: %v", err)
	}
	if err := c.BackwardDisc(tensor.New(1, 8), tensor.New(1, 8)); err == nil {
		t.Fatal("expected backward-before-forward error")
	}
	if _, err := c.BackwardGen(tensor.New(1, 8), false); err == nil {
		t.Fatal("expected backward-before-forward error")
	}
}

// TestPrivacyServerNeverSeesRawData is a structural check of the privacy
// invariant: the logits a client emits have strictly lower dimension than
// its encoded data, and the client's raw table is never part of any message
// type exchanged with the server (enforced here by verifying the forward
// outputs cannot be the identity of the encoded rows).
func TestPrivacyLogitsAreNotRawData(t *testing.T) {
	ta, _ := twoClientTables(t, 80, 13)
	c := newLocal(t, ta, NewShuffleCoordinator(1), 1)
	info, err := c.Info()
	if err != nil {
		t.Fatalf("Info: %v", err)
	}
	setup := Setup{
		Plan:          Plan{DiscServer: 2, GenClient: 2},
		SliceWidth:    8,
		GenBlockWidth: 8,
		DiscWidth:     4, // narrower than the encoded width
		LR:            1e-3,
		Seed:          1,
	}
	if setup.DiscWidth >= info.EncodedWidth {
		t.Fatalf("test setup broken: disc width %d must compress encoded width %d", setup.DiscWidth, info.EncodedWidth)
	}
	if err := c.Configure(setup); err != nil {
		t.Fatalf("Configure: %v", err)
	}
	out, err := c.ForwardReal(nil)
	if err != nil {
		t.Fatalf("ForwardReal: %v", err)
	}
	if out.Cols() != setup.DiscWidth {
		t.Fatalf("real logits width %d want %d", out.Cols(), setup.DiscWidth)
	}
	if out.Rows() != info.Rows {
		t.Fatalf("full pass rows %d want %d", out.Rows(), info.Rows)
	}
}

func TestGTVWithoutCategoricalColumns(t *testing.T) {
	if testing.Short() {
		t.Skip("GAN training in -short mode")
	}
	// A federation where no client has categorical columns: the global CV
	// width is zero, D^s is absent, and training must still run.
	rng := rand.New(rand.NewSource(55))
	da := tensor.Randn(rng, 120, 2, 0, 1)
	db := tensor.Randn(rng, 120, 1, 5, 2)
	ta, err := encoding.NewTable([]encoding.ColumnSpec{
		{Name: "a1", Kind: encoding.KindContinuous},
		{Name: "a2", Kind: encoding.KindContinuous},
	}, da)
	if err != nil {
		t.Fatalf("NewTable: %v", err)
	}
	tb, err := encoding.NewTable([]encoding.ColumnSpec{
		{Name: "b1", Kind: encoding.KindContinuous},
	}, db)
	if err != nil {
		t.Fatalf("NewTable: %v", err)
	}
	coord := NewShuffleCoordinator(3)
	ca := newLocal(t, ta, coord, 1)
	cb := newLocal(t, tb, coord, 2)
	cfg := DefaultConfig()
	cfg.Plan = Plan{DiscServer: 2, GenClient: 2}
	cfg.Rounds = 3
	cfg.DiscSteps = 1
	cfg.BatchSize = 32
	cfg.NoiseDim = 16
	cfg.BlockDim = 32
	srv, err := NewServer([]Client{ca, cb}, cfg)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	if err := srv.Train(nil); err != nil {
		t.Fatalf("Train: %v", err)
	}
	synth, err := srv.Synthesize(40)
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	if synth.Rows() != 40 || synth.Cols() != 3 || !synth.Data.AllFinite() {
		t.Fatalf("bad synthesis %dx%d", synth.Rows(), synth.Cols())
	}
}

func TestSingleClientFederation(t *testing.T) {
	if testing.Short() {
		t.Skip("GAN training in -short mode")
	}
	// Degenerate but legal: one client owning every column. Equivalent to
	// a split centralized GAN.
	ta, tb := twoClientTables(t, 100, 77)
	joined, err := encoding.ConcatColumns(ta, tb)
	if err != nil {
		t.Fatalf("ConcatColumns: %v", err)
	}
	coord := NewShuffleCoordinator(9)
	c := newLocal(t, joined, coord, 1)
	cfg := DefaultConfig()
	cfg.Plan = Plan{DiscServer: 2, GenClient: 2}
	cfg.Rounds = 2
	cfg.DiscSteps = 1
	cfg.BatchSize = 32
	cfg.NoiseDim = 16
	cfg.BlockDim = 32
	srv, err := NewServer([]Client{c}, cfg)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	if _, _, err := srv.TrainRound(); err != nil {
		t.Fatalf("TrainRound: %v", err)
	}
	synth, err := srv.Synthesize(20)
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	if synth.Cols() != 3 {
		t.Fatalf("cols = %d", synth.Cols())
	}
}

// Property: SplitWidths always sums exactly to the total and gives every
// client at least one unit, for any normalized ratio vector.
func TestQuickSplitWidthsInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		total := n + rng.Intn(512)
		raw := make([]float64, n)
		var sum float64
		for i := range raw {
			raw[i] = rng.Float64() + 1e-3
			sum += raw[i]
		}
		for i := range raw {
			raw[i] /= sum
		}
		widths, err := SplitWidths(total, raw)
		if err != nil {
			return false
		}
		got := 0
		for _, w := range widths {
			if w < 1 {
				return false
			}
			got += w
		}
		return got == total
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: every valid plan's name parses back to itself.
func TestQuickPlanRoundTrip(t *testing.T) {
	f := func(a, b, c, d uint8) bool {
		p := Plan{
			DiscServer: int(a % 5), DiscClient: int(b % 5),
			GenServer: int(c % 5), GenClient: int(d % 5),
		}
		parsed, err := ParsePlan(p.Name())
		return err == nil && parsed == p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: shuffle seeds are deterministic in (secret, round) and the
// round/publication namespaces never collide for the same argument.
func TestQuickShuffleSeeds(t *testing.T) {
	f := func(secret int64, round uint16) bool {
		a := NewShuffleCoordinator(secret)
		b := NewShuffleCoordinator(secret)
		r := int(round)
		return a.SeedForRound(r) == b.SeedForRound(r) &&
			a.SeedForRound(r) != a.PublicationSeed(r)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPacTraining(t *testing.T) {
	if testing.Short() {
		t.Skip("GAN training in -short mode")
	}
	ta, tb := twoClientTables(t, 150, 61)
	coord := NewShuffleCoordinator(4)
	ca := newLocal(t, ta, coord, 1)
	cb := newLocal(t, tb, coord, 2)
	cfg := DefaultConfig()
	cfg.Plan = Plan{DiscServer: 2, GenClient: 2}
	cfg.Rounds = 2
	cfg.DiscSteps = 1
	cfg.BatchSize = 40
	cfg.Pac = 8
	cfg.NoiseDim = 16
	cfg.BlockDim = 32
	srv, err := NewServer([]Client{ca, cb}, cfg)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	if err := srv.Train(nil); err != nil {
		t.Fatalf("Train with pac: %v", err)
	}
	synth, err := srv.Synthesize(20)
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	if !synth.Data.AllFinite() {
		t.Fatal("NaN in pac-trained synthesis")
	}
}

func TestPacValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BatchSize = 30
	cfg.Pac = 7 // 30 not divisible by 7
	if err := cfg.validate(); err == nil {
		t.Fatal("expected pac divisibility error")
	}
	cfg = DefaultConfig()
	cfg.DPLogitNoise = -1
	if err := cfg.validate(); err == nil {
		t.Fatal("expected negative DP noise error")
	}
}

func TestDPNoiseTraining(t *testing.T) {
	if testing.Short() {
		t.Skip("GAN training in -short mode")
	}
	ta, tb := twoClientTables(t, 120, 62)
	coord := NewShuffleCoordinator(4)
	ca := newLocal(t, ta, coord, 1)
	cb := newLocal(t, tb, coord, 2)
	cfg := DefaultConfig()
	cfg.Plan = Plan{DiscServer: 2, GenClient: 2}
	cfg.Rounds = 2
	cfg.DiscSteps = 1
	cfg.BatchSize = 32
	cfg.NoiseDim = 16
	cfg.BlockDim = 32
	cfg.DPLogitNoise = 0.5
	srv, err := NewServer([]Client{ca, cb}, cfg)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	if err := srv.Train(nil); err != nil {
		t.Fatalf("Train with DP noise: %v", err)
	}
}

func TestSynthesizeConditionServerValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("GAN training in -short mode")
	}
	srv, _ := newTestSystem(t, Plan{DiscServer: 2, GenClient: 2}, 120, false)
	if _, err := srv.SynthesizeCondition(0, 0, 0, 0); err == nil {
		t.Fatal("expected row-count error")
	}
	if _, err := srv.SynthesizeCondition(10, 9, 0, 0); err == nil {
		t.Fatal("expected client range error")
	}
	// Client 1 (income only) has no categorical spans.
	if _, err := srv.SynthesizeCondition(10, 1, 0, 0); err == nil {
		t.Fatal("expected span range error from client without categorical columns")
	}
	// Valid condition on client 0's segment column.
	synth, err := srv.SynthesizeCondition(20, 0, 0, 1)
	if err != nil {
		t.Fatalf("SynthesizeCondition: %v", err)
	}
	if synth.Rows() != 20 || synth.Cols() != 3 {
		t.Fatalf("conditional synthesis shape %dx%d", synth.Rows(), synth.Cols())
	}
}

// TestSynthesizeConditionGolden pins conditional synthesis to bytes: the
// sha256 of a fixed-seed 64-row SynthesizeCondition CSV (three batches of
// 24, 24 and 16, so the partial batch is in it), the payload accounting it
// adds, and the digest of a free synthesis run straight after it, which
// moves if conditional synthesis drew from the server RNG in any other
// order. The constants were computed on the tree where SynthesizeCondition
// still had a batch loop of its own; the fold onto SynthesizeParts' loop
// must not move them. Like every bit-equality contract in the repo they
// hold within one amd64 build (arm64 fuses x*y+z).
func TestSynthesizeConditionGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden digests are pinned for amd64 float arithmetic")
	}
	const (
		wantCond  = "436b38703b13d07860086e508b733e59572ebc50d74a50bf0ec68b72020e37cc"
		wantAfter = "257099e4a785530efa199761b02a078b0ed904f35150748783afc0558fdbc6a2"
	)
	srv, _ := newThreeClientSystem(t, 0, func(c *Config) { c.Rounds = 2; c.BatchSize = 24 })
	trainRounds(t, srv, "golden")
	before := srv.CommStats()
	tbl, err := srv.SynthesizeCondition(64, 2, 0, 1)
	if err != nil {
		t.Fatalf("SynthesizeCondition: %v", err)
	}
	var buf bytes.Buffer
	if err := encoding.WriteCSV(&buf, tbl); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != wantCond {
		t.Fatalf("conditional synthesis digest %s, want %s", got, wantCond)
	}
	after := srv.CommStats()
	if gen, cv := after.GenSlicesSent-before.GenSlicesSent, after.CVBytes-before.CVBytes; gen != 24576 || cv != 1536 || after.Total()-before.Total() != gen+cv {
		t.Fatalf("conditional synthesis accounted %d slice and %d CV bytes of %d, want 24576 and 1536 and nothing else",
			gen, cv, after.Total()-before.Total())
	}
	sum = sha256.Sum256(synthCSVBytes(t, srv, "after conditional synthesis", 40))
	if got := hex.EncodeToString(sum[:]); got != wantAfter {
		t.Fatalf("free synthesis after conditional synthesis: digest %s, want %s", got, wantAfter)
	}
}
