package vfl

import (
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/condvec"
	"repro/internal/encoding"
	"repro/internal/gmm"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// assertMatrixBitEqual fails unless a and b hold the same float64s.
func assertMatrixBitEqual(t *testing.T, label string, a, b *tensor.Dense) {
	t.Helper()
	if !a.Equal(b) {
		t.Fatalf("%s: %dx%d matrix differs from the %dx%d reference", label, a.Rows(), a.Cols(), b.Rows(), b.Cols())
	}
}

// physicalReference is training-with-shuffling the way it was first
// built, kept as a test-only oracle: every round it copies the raw table
// into the new order, shuffles the encoded matrix and rewrites the CV
// index. The row-order view must be indistinguishable from it.
type physicalReference struct {
	// raw is the table as built, the one the client under test was built
	// over; table is raw in the reference's current order.
	raw     *encoding.Table
	table   *encoding.Table
	data    encoding.Backing
	sampler *condvec.Sampler
	rng     *rng.Rand
}

func newPhysicalReference(t *testing.T, table *encoding.Table, seed int64, st encoding.Storage) *physicalReference {
	t.Helper()
	tr, data, err := encoding.OpenOrEncode(st, table, seed, gmm.DefaultConfig())
	if err != nil {
		t.Fatalf("reference OpenOrEncode: %v", err)
	}
	t.Cleanup(func() { data.Close() })
	sampler, err := condvec.NewSampler(table, tr)
	if err != nil {
		t.Fatalf("reference NewSampler: %v", err)
	}
	return &physicalReference{raw: table, table: table, data: data, sampler: sampler, rng: rng.New(seed)}
}

func (r *physicalReference) endRound(t *testing.T, coord *ShuffleCoordinator, round int) {
	t.Helper()
	perm := rand.New(rand.NewSource(coord.SeedForRound(round))).Perm(r.table.Rows())
	r.table = r.table.ShuffleRows(perm)
	if err := r.data.Shuffle(perm); err != nil {
		t.Fatalf("reference Shuffle: %v", err)
	}
	if err := r.sampler.Reindex(perm); err != nil {
		t.Fatalf("reference Reindex: %v", err)
	}
}

// assertMatchesReference compares everything row order can reach: the
// evaluation table, the idx_p drawn from equal RNG state, a batch gathered
// for server-supplied positions and the full-table matrix.
func assertMatchesReference(t *testing.T, label string, c *LocalClient, ref *physicalReference) {
	t.Helper()
	assertMatrixBitEqual(t, label+": OrderedTable", OrderedTable(c, ref.raw).Data, ref.table.Data)

	got, err := c.SampleCV(37, false)
	if err != nil {
		t.Fatalf("%s: SampleCV: %v", label, err)
	}
	want, err := ref.sampler.Sample(ref.rng.Rand, 37)
	if err != nil {
		t.Fatalf("%s: reference Sample: %v", label, err)
	}
	for k := range want.Rows {
		if got.Rows[k] != want.Rows[k] || got.Hot[k] != want.Hot[k] {
			t.Fatalf("%s: sample %d drew row %d (hot %d), reference row %d (hot %d)",
				label, k, got.Rows[k], got.Hot[k], want.Rows[k], want.Hot[k])
		}
	}

	if _, err := c.ForwardReal(want.Rows); err != nil {
		t.Fatalf("%s: ForwardReal(idx): %v", label, err)
	}
	batch, err := ref.data.GatherRows(want.Rows)
	if err != nil {
		t.Fatalf("%s: reference GatherRows: %v", label, err)
	}
	assertMatrixBitEqual(t, label+": gathered batch", c.lastRealBuf, batch)
	batch.Release()

	if _, err := c.ForwardReal(nil); err != nil {
		t.Fatalf("%s: ForwardReal(nil): %v", label, err)
	}
	full := c.fullReal
	if full == nil {
		t.Fatalf("%s: full-table pass after a shuffle built no ordered matrix", label)
	}
	whole, err := ref.data.Dense(nil)
	if err != nil {
		t.Fatalf("%s: reference Dense: %v", label, err)
	}
	assertMatrixBitEqual(t, label+": full-table matrix", full, whole)
	whole.Release()
	if _, err := c.ForwardReal(nil); err != nil {
		t.Fatalf("%s: second ForwardReal(nil): %v", label, err)
	}
	if c.fullReal != full {
		t.Fatalf("%s: ordered matrix rebuilt within one shuffle epoch", label)
	}
}

// TestRowOrderViewMatchesPhysicalShuffle is the oracle for the order view:
// over several rounds, for the in-memory and the gtvcol backing, on the
// training client and on clients restored from its checkpoint, everything
// that depends on row order is bit-equal to physically shuffled data.
func TestRowOrderViewMatchesPhysicalShuffle(t *testing.T) {
	const rounds, seed, secret = 4, 11, 77
	// Client A conditions on a categorical column (its idx_p come out of
	// the CV index); client B has none and draws uniform positions.
	tableA, tableB := twoClientTables(t, 300, 23)
	for _, tc := range []struct {
		name   string
		table  *encoding.Table
		stored bool
	}{
		{"dense", tableA, false},
		{"gtvcol", tableA, true},
		{"dense, no categorical column", tableB, false},
		{"gtvcol, no categorical column", tableB, true},
	} {
		ta, stored := tc.table, tc.stored
		t.Run(tc.name, func(t *testing.T) {
			storage := func(stem string) encoding.Storage {
				if !stored {
					return encoding.Storage{}
				}
				return encoding.Storage{Dir: t.TempDir(), Name: stem, BlockRows: 64}
			}
			setup := Setup{
				Plan: Plan{DiscServer: 2, GenClient: 2}, SliceWidth: 8, GenBlockWidth: 16,
				DiscWidth: 12, LR: 1e-3, Seed: 5,
			}
			newClient := func(coord *ShuffleCoordinator, stem string) *LocalClient {
				t.Helper()
				c, err := NewLocalClientStored(ta, coord, seed, storage(stem))
				if err != nil {
					t.Fatalf("NewLocalClientStored: %v", err)
				}
				t.Cleanup(func() { c.Close() })
				if err := c.Configure(setup); err != nil {
					t.Fatalf("Configure: %v", err)
				}
				return c
			}
			before := ta.Data.Clone()
			coord := NewShuffleCoordinator(secret)
			c := newClient(coord, "client")
			ref := newPhysicalReference(t, ta, seed, storage("reference"))

			for round := 0; round < rounds; round++ {
				if err := c.EndRound(round); err != nil {
					t.Fatalf("EndRound(%d): %v", round, err)
				}
				ref.endRound(t, coord, round)
				assertMatchesReference(t, "trained", c, ref)
			}
			assertMatrixBitEqual(t, "caller's table after training", ta.Data, before)

			// Two restored clients: one replays the order on a coordinator
			// of its own, one picks up the order its peer already holds.
			blob, err := c.Snapshot()
			if err != nil {
				t.Fatalf("Snapshot: %v", err)
			}
			refState := ref.rng.State()
			for _, tc := range []struct {
				label string
				coord *ShuffleCoordinator
			}{
				{"restored, replayed", NewShuffleCoordinator(secret)},
				{"restored, memoized", coord},
			} {
				fresh := newClient(tc.coord, "fresh")
				if err := fresh.Restore(blob); err != nil {
					t.Fatalf("%s: Restore: %v", tc.label, err)
				}
				ref.rng.SetState(refState)
				assertMatchesReference(t, tc.label, fresh, ref)
			}
		})
	}
}

// TestEndRoundIsKeyedByRound pins the three-way check: the expected round
// shuffles, a repeat of the round just applied is acknowledged without a
// second shuffle, anything else is refused and names both numbers.
func TestEndRoundIsKeyedByRound(t *testing.T) {
	ta, _ := twoClientTables(t, 50, 3)
	c := newLocal(t, ta, NewShuffleCoordinator(1), 1)
	if err := c.EndRound(3); err == nil || !strings.Contains(err.Error(), "round 3") || !strings.Contains(err.Error(), "completed 0") {
		t.Fatalf("EndRound(3) on a fresh client: %v", err)
	}
	if c.order.shuffles != 0 || c.order.view != nil {
		t.Fatal("a refused EndRound changed the order")
	}
	if err := c.EndRound(0); err != nil {
		t.Fatalf("EndRound(0): %v", err)
	}
	after := c.order
	if err := c.EndRound(0); err != nil {
		t.Fatalf("retried EndRound(0): %v", err)
	}
	if c.order.shuffles != 1 || &c.order.view[0] != &after.view[0] {
		t.Fatal("a retried EndRound shuffled a second time")
	}
	if err := c.EndRound(1); err != nil {
		t.Fatalf("EndRound(1): %v", err)
	}
	if err := c.EndRound(0); err == nil {
		t.Fatal("EndRound two rounds back must be refused")
	}
}

// TestLostEndRoundReplyDoesNotMisalign drives the retry the policy layer
// makes when an EndRound reply is lost: the client had already shuffled, so
// shuffling again on the retry would silently pair its rows with the wrong
// rows of its peer. The disturbed federation must end with exactly the
// weights of an undisturbed one.
func TestLostEndRoundReplyDoesNotMisalign(t *testing.T) {
	policy := CallPolicy{MaxAttempts: 3, Backoff: time.Millisecond}
	srv, faulty := newFaultySystem(t, policy)
	clean, _ := newFaultySystem(t, policy)

	faulty.LoseEndRoundReplies(1)
	for round := 0; round < 3; round++ {
		if _, _, err := srv.TrainRound(); err != nil {
			t.Fatalf("round %d with a lost EndRound reply: %v", round, err)
		}
		if _, _, err := clean.TrainRound(); err != nil {
			t.Fatalf("undisturbed round %d: %v", round, err)
		}
	}
	faulty.mu.Lock()
	pending := faulty.lostEnds
	faulty.mu.Unlock()
	if pending != 0 {
		t.Fatal("the lost-reply fault never fired")
	}
	assertParamsEqual(t, "D^t after a retried EndRound", srv.dTop, clean.dTop)
	assertParamsEqual(t, "G^t after a retried EndRound", srv.gTop, clean.gTop)
}

// TestWireForwardRealRejectsBadIndex sends row positions outside the table
// to a served in-memory client: the call must come back as an error — the
// same one for both backings — and the serving process must survive it.
func TestWireForwardRealRejectsBadIndex(t *testing.T) {
	ta, _ := twoClientTables(t, 60, 41)
	for _, st := range []encoding.Storage{{}, {Dir: t.TempDir(), Name: "client"}} {
		lc, err := NewLocalClientStored(ta, NewShuffleCoordinator(55), 1, st)
		if err != nil {
			t.Fatalf("NewLocalClientStored: %v", err)
		}
		t.Cleanup(func() { lc.Close() })
		proxy := serveWire(t, lc)
		if err := proxy.Configure(Setup{
			Plan: Plan{DiscServer: 2, GenClient: 2}, SliceWidth: 8, GenBlockWidth: 16,
			DiscWidth: 12, LR: 1e-3, Seed: 5,
		}); err != nil {
			t.Fatalf("Configure: %v", err)
		}
		for _, idx := range [][]int{{0, 60}, {-1}, {1 << 40}} {
			_, err := proxy.ForwardReal(idx)
			if err == nil || !strings.Contains(err.Error(), "out of range 60") {
				t.Fatalf("ForwardReal(%v): %v", idx, err)
			}
		}
		if err := proxy.EndRound(0); err != nil {
			t.Fatalf("EndRound: %v", err)
		}
		if _, err := proxy.ForwardReal([]int{60}); err == nil {
			t.Fatal("out-of-range index accepted after a shuffle")
		}
		if out, err := proxy.ForwardReal([]int{59, 0}); err != nil || out.Rows() != 2 {
			t.Fatalf("the served client did not survive the bad frames: %v", err)
		}
	}
}

// TestConcurrentEndRoundSharesOneOrder has many clients of one coordinator
// end the same rounds at once, as the server's fan-out does: the order is
// computed once per round and every client holds the same arrays. Run
// under -race by ci.sh.
func TestConcurrentEndRoundSharesOneOrder(t *testing.T) {
	const n = 8
	ta, tb := twoClientTables(t, 200, 9)
	coord := NewShuffleCoordinator(13)
	clients := make([]*LocalClient, n)
	for i := range clients {
		table := ta
		if i%2 == 1 {
			table = tb
		}
		c := newLocal(t, table, coord, int64(i))
		clients[i] = c
	}
	for round := 0; round < 3; round++ {
		var wg sync.WaitGroup
		errs := make([]error, n)
		for i, c := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[i] = c.EndRound(round)
			}()
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("client %d EndRound(%d): %v", i, round, err)
			}
		}
		first := clients[0].order
		if first.shuffles != round+1 || len(first.view) != 200 || len(first.pos) != 200 {
			t.Fatalf("round %d: order %d shuffles over %d rows", round, first.shuffles, len(first.view))
		}
		for i, c := range clients[1:] {
			if &c.order.view[0] != &first.view[0] || &c.order.pos[0] != &first.pos[0] {
				t.Fatalf("round %d: client %d holds its own copy of the order", round, i+1)
			}
		}
		for k, p := range first.view {
			if first.pos[p] != int32(k) {
				t.Fatalf("round %d: pos is not the inverse of view at %d", round, k)
			}
		}
	}
}

// TestSpareOrdersOnlyWhenUnheld: of two holders of one coordinator's
// orders, one runs two rounds ahead while the other still holds the order
// they started from, then catches up. The lagging holder's order must stay
// intact while the leader draws two orders, and every order must equal a
// fresh coordinator's replay, whichever spares it was drawn into.
func TestSpareOrdersOnlyWhenUnheld(t *testing.T) {
	const rows = 1000
	coord := NewShuffleCoordinator(21)
	replay := func(shuffles int) rowOrder {
		o, err := NewShuffleCoordinator(21).orderAfter(rowOrder{}, rows, shuffles)
		if err != nil {
			t.Fatal(err)
		}
		return o
	}
	same := func(what string, got, want rowOrder) {
		t.Helper()
		if got.shuffles != want.shuffles || !slices.Equal(got.view, want.view) || !slices.Equal(got.pos, want.pos) {
			t.Fatalf("%s: order after %d shuffles differs from the replay", what, want.shuffles)
		}
	}
	step := func(o rowOrder, shuffles int) rowOrder {
		next, err := coord.orderAfter(o, rows, shuffles)
		if err != nil {
			t.Fatal(err)
		}
		return next
	}
	var lead, lag rowOrder
	for s := 0; s < 12; s += 2 {
		lead = step(lead, s+1)
		lead = step(lead, s+2)
		same("the lagging holder's order", lag, replay(s))
		lag = step(lag, s+2)
		same("the leader's order", lead, replay(s+2))
		same("the caught-up order", lag, replay(s+2))
		if s%4 == 2 {
			runtime.GC() // now and then a collection empties the spares
		}
	}
}

// BenchmarkShuffleCoordinatorStep times the whole per-round cost of
// training-with-shuffling for a federation's in-process clients at the
// rows-cold size: the reseed, one fused Fisher–Yates over the previous view
// with its draws computed in-package a block ahead of the swaps, and the
// inverse pass. The new view and pos — two int32 arrays of rows — are drawn
// into the spares the order before last left, so a round allocates only
// after a collection has emptied them: the source is reused, and the
// stream's values and the block of draws live on the stack.
func BenchmarkShuffleCoordinatorStep(b *testing.B) {
	const rows = 500_000
	coord := NewShuffleCoordinator(42)
	var order rowOrder
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if order, err = coord.orderAfter(order, rows, order.shuffles+1); err != nil {
			b.Fatal(err)
		}
	}
	if len(order.view) != rows {
		b.Fatalf("order over %d rows", len(order.view))
	}
}
