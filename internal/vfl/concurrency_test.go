package vfl

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/encoding"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// threeClientTables builds a three-way vertical split with cross-client
// structure: A holds a categorical and a continuous column, B a continuous
// column driven by A's category, C a 3-way categorical plus a continuous
// column.
func threeClientTables(t *testing.T, rows int, seed int64) []*encoding.Table {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	da := tensor.New(rows, 2)
	db := tensor.New(rows, 1)
	dc := tensor.New(rows, 2)
	for i := 0; i < rows; i++ {
		cat := 0.0
		if rng.Float64() < 0.3 {
			cat = 1
		}
		da.Set(i, 0, cat)
		da.Set(i, 1, rng.NormFloat64()+2*cat)
		db.Set(i, 0, rng.NormFloat64()+6*cat)
		dc.Set(i, 0, float64(rng.Intn(3)))
		dc.Set(i, 1, rng.NormFloat64()-3*cat)
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
	tc, err := encoding.NewTable([]encoding.ColumnSpec{
		{Name: "region", Kind: encoding.KindCategorical, Categories: []string{"x", "y", "z"}},
		{Name: "debt", Kind: encoding.KindContinuous},
	}, dc)
	if err != nil {
		t.Fatalf("NewTable C: %v", err)
	}
	return []*encoding.Table{ta, tb, tc}
}

// newThreeClientSystem builds a 3-client GTV system with identical seeds
// every time it is called, so two instances differing only in Parallelism
// must train identically.
func newThreeClientSystem(t *testing.T, parallelism int, mutate func(*Config)) (*Server, []*LocalClient) {
	t.Helper()
	tables := threeClientTables(t, 120, 17)
	coord := NewShuffleCoordinator(99)
	locals := make([]*LocalClient, len(tables))
	ifaces := make([]Client, len(tables))
	for i, tab := range tables {
		c := newLocal(t, tab, coord, int64(i+1))
		locals[i] = c
		ifaces[i] = c
	}
	cfg := DefaultConfig()
	cfg.Plan = Plan{DiscServer: 1, DiscClient: 1, GenServer: 1, GenClient: 1}
	cfg.Rounds = 3
	cfg.DiscSteps = 2
	cfg.BatchSize = 32
	cfg.NoiseDim = 16
	cfg.BlockDim = 48
	cfg.LR = 5e-4
	cfg.Parallelism = parallelism
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := NewServer(ifaces, cfg)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	return srv, locals
}

func assertParamsEqual(t *testing.T, label string, a, b *nn.Sequential) {
	t.Helper()
	if (a == nil) != (b == nil) {
		t.Fatalf("%s: one model is nil", label)
	}
	if a == nil {
		return
	}
	pa, pb := a.Params(), b.Params()
	if len(pa) != len(pb) {
		t.Fatalf("%s: param count %d vs %d", label, len(pa), len(pb))
	}
	for k := range pa {
		if !pa[k].Data().Equal(pb[k].Data()) {
			t.Fatalf("%s: param %d differs", label, k)
		}
	}
}

// TestCommStatsReadsDuringConcurrentRound hammers the CommStats accessor
// while a fully-parallel round mutates the accounting; under -race this
// proves reads return consistent snapshots instead of torn values.
func TestCommStatsReadsDuringConcurrentRound(t *testing.T) {
	srv, _ := newThreeClientSystem(t, 0, nil)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			st := srv.CommStats()
			if st.Total() < 0 || st.Rounds < 0 {
				t.Error("torn CommStats snapshot")
				return
			}
		}
	}()
	for r := 0; r < 2; r++ {
		if _, _, err := srv.TrainRound(); err != nil {
			close(done)
			wg.Wait()
			t.Fatalf("TrainRound: %v", err)
		}
	}
	close(done)
	wg.Wait()
	if got := srv.CommStats().Rounds; got != 2 {
		t.Fatalf("Rounds = %d want 2", got)
	}
}

func TestFanClientsOrderingAndBound(t *testing.T) {
	const n, limit = 16, 4
	clients := make([]Client, n)
	results := make([]int, n)
	var cur, high int64
	err := fanClients(clients, limit, func(i int, _ Client) error {
		c := atomic.AddInt64(&cur, 1)
		for {
			h := atomic.LoadInt64(&high)
			if c <= h || atomic.CompareAndSwapInt64(&high, h, c) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		results[i] = i + 1
		atomic.AddInt64(&cur, -1)
		return nil
	})
	if err != nil {
		t.Fatalf("fanClients: %v", err)
	}
	for i, r := range results {
		if r != i+1 {
			t.Fatalf("slot %d holds %d: results must be index-addressed", i, r)
		}
	}
	if high > limit {
		t.Fatalf("observed %d concurrent calls, limit %d", high, limit)
	}
}

func TestFanClientsSequentialStopsAtFirstError(t *testing.T) {
	calls := 0
	boom := errors.New("boom")
	err := fanClients(make([]Client, 5), 1, func(i int, _ Client) error {
		calls++
		if i == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if calls != 3 {
		t.Fatalf("sequential path made %d calls after error at index 2", calls)
	}
}

func TestFanClientsFirstErrorCancelsQueuedWork(t *testing.T) {
	var started [4]int32
	dead := errors.New("dead client")
	start := time.Now()
	err := fanClients(make([]Client, 4), 2, func(i int, _ Client) error {
		atomic.StoreInt32(&started[i], 1)
		if i == 0 {
			return dead
		}
		time.Sleep(100 * time.Millisecond)
		return nil
	})
	if !errors.Is(err, dead) {
		t.Fatalf("err = %v", err)
	}
	// The two queued clients must never start: the failing client cancels
	// them before any worker can pick them up.
	if atomic.LoadInt32(&started[2]) != 0 || atomic.LoadInt32(&started[3]) != 0 {
		t.Fatal("queued client work started after the first error")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("fan-out took %v after first error", elapsed)
	}
}

func TestFanClientsEmptyAndOversizedLimit(t *testing.T) {
	if err := fanClients(nil, 4, func(int, Client) error { return errors.New("never") }); err != nil {
		t.Fatalf("empty fan-out: %v", err)
	}
	var calls int64
	if err := fanClients(make([]Client, 2), 99, func(int, Client) error {
		atomic.AddInt64(&calls, 1)
		return nil
	}); err != nil {
		t.Fatalf("oversized limit: %v", err)
	}
	if calls != 2 {
		t.Fatalf("calls = %d", calls)
	}
}

// TestFanOutPanicIsAnError: a panic in server code inside a fan-out
// closure, outside any client call, must come back as an error naming the
// client index on the sequential path and inside the worker goroutines,
// where an unrecovered panic ends the process.
func TestFanOutPanicIsAnError(t *testing.T) {
	for _, parallelism := range []int{1, 0} {
		t.Run(fmt.Sprintf("parallelism %d", parallelism), func(t *testing.T) {
			logged := captureLog(t)
			err := fanClients(make([]Client, 3), parallelism, func(i int, _ Client) error {
				if i == 1 {
					var rows []int
					_ = rows[i]
				}
				return nil
			})
			want := "vfl: server step for client 1 panicked: runtime error: index out of range [1] with length 0"
			if err == nil || err.Error() != want {
				t.Fatalf("want %q, got: %v", want, err)
			}
			if n := strings.Count(logged.String(), want); n != 1 || !strings.Contains(logged.String(), "TestFanOutPanicIsAnError") {
				t.Fatalf("want %q logged once with the panicking closure's stack, logged %d times:\n%s", want, n, logged)
			}
		})
	}
}

// TestSequentialConcurrentEquivalence is the core determinism guarantee of
// the concurrent server: training with all clients fanned out must be
// bit-identical — every model weight on every party, and the CommStats
// totals — to the sequential path from the same seed, in every protocol
// mode (broadcast, faithful real pass, DP logit noise).
func TestSequentialConcurrentEquivalence(t *testing.T) {
	variants := []struct {
		name   string
		mutate func(*Config)
	}{
		{"broadcast", nil},
		{"faithful", func(c *Config) { c.FaithfulRealPass = true }},
		{"dp-noise", func(c *Config) { c.DPLogitNoise = 0.3 }},
	}
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			seq, seqClients := newThreeClientSystem(t, 1, v.mutate)
			con, conClients := newThreeClientSystem(t, 0, v.mutate)
			if err := seq.Train(nil); err != nil {
				t.Fatalf("sequential Train: %v", err)
			}
			if err := con.Train(nil); err != nil {
				t.Fatalf("concurrent Train: %v", err)
			}
			assertParamsEqual(t, "G^t", seq.gTop, con.gTop)
			assertParamsEqual(t, "D^t", seq.dTop, con.dTop)
			assertParamsEqual(t, "D^s", seq.dS, con.dS)
			for i := range seqClients {
				assertParamsEqual(t, "client gen", seqClients[i].gen, conClients[i].gen)
				assertParamsEqual(t, "client disc", seqClients[i].disc, conClients[i].disc)
			}
			if seq.CommStats() != con.CommStats() {
				t.Fatalf("CommStats diverge:\n sequential %s\n concurrent %s",
					seq.CommStats(), con.CommStats())
			}
		})
	}
}
