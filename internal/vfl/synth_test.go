package vfl

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/condvec"
	"repro/internal/encoding"
	"repro/internal/tensor"
)

// TestFailedSynthesisDoesNotLeakIntoNext: a Synthesize that fails part-way
// leaves the batches the healthy clients already generated in their
// buffers. Without the server's discard the next Synthesize(n) published
// those rows too, and failed with "client 0 Publish reply: not the 48-row
// table asked for". The discard also keeps every client on the same
// publication seed, which the joined table's row alignment depends on.
func TestFailedSynthesisDoesNotLeakIntoNext(t *testing.T) {
	tables := threeClientTables(t, 120, 17)
	coord := NewShuffleCoordinator(99)
	locals := make([]*LocalClient, len(tables))
	clients := make([]Client, len(tables))
	for i, tab := range tables {
		locals[i] = newLocal(t, tab, coord, int64(i+1))
		clients[i] = locals[i]
	}
	faulty := NewFaultyTransport(locals[2])
	t.Cleanup(faulty.Release)
	clients[2] = faulty
	cfg := DefaultConfig()
	cfg.Plan = Plan{DiscServer: 1, DiscClient: 1, GenServer: 1, GenClient: 1}
	cfg.BatchSize = 32
	cfg.NoiseDim = 16
	cfg.BlockDim = 48
	// Seed 2 draws client 0 or 1 as the first batch's contributor, so the
	// failing call is client 2's GenerateRows, after its peers generated.
	cfg.Seed = 2
	srv, err := NewServer(clients, cfg)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}

	faulty.FailNext(1, nil)
	if _, err := srv.Synthesize(48); err == nil || !strings.Contains(err.Error(), "client 2 generating") {
		t.Fatalf("Synthesize with client 2's GenerateRows failing: want that error, got %v", err)
	}
	tbl, err := srv.Synthesize(48)
	if err != nil {
		t.Fatalf("Synthesize after a failed one: %v", err)
	}
	if tbl.Rows() != 48 {
		t.Fatalf("Synthesize(48) after a failed one returned %d rows", tbl.Rows())
	}
	for i, c := range locals {
		if c.pubCount != locals[0].pubCount || len(c.synthBuf) != 0 {
			t.Fatalf("client %d: %d publications and %d buffered batches, client 0: %d and %d",
				i, c.pubCount, len(c.synthBuf), locals[0].pubCount, len(locals[0].synthBuf))
		}
	}
}

// synthAllocPerRow is the bound TestSynthesisReusesBuffers holds a warm
// Synthesize to, in bytes allocated per synthetic row. Before synthesis
// returned its buffers the test's second call allocated 13 912 B a row; with
// the releases it allocates 737 (the decoded and shuffled tables, the slices
// the server sends and the sampler's CV, none of which is pooled).
const synthAllocPerRow = 2000

// TestSynthesisReusesBuffers: once one Synthesize has filled the pool, the
// next runs from it. Every generator graph, Gumbel draw, noise matrix and
// buffered batch goes back to the pool before the batch after it, so a warm
// call allocates only what leaves it.
func TestSynthesisReusesBuffers(t *testing.T) {
	if raceBuild {
		t.Skip("the race detector's sync.Pool drops buffers at random")
	}
	srv, _ := newThreeClientSystem(t, 1, func(c *Config) { c.BatchSize = 50 })
	const n = 2000
	if _, err := srv.Synthesize(n); err != nil {
		t.Fatalf("warm-up Synthesize: %v", err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := srv.Synthesize(n); err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	runtime.ReadMemStats(&after)
	if perRow := (after.TotalAlloc - before.TotalAlloc) / n; perRow > synthAllocPerRow {
		t.Fatalf("a warm Synthesize allocated %d B a row, bound %d", perRow, synthAllocPerRow)
	}
}

// TestSynthesisTransportIndependent compares synthesis byte for byte between
// in-process clients and the same clients over gtvwire, for two successive
// calls: the second runs on buffers the first returned to the pool, which is
// where a release of something still in use would show.
func TestSynthesisTransportIndependent(t *testing.T) {
	build := func(t *testing.T, wire bool) *Server {
		tables := threeClientTables(t, 120, 17)
		coord := NewShuffleCoordinator(99)
		clients := make([]Client, len(tables))
		for i, tab := range tables {
			clients[i] = newLocal(t, tab, coord, int64(i+1))
			if wire {
				clients[i] = serveWire(t, clients[i])
			}
		}
		cfg := DefaultConfig()
		cfg.Plan = Plan{DiscServer: 1, DiscClient: 1, GenServer: 1, GenClient: 1}
		cfg.Rounds = 2
		cfg.BatchSize = 32
		cfg.NoiseDim = 16
		cfg.BlockDim = 48
		srv, err := NewServer(clients, cfg)
		if err != nil {
			t.Fatalf("NewServer: %v", err)
		}
		trainRounds(t, srv, fmt.Sprintf("wire=%v", wire))
		return srv
	}
	local, wire := build(t, false), build(t, true)
	for call := 1; call <= 2; call++ {
		label := fmt.Sprintf("call %d", call)
		if a, b := synthCSVBytes(t, local, label, 100), synthCSVBytes(t, wire, label, 100); !bytes.Equal(a, b) {
			t.Fatalf("synthesis %s differs between local and gtvwire clients", label)
		}
	}
}

// BenchmarkGenerateRows times one client's synthesis-time generator pass:
// one batch through G_i^b and the output activations into the client's
// buffer. paper-width is one of two adult clients at paper-fed's shapes (a
// 128-column slice, batch 250); 17-col one of four at wire-4c's (a
// 17-column slice, batch 500). Publish, which empties the buffer and
// returns it to the pool, runs outside the timer every iteration.
func BenchmarkGenerateRows(b *testing.B) {
	for _, sh := range []struct {
		name                  string
		clients, width, batch int
	}{
		{"paper-width", 2, 128, 250},
		{"17-col", 4, 17, 500},
	} {
		b.Run(sh.name, func(b *testing.B) {
			c := newLocal(b, splitDataset(b, "adult", 5000, sh.clients)[0], NewShuffleCoordinator(7), 1)
			if err := c.Configure(Setup{
				Plan: Plan{DiscClient: 2, GenClient: 2}, SliceWidth: sh.width, GenBlockWidth: sh.width,
				DiscWidth: sh.width, LR: 2e-4, Seed: 3,
			}); err != nil {
				b.Fatal(err)
			}
			slice := tensor.Randn(rand.New(rand.NewSource(5)), sh.batch, sh.width, 0, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.GenerateRows(slice); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if _, err := c.Publish(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*sh.batch), "ns/row")
		})
	}
}

// TestSynthesisCVCarriesNoRows: a synthesis batch, free or conditioned,
// names no real row (the server has no use for one, and §3.1.5 sanctions
// idx_p for training only), while the client's generator still makes every
// row draw it made when the batch carried rows, so the stream and every
// synthesized table after it stay where they were. Each pin is the
// generator's next value after the call, read when the rows were sent.
func TestSynthesisCVCarriesNoRows(t *testing.T) {
	ta, tb := twoClientTables(t, 90, 3)
	for _, tc := range []struct {
		name string
		tab  *encoding.Table
		call func(*LocalClient) (*condvec.Batch, error)
		next int64
	}{
		{"SampleCV", ta, func(c *LocalClient) (*condvec.Batch, error) { return c.SampleCV(40, true) }, 7106649208377273357},
		{"SampleCV, no categorical column", tb, func(c *LocalClient) (*condvec.Batch, error) { return c.SampleCV(40, true) }, 2952464700226241308},
		{"SampleCVFixed", ta, func(c *LocalClient) (*condvec.Batch, error) { return c.SampleCVFixed(40, 0, 1) }, 2952464700226241308},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newLocal(t, tc.tab, NewShuffleCoordinator(1), 5)
			t.Cleanup(func() { c.Close() })
			// After a shuffle, rows would be moved to their positions.
			if err := c.EndRound(0); err != nil {
				t.Fatal(err)
			}
			b, err := tc.call(c)
			if err != nil {
				t.Fatal(err)
			}
			if len(b.Rows) != 0 {
				t.Errorf("a synthesis batch carries %d row indices", len(b.Rows))
			}
			if next := c.rng.Int63(); next != tc.next {
				t.Errorf("the generator's next value is %d, want %d", next, tc.next)
			}
		})
	}
}
