package vfl

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/encoding"
	"repro/internal/tensor"
)

// TestClientHoldsNoRawRows drops the caller's tables once the clients are
// built and waits for the collector to reclaim them while the clients, kept
// alive, still train a round and synthesize: a party keeps its column specs
// and row count after set-up, never its raw rows.
func TestClientHoldsNoRawRows(t *testing.T) {
	for _, stored := range []bool{false, true} {
		name := "in-memory"
		if stored {
			name = "gtvcol"
		}
		t.Run(name, func(t *testing.T) {
			storage := func(stem string) encoding.Storage {
				if !stored {
					return encoding.Storage{}
				}
				return encoding.Storage{Dir: t.TempDir(), Name: stem, BlockRows: 64}
			}
			var freed atomic.Int32
			clients := clientsOverDroppedTables(t, storage, &freed)
			awaitCollected(t, &freed, int32(len(clients)))

			cfg := DefaultConfig()
			cfg.Plan = Plan{DiscServer: 1, DiscClient: 1, GenServer: 1, GenClient: 1}
			cfg.BatchSize, cfg.NoiseDim, cfg.BlockDim = 32, 16, 32
			srv, err := NewServer(clients, cfg)
			if err != nil {
				t.Fatalf("NewServer: %v", err)
			}
			if _, _, err := srv.TrainRound(); err != nil {
				t.Fatalf("TrainRound: %v", err)
			}
			synth, err := srv.Synthesize(16)
			if err != nil {
				t.Fatalf("Synthesize: %v", err)
			}
			if synth.Rows() != 16 || synth.Cols() != 3 {
				t.Fatalf("synthetic shape %dx%d, want 16x3", synth.Rows(), synth.Cols())
			}
			runtime.KeepAlive(clients)
		})
	}
}

// clientsOverDroppedTables builds two clients over twoClientTables, with a
// finalizer on each table's Data that counts into freed, and returns without
// keeping the tables.
func clientsOverDroppedTables(t *testing.T, storage func(stem string) encoding.Storage, freed *atomic.Int32) []Client {
	t.Helper()
	ta, tb := twoClientTables(t, 120, 7)
	coord := NewShuffleCoordinator(99)
	clients := make([]Client, 2)
	for i, tab := range []*encoding.Table{ta, tb} {
		runtime.SetFinalizer(tab.Data, func(*tensor.Dense) { freed.Add(1) })
		c, err := NewLocalClientStored(tab, coord, int64(i+1), storage(fmt.Sprintf("client-%d", i)))
		if err != nil {
			t.Fatalf("NewLocalClientStored: %v", err)
		}
		t.Cleanup(func() { c.Close() })
		clients[i] = c
	}
	return clients
}

// awaitCollected collects garbage until want finalizers have counted into
// freed, and fails the test if they have not within about a second.
func awaitCollected(t *testing.T, freed *atomic.Int32, want int32) {
	t.Helper()
	for try := 0; try < 100; try++ {
		runtime.GC()
		if freed.Load() >= want {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("%d of %d raw tables collected: a live client still holds the rest", freed.Load(), want)
}
