package core

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"os"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"repro/internal/encoding"
	"repro/internal/snap"
	"repro/internal/vfl"
)

// assemblyTables returns a small two-client split of one loan table;
// every call makes fresh tables.
func assemblyTables(t *testing.T) (*encoding.Table, []*encoding.Table) {
	t.Helper()
	table, assignment := loanSplit(t, 120, 13, 2)
	tables, err := table.VerticalSplit(assignment, 2)
	if err != nil {
		t.Fatalf("VerticalSplit: %v", err)
	}
	return table, tables
}

func assemblyOptions() Options {
	opts := DefaultOptions()
	opts.Rounds = 3
	opts.DiscSteps = 1
	opts.BlockDim = 16
	opts.NoiseDim = 8
	opts.BatchSize = 16
	return opts
}

// serveClients stands in for one gtv-client process per table: a NewClient
// client with a shuffle coordinator of its own, served over gtvwire on a
// loopback listener the test owns. It returns the addresses in client
// order; cleanup closes the listeners, waits for the serve loops and
// closes the clients.
func serveClients(t *testing.T, tables []*encoding.Table, opts Options) []string {
	t.Helper()
	addrs := make([]string, len(tables))
	for i, tbl := range tables {
		c, err := NewClient(tbl, i, vfl.NewShuffleCoordinator(opts.ShuffleSecret), opts)
		if err != nil {
			t.Fatalf("NewClient(%d): %v", i, err)
		}
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listener %d: %v", i, err)
		}
		served := make(chan error, 1)
		go func() { served <- vfl.ServeClientWire(lis, c) }()
		t.Cleanup(func() {
			lis.Close()
			if err := <-served; err != nil {
				t.Errorf("client %d serve loop: %v", i, err)
			}
			c.Close()
		})
		addrs[i] = lis.Addr().String()
	}
	return addrs
}

// TestDialMatchesLoopback: a federation Dial builds over clients served
// apart from it, as gtv-server drives gtv-client processes, trains and
// synthesizes byte for byte as New with the binary transport on the same
// tables and options, in both index-privacy modes.
func TestDialMatchesLoopback(t *testing.T) {
	if testing.Short() {
		t.Skip("GAN training in -short mode")
	}
	for _, faithful := range []bool{false, true} {
		t.Run(fmt.Sprintf("faithful=%v", faithful), func(t *testing.T) {
			opts := assemblyOptions()
			opts.FaithfulRealPass = faithful
			run := func(build func(Options, []*encoding.Table) (*GTV, error)) ([]byte, []uint64) {
				t.Helper()
				_, tables := assemblyTables(t)
				o := opts
				o.CheckpointDir = t.TempDir()
				g, err := build(o, tables)
				if err != nil {
					t.Fatalf("build: %v", err)
				}
				defer g.Close()
				if err := g.Train(nil); err != nil {
					t.Fatalf("Train: %v", err)
				}
				ckpt, err := os.ReadFile(snap.CheckpointPath(o.CheckpointDir, o.Rounds))
				if err != nil {
					t.Fatal(err)
				}
				synth, err := g.Synthesize(40)
				if err != nil {
					t.Fatalf("Synthesize: %v", err)
				}
				return ckpt, synthBits(t, synth)
			}
			wantCkpt, wantSynth := run(func(o Options, tables []*encoding.Table) (*GTV, error) {
				o.Transport = "binary"
				return New(tables, o)
			})
			gotCkpt, gotSynth := run(func(o Options, tables []*encoding.Table) (*GTV, error) {
				return Dial(serveClients(t, tables, o), o)
			})
			sameCheckpoint(t, "Dial vs New(binary)", wantCkpt, gotCkpt)
			sameBits(t, "Dial vs New(binary)", wantSynth, gotSynth)
		})
	}
}

// TestLoopbackServeLoopsCarryServeLabel: New's loopback serve loops, and
// the connections they serve, run under the profile label phase=serve
// whatever label New was called under, so that a CPU profile splits the
// clients' side of the rounds from the server's.
func TestLoopbackServeLoopsCarryServeLabel(t *testing.T) {
	// serving returns the goroutine profile's records of goroutines in the
	// serve loops or the connections they serve.
	serving := func() []string {
		var buf bytes.Buffer
		if err := pprof.Lookup("goroutine").WriteTo(&buf, 1); err != nil {
			t.Fatal(err)
		}
		var recs []string
		for _, rec := range strings.Split(buf.String(), "\n\n") {
			if strings.Contains(rec, "vfl.ServeClientWire") {
				recs = append(recs, rec)
			}
		}
		return recs
	}
	_, tables := assemblyTables(t)
	opts := assemblyOptions()
	opts.Transport = "binary"
	var g *GTV
	var err error
	pprof.Do(context.Background(), pprof.Labels("phase", "setup"), func(context.Context) { g, err = New(tables, opts) })
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	recs := serving()
	if len(recs) == 0 {
		t.Error("no goroutine in vfl.ServeClientWire")
	}
	for _, rec := range recs {
		if !strings.Contains(rec, `# labels: {"phase":"serve"}`) {
			t.Errorf("a serve goroutine without the serve label:\n%s", rec)
		}
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	// The serve loops end after Close returns; wait for them, so that no
	// descriptor of this test closes while a later one counts its own.
	for deadline := time.Now().Add(5 * time.Second); len(serving()) > 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("serve loops still running 5 s after Close")
		}
	}
}

// TestNewClosesBuiltClientsOnFailure: when client i cannot be built, the
// clients before it are closed, not left holding their .enc.gtvcol files.
func TestNewClosesBuiltClientsOnFailure(t *testing.T) {
	openFDs := func() int {
		entries, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skipf("cannot count open files: %v", err)
		}
		return len(entries)
	}
	_, tables := assemblyTables(t)
	tables[1] = tables[1].SliceRows(0, 0)
	opts := assemblyOptions()
	opts.DataDir = t.TempDir()
	openFDs() // the first read may set up the runtime's poller
	before := openFDs()
	if _, err := New(tables, opts); err == nil || !strings.Contains(err.Error(), "client 1") {
		t.Fatalf("New with an empty second table: %v, want a client 1 error", err)
	}
	if after := openFDs(); after != before {
		t.Fatalf("New failed with %d more open files than before it", after-before)
	}
}

// TestResumeNeedsCheckpointDir: Resume without a CheckpointDir is refused
// by every constructor, naming both options, instead of training from
// scratch.
func TestResumeNeedsCheckpointDir(t *testing.T) {
	opts := assemblyOptions()
	opts.Resume = true
	for _, tc := range []struct {
		name  string
		build func() (interface{ Close() error }, error)
	}{
		{"New", func() (interface{ Close() error }, error) {
			_, tables := assemblyTables(t)
			return New(tables, opts)
		}},
		{"NewCentralized", func() (interface{ Close() error }, error) {
			table, _ := assemblyTables(t)
			return NewCentralized(table, opts)
		}},
		{"Dial", func() (interface{ Close() error }, error) {
			_, tables := assemblyTables(t)
			return Dial(serveClients(t, tables, opts), opts)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := tc.build()
			if err == nil {
				m.Close()
				t.Fatal("built with Resume and no CheckpointDir")
			}
			if !strings.Contains(err.Error(), "Resume") || !strings.Contains(err.Error(), "CheckpointDir") {
				t.Fatalf("error %q does not name Resume and CheckpointDir", err)
			}
		})
	}
}
