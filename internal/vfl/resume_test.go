package vfl

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/encoding"
	"repro/internal/snap/snaptest"
)

// trainRounds drives a system for its configured number of rounds.
func trainRounds(t *testing.T, s *Server, label string) {
	t.Helper()
	if err := s.Train(nil); err != nil {
		t.Fatalf("Train(%s): %v", label, err)
	}
}

// synthCSVBytes renders a synthesis run to CSV bytes for exact comparison.
// Synthesis consumes the server and client RNG streams and reads the
// BatchNorm running statistics, none of which a weight comparison covers.
func synthCSVBytes(t *testing.T, s *Server, label string, n int) []byte {
	t.Helper()
	tbl, err := s.Synthesize(n)
	if err != nil {
		t.Fatalf("Synthesize(%s): %v", label, err)
	}
	var buf bytes.Buffer
	if err := encoding.WriteCSV(&buf, tbl); err != nil {
		t.Fatalf("WriteCSV(%s): %v", label, err)
	}
	return buf.Bytes()
}

// assertSystemsEqual compares every model of two federations exactly:
// the server's top models and each client's bottom models.
func assertSystemsEqual(t *testing.T, a, b *Server, ca, cb []*LocalClient) {
	t.Helper()
	assertParamsEqual(t, "gTop", a.gTop, b.gTop)
	assertParamsEqual(t, "dTop", a.dTop, b.dTop)
	assertParamsEqual(t, "dS", a.dS, b.dS)
	for i := range ca {
		assertParamsEqual(t, "client gen", ca[i].gen, cb[i].gen)
		assertParamsEqual(t, "client disc", ca[i].disc, cb[i].disc)
	}
}

// TestResumeReplayByteIdentical kills federated training at round k,
// checkpoints the whole federation (server state plus per-client blobs
// fetched over the Client interface), restores it into a freshly built
// same-seed federation, trains to completion, and requires the final
// weights of every party and the CommStats accounting to equal an
// uninterrupted same-seed run exactly. This is the strongest statement the
// snapshot format can make: nothing the trajectory depends on — RNG
// streams, Adam moments, shuffle progress, round counters — escaped it.
func TestResumeReplayByteIdentical(t *testing.T) {
	const fullRounds, cutAt = 4, 2

	srvFull, clientsFull := newThreeClientSystem(t, 0, func(c *Config) { c.Rounds = fullRounds })
	trainRounds(t, srvFull, "full")
	wantStats := srvFull.CommStats()

	// Interrupted run: train to the cut point and checkpoint to disk.
	dir := t.TempDir()
	srvA, _ := newThreeClientSystem(t, 0, func(c *Config) { c.Rounds = cutAt })
	trainRounds(t, srvA, "interrupted")
	if _, err := srvA.SaveCheckpoint(dir); err != nil {
		t.Fatalf("SaveCheckpoint: %v", err)
	}

	// Fresh same-seed federation, restored from disk, trained to the end.
	srvB, clientsB := newThreeClientSystem(t, 0, func(c *Config) { c.Rounds = fullRounds })
	rounds, ok, err := srvB.RestoreLatestCheckpoint(dir)
	if err != nil {
		t.Fatalf("RestoreLatestCheckpoint: %v", err)
	}
	if !ok || rounds != cutAt {
		t.Fatalf("RestoreLatestCheckpoint = (%d, %v), want (%d, true)", rounds, ok, cutAt)
	}
	trainRounds(t, srvB, "resumed")

	assertSystemsEqual(t, srvFull, srvB, clientsFull, clientsB)
	if gotStats := srvB.CommStats(); gotStats != wantStats {
		t.Fatalf("resumed CommStats %v differ from uninterrupted %v", gotStats, wantStats)
	}
	if srvB.Rounds() != fullRounds {
		t.Fatalf("resumed round counter %d, want %d", srvB.Rounds(), fullRounds)
	}
	wantSynth := synthCSVBytes(t, srvFull, "full", 40)
	if gotSynth := synthCSVBytes(t, srvB, "resumed", 40); !bytes.Equal(gotSynth, wantSynth) {
		t.Fatal("resumed federation synthesizes different data than uninterrupted same-seed run")
	}
}

// TestResumeReplayParallelismIndependent checkpoints under sequential
// fan-out and resumes under full concurrency: Parallelism is excluded
// from the fingerprint because training is bit-identical across fan-out
// bounds, and resume must preserve that.
func TestResumeReplayParallelismIndependent(t *testing.T) {
	const fullRounds, cutAt = 3, 1

	srvFull, clientsFull := newThreeClientSystem(t, 1, func(c *Config) { c.Rounds = fullRounds })
	trainRounds(t, srvFull, "full")

	dir := t.TempDir()
	srvA, _ := newThreeClientSystem(t, 1, func(c *Config) { c.Rounds = cutAt })
	trainRounds(t, srvA, "interrupted")
	if _, err := srvA.SaveCheckpoint(dir); err != nil {
		t.Fatalf("SaveCheckpoint: %v", err)
	}

	srvB, clientsB := newThreeClientSystem(t, 0, func(c *Config) { c.Rounds = fullRounds })
	if _, ok, err := srvB.RestoreLatestCheckpoint(dir); err != nil || !ok {
		t.Fatalf("RestoreLatestCheckpoint = (ok %v, err %v)", ok, err)
	}
	trainRounds(t, srvB, "resumed")
	assertSystemsEqual(t, srvFull, srvB, clientsFull, clientsB)
}

// TestSnapshotOverWire round-trips the new Snapshot/Restore methods
// through the gtvwire binary transport: the blob fetched over the wire is
// byte-equal to the one taken in-process, and restoring through the proxy
// reinstates the remote client's state (weights, publication count and
// replayed row order). The origin synthesizes once before the snapshot, so
// the publication count it carries is not the fresh client's zero.
func TestSnapshotOverWire(t *testing.T) {
	srv, locals := newThreeClientSystem(t, 0, func(c *Config) { c.Rounds = 1 })
	trainRounds(t, srv, "origin")
	synthCSVBytes(t, srv, "origin", 8)

	direct, err := locals[0].Snapshot()
	if err != nil {
		t.Fatalf("Snapshot(direct): %v", err)
	}
	viaWire, err := serveWire(t, locals[0]).Snapshot()
	if err != nil {
		t.Fatalf("Snapshot(wire): %v", err)
	}
	if !bytes.Equal(direct, viaWire) {
		t.Fatal("wire-fetched snapshot blob differs from the in-process one")
	}

	// A fresh same-seed federation; restore client 0's blob through the
	// wire and compare the reinstated state against the original.
	_, fresh := newThreeClientSystem(t, 0, func(c *Config) { c.Rounds = 1 })
	if err := serveWire(t, fresh[0]).Restore(viaWire); err != nil {
		t.Fatalf("Restore(wire): %v", err)
	}
	assertParamsEqual(t, "restored gen", locals[0].gen, fresh[0].gen)
	assertParamsEqual(t, "restored disc", locals[0].disc, fresh[0].disc)
	if got, want := fresh[0].pubCount, locals[0].pubCount; got != want || want == 0 {
		t.Fatalf("restored publication count %d, want the origin's %d (> 0)", got, want)
	}
	raw := threeClientTables(t, 120, 17)[0] // the table newThreeClientSystem gives client 0
	a, b := OrderedTable(locals[0], raw).Data, OrderedTable(fresh[0], raw).Data
	if a.Rows() != b.Rows() || a.Cols() != b.Cols() {
		t.Fatalf("restored table shape %dx%d, want %dx%d", b.Rows(), b.Cols(), a.Rows(), a.Cols())
	}
	for i := 0; i < a.Rows(); i++ {
		for j := 0; j < a.Cols(); j++ {
			if a.At(i, j) != b.At(i, j) { //lint:ignore floateq replayed row order must match bit-exactly
				t.Fatalf("restored table differs at (%d,%d)", i, j)
			}
		}
	}
}

// TestRestoreRejectsMismatch pins the guard rails: a client blob cannot
// restore into a server slot, a blob from a client of another layout is
// refused by the widths it records (before any weight is read), and a
// client that has already trained refuses restoration (the shuffle replay
// would double-apply).
func TestRestoreRejectsMismatch(t *testing.T) {
	srv, locals := newThreeClientSystem(t, 0, func(c *Config) { c.Rounds = 1 })
	trainRounds(t, srv, "origin")

	blob, err := locals[0].Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	srvData, err := srv.Snapshot()
	if err != nil {
		t.Fatalf("server Snapshot: %v", err)
	}

	if err := srv.Restore(blob); err == nil {
		t.Fatal("server Restore accepted a client blob")
	}
	_, fresh := newThreeClientSystem(t, 0, func(c *Config) { c.Rounds = 1 })
	if err := fresh[0].Restore(srvData); err == nil {
		t.Fatal("client Restore accepted a server snapshot")
	}
	// Clients 0 and 1 differ in both the data width and the slice width.
	other, err := locals[1].Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	want := fmt.Sprintf("checkpoint widths %d/%d do not match configured %d/%d",
		locals[1].transformer.Width(), locals[1].setup.SliceWidth, fresh[0].transformer.Width(), fresh[0].setup.SliceWidth)
	if err := fresh[0].Restore(other); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("client 0 Restore of client 1's blob = %v, want an error containing %q", err, want)
	}
	if err := locals[0].Restore(blob); err == nil {
		t.Fatal("Restore accepted a client that has already trained")
	}
}

// TestRestoreRejectsHostileImages damages a trained federation's server
// snapshot and one client's blob every way internal/snap/snaptest knows —
// truncation at and between section boundaries, every count and dimension
// maxed out behind a valid CRC, every fingerprint value changed — and
// requires Restore into a fresh same-seed federation to refuse each image
// cheaply, naming the fingerprint field when that is what differs. The
// client blob is the case that matters most: it is the one image a peer
// hands the server and the server hands back.
func TestRestoreRejectsHostileImages(t *testing.T) {
	// Top-k on, so the error-feedback section holds matrices.
	mutate := func(c *Config) { c.Rounds = 1; c.GradTopK = 0.25 }
	srv, locals := newThreeClientSystem(t, 0, mutate)
	trainRounds(t, srv, "origin")

	blob, err := locals[1].Snapshot()
	if err != nil {
		t.Fatalf("client Snapshot: %v", err)
	}
	snaptest.Hostile(t, blob, map[byte]func(*snaptest.Walker){
		secLMeta:     (*snaptest.Walker).Rest,
		secLRNG:      (*snaptest.Walker).RNG,
		secLModelRNG: (*snaptest.Walker).RNG,
		secLGen:      (*snaptest.Walker).Params,
		secLDisc:     (*snaptest.Walker).Params,
		secLGenOpt:   (*snaptest.Walker).Adam,
		secLDiscOpt:  (*snaptest.Walker).Adam,
	}, func() func([]byte) error {
		_, fresh := newThreeClientSystem(t, 0, mutate)
		return fresh[1].Restore
	})

	image, err := srv.Snapshot()
	if err != nil {
		t.Fatalf("server Snapshot: %v", err)
	}
	fresh := func() func([]byte) error {
		s, _ := newThreeClientSystem(t, 0, mutate)
		return s.Restore
	}
	snaptest.Hostile(t, image, map[byte]func(*snaptest.Walker){
		secSMeta:     (*snaptest.Walker).Rest,
		secSRNG:      (*snaptest.Walker).RNG,
		secSModelRNG: (*snaptest.Walker).RNG,
		secSGTop:     (*snaptest.Walker).Params,
		secSDTop:     (*snaptest.Walker).Params,
		secSDS:       func(w *snaptest.Walker) { w.Skip(1); w.Params() },
		secSGOpt:     (*snaptest.Walker).Adam,
		secSDOpt:     (*snaptest.Walker).Adam,
		secSComm:     func(w *snaptest.Walker) { w.Skip(7 * 8); w.Skip(8 * int(w.U32())) },
		secSTopKEF: func(w *snaptest.Walker) {
			for n := w.U32(); n > 0; n-- {
				w.Matrix()
				w.Matrix()
				w.Matrix()
			}
		},
		// The blob inside is a client image of its own, damaged above.
		secSClient: func(w *snaptest.Walker) { w.U32(); w.Skip(int(w.U32())) },
	}, fresh)
	// The meta section is round, rows, CV width, client count, then the
	// fingerprint.
	snaptest.Fingerprint(t, image, secSMeta, 4*8, srv.cfg.fingerprint(), fresh)
}
