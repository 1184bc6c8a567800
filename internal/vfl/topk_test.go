package vfl

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/tensor"
)

// topkServer builds a bare Server wired only for sparsifyGrad: the
// compressor reads nothing but cfg.GradTopK and the topkEF accumulators.
func topkServer(frac float64, clients int) *Server {
	return &Server{
		cfg:    Config{GradTopK: frac},
		topkEF: make([][3]*tensor.Dense, clients),
	}
}

func TestSparsifyGradKeepsTopK(t *testing.T) {
	s := topkServer(0.5, 1)
	grad := tensor.FromRows([][]float64{{1, -5, 2, 0.5, -3, 0.25}})
	out := s.sparsifyGrad(0, 0, grad)
	want := [][]float64{{0, -5, 2, 0, -3, 0}}
	if !out.Equal(tensor.FromRows(want)) {
		t.Fatalf("sparsified gradient %v, want %v", out.Data(), want)
	}
	// Everything dropped must live on in the accumulator: out + acc == grad.
	acc := s.topkEF[0][0]
	for i, g := range grad.Data() {
		if out.Data()[i]+acc.Data()[i] != g { //lint:ignore floateq exact pass-through, no arithmetic reordering
			t.Fatalf("element %d: out %v + acc %v != grad %v", i, out.Data()[i], acc.Data()[i], g)
		}
	}
}

func TestSparsifyGradErrorFeedback(t *testing.T) {
	s := topkServer(0.25, 1) // n=4 -> k=1
	out1 := s.sparsifyGrad(0, 0, tensor.FromRows([][]float64{{4, 3, 0, 0}}))
	if !out1.Equal(tensor.FromRows([][]float64{{4, 0, 0, 0}})) {
		t.Fatalf("first call sent %v", out1.Data())
	}
	// The dropped 3 rides the accumulator; the next same-direction gradient
	// pushes the sum to 6, which must beat the fresh 4 and drain the
	// residual.
	out2 := s.sparsifyGrad(0, 0, tensor.FromRows([][]float64{{4, 3, 0, 0}}))
	if !out2.Equal(tensor.FromRows([][]float64{{0, 6, 0, 0}})) {
		t.Fatalf("second call sent %v, want the accumulated 6", out2.Data())
	}
	if got := s.topkEF[0][0].Data(); got[1] != 0 || got[0] != 4 { //lint:ignore floateq exact pass-through
		t.Fatalf("accumulator after second call %v", got)
	}
}

// TestSparsifyGradTieBreakIndexOrder pins determinism at the threshold:
// equal-magnitude candidates are kept in index order, never by map or sort
// instability.
func TestSparsifyGradTieBreakIndexOrder(t *testing.T) {
	for trial := 0; trial < 3; trial++ {
		s := topkServer(0.5, 1) // n=4 -> k=2
		out := s.sparsifyGrad(0, 0, tensor.FromRows([][]float64{{1, -1, 1, 1}}))
		if !out.Equal(tensor.FromRows([][]float64{{1, -1, 0, 0}})) {
			t.Fatalf("trial %d: tie-broken output %v, want first two kept", trial, out.Data())
		}
		if acc := s.topkEF[0][0].Data(); acc[2] != 1 || acc[3] != 1 { //lint:ignore floateq exact pass-through
			t.Fatalf("trial %d: accumulator %v", trial, acc)
		}
	}
}

// TestSparsifyGradNonFinite: a NaN/Inf gradient must pass through undamped
// (the client's training loop owns that failure) and clear the residual.
func TestSparsifyGradNonFinite(t *testing.T) {
	s := topkServer(0.25, 1)
	// Seed a residual first.
	s.sparsifyGrad(0, 0, tensor.FromRows([][]float64{{4, 3, 0, 0}})).Release()
	out := s.sparsifyGrad(0, 0, tensor.FromRows([][]float64{{math.NaN(), 1, 0, 0}}))
	if !math.IsNaN(out.At(0, 0)) {
		t.Fatalf("NaN element was damped to %v", out.At(0, 0))
	}
	// The passed-through tensor includes the residual (1 + 3 = 4)...
	if out.At(0, 1) != 4 { //lint:ignore floateq exact pass-through
		t.Fatalf("residual not drained into the pass-through: %v", out.Data())
	}
	// ...and the accumulator is fully cleared.
	for i, v := range s.topkEF[0][0].Data() {
		if v != 0 { //lint:ignore floateq exact clear
			t.Fatalf("accumulator element %d survived a non-finite pass: %v", i, v)
		}
	}
}

func TestSparsifyGradOffIsIdentity(t *testing.T) {
	s := &Server{} // GradTopK off: topkEF never allocated
	grad := tensor.FromRows([][]float64{{1, 2}})
	if out := s.sparsifyGrad(0, 0, grad); out != grad {
		t.Fatal("sparsifyGrad with top-k off must return the input untouched")
	}
	if out := s.sparsifyGrad(0, 0, nil); out != nil {
		t.Fatal("nil gradient must pass through")
	}
}

func TestGradTopKConfigValidation(t *testing.T) {
	for _, bad := range []float64{-0.1, 1.01, math.Inf(1)} {
		cfg := DefaultConfig()
		cfg.GradTopK = bad
		if err := cfg.validate(); err == nil {
			t.Fatalf("GradTopK=%v validated", bad)
		}
	}
	cfg := DefaultConfig()
	cfg.GradTopK = 0.1
	if err := cfg.validate(); err != nil {
		t.Fatalf("GradTopK=0.1 rejected: %v", err)
	}
}

// TestTopKCrossTransportEquivalence trains two identically-seeded systems —
// one on in-process clients, one over gtvwire TCP loopback — and requires
// byte-identical final weights, dense and with gradient sparsification on,
// in broadcast mode and with the faithful full-table real pass. The wire
// must be invisible to the learning process, and the compressor lives in
// the Server, before any transport encoding, so the (lossy) trajectory
// must not depend on how gradients travel either.
func TestTopKCrossTransportEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("networked GAN training in -short mode")
	}
	build := func(t *testing.T, binary bool, topK float64, faithful bool) *Server {
		ta, tb := twoClientTables(t, 120, 51)
		coord := NewShuffleCoordinator(66)
		la := newLocal(t, ta, coord, 1)
		lb := newLocal(t, tb, coord, 2)
		clients := []Client{la, lb}
		if binary {
			clients = []Client{serveWire(t, la), serveWire(t, lb)}
		}
		cfg := DefaultConfig()
		cfg.Plan = Plan{DiscServer: 2, GenClient: 2}
		cfg.Rounds = 2
		cfg.DiscSteps = 2
		cfg.BatchSize = 32
		cfg.NoiseDim = 16
		cfg.BlockDim = 32
		cfg.GradTopK = topK
		cfg.FaithfulRealPass = faithful
		srv, err := NewServer(clients, cfg)
		if err != nil {
			t.Fatalf("NewServer: %v", err)
		}
		if err := srv.Train(nil); err != nil {
			t.Fatalf("Train: %v", err)
		}
		return srv
	}
	for _, topK := range []float64{0, 0.25} {
		for _, faithful := range []bool{false, true} {
			t.Run(fmt.Sprintf("topk=%v/faithful=%v", topK, faithful), func(t *testing.T) {
				local := build(t, false, topK, faithful)
				wire := build(t, true, topK, faithful)
				assertParamsEqual(t, "gTop", local.gTop, wire.gTop)
				assertParamsEqual(t, "dTop", local.dTop, wire.dTop)
				assertParamsEqual(t, "dS", local.dS, wire.dS)
			})
		}
	}
}

// TestTopKResumeByteIdentical reruns the checkpoint/resume byte-identity
// property with gradient sparsification on: the error-feedback accumulators
// are trajectory state (secSTopKEF), so a mid-run restore must continue to
// exactly the uninterrupted run's weights.
func TestTopKResumeByteIdentical(t *testing.T) {
	const fullRounds, cutAt = 4, 2
	withTopK := func(rounds int) func(*Config) {
		return func(c *Config) {
			c.Rounds = rounds
			c.GradTopK = 0.25
		}
	}

	srvFull, clientsFull := newThreeClientSystem(t, 0, withTopK(fullRounds))
	trainRounds(t, srvFull, "full")

	dir := t.TempDir()
	srvA, _ := newThreeClientSystem(t, 0, withTopK(cutAt))
	trainRounds(t, srvA, "interrupted")
	if _, err := srvA.SaveCheckpoint(dir); err != nil {
		t.Fatalf("SaveCheckpoint: %v", err)
	}

	srvB, clientsB := newThreeClientSystem(t, 0, withTopK(fullRounds))
	rounds, ok, err := srvB.RestoreLatestCheckpoint(dir)
	if err != nil {
		t.Fatalf("RestoreLatestCheckpoint: %v", err)
	}
	if !ok || rounds != cutAt {
		t.Fatalf("RestoreLatestCheckpoint = (%d, %v), want (%d, true)", rounds, ok, cutAt)
	}
	trainRounds(t, srvB, "resumed")
	assertSystemsEqual(t, srvFull, srvB, clientsFull, clientsB)

	// The sparsification fraction is part of the config fingerprint: the
	// same checkpoint must not restore into a dense (top-k off) server.
	srvC, _ := newThreeClientSystem(t, 0, func(c *Config) { c.Rounds = fullRounds })
	if _, ok, err := srvC.RestoreLatestCheckpoint(dir); err == nil && ok {
		t.Fatal("top-k checkpoint restored into a server with top-k off")
	}
}
