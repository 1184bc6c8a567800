package vfl

import (
	"testing"
)

func TestCommStatsZero(t *testing.T) {
	var c CommStats
	if c.Total() != 0 || c.PerRound() != 0 {
		t.Fatalf("zero stats: %+v", c)
	}
}

func TestCommStatsArithmetic(t *testing.T) {
	c := CommStats{
		GenSlicesSent:      100,
		DiscLogitsReceived: 200,
		GradsSent:          300,
		SliceGradsReceived: 50,
		CVBytes:            25,
		Rounds:             5,
	}
	if c.Total() != 675 {
		t.Fatalf("Total = %d", c.Total())
	}
	if c.PerRound() != 135 {
		t.Fatalf("PerRound = %v", c.PerRound())
	}
	if c.String() == "" {
		t.Fatal("String must render")
	}
}

func TestServerTracksCommunication(t *testing.T) {
	if testing.Short() {
		t.Skip("GAN training in -short mode")
	}
	srv, _ := newTestSystem(t, Plan{DiscServer: 2, GenClient: 2}, 150, false)
	if _, _, err := srv.TrainRound(); err != nil {
		t.Fatalf("TrainRound: %v", err)
	}
	stats := srv.CommStats()
	if stats.Rounds != 1 {
		t.Fatalf("Rounds = %d", stats.Rounds)
	}
	// Every category must be populated after a full round.
	if stats.GenSlicesSent == 0 || stats.DiscLogitsReceived == 0 ||
		stats.GradsSent == 0 || stats.SliceGradsReceived == 0 || stats.CVBytes == 0 {
		t.Fatalf("missing traffic categories: %s", stats)
	}
	// Generator boundary traffic per step: batch x GenBlockDim elements
	// down plus the same back as gradients. DiscSteps+1 downstream passes
	// happen per round (critic steps + generator step).
	batchBytes := int64(64 * 64 * 8) // batch x GenBlockDim x 8
	wantSlices := batchBytes * int64(srv.cfg.DiscSteps+1)
	if stats.GenSlicesSent != wantSlices {
		t.Fatalf("GenSlicesSent = %d want %d", stats.GenSlicesSent, wantSlices)
	}
	if stats.SliceGradsReceived != batchBytes {
		t.Fatalf("SliceGradsReceived = %d want %d", stats.SliceGradsReceived, batchBytes)
	}
}

func TestEnlargedGeneratorCostsMoreTraffic(t *testing.T) {
	if testing.Short() {
		t.Skip("GAN training in -short mode")
	}
	run := func(genBlockDim int) CommStats {
		ta, tb := twoClientTables(t, 150, 7)
		coord := NewShuffleCoordinator(99)
		ca := newLocal(t, ta, coord, 1)
		cb := newLocal(t, tb, coord, 2)
		cfg := DefaultConfig()
		cfg.Plan = Plan{DiscServer: 2, GenClient: 2}
		cfg.Rounds = 1
		cfg.DiscSteps = 1
		cfg.BatchSize = 32
		cfg.NoiseDim = 16
		cfg.BlockDim = 32
		cfg.GenBlockDim = genBlockDim
		srv, err := NewServer([]Client{ca, cb}, cfg)
		if err != nil {
			t.Fatalf("NewServer: %v", err)
		}
		if _, _, err := srv.TrainRound(); err != nil {
			t.Fatalf("TrainRound: %v", err)
		}
		return srv.CommStats()
	}
	defaultStats := run(32)
	enlargedStats := run(96)
	if enlargedStats.GenSlicesSent != 3*defaultStats.GenSlicesSent {
		t.Fatalf("enlarged generator boundary traffic %d, want 3x default %d",
			enlargedStats.GenSlicesSent, defaultStats.GenSlicesSent)
	}
}

func TestFaithfulModeCostsMoreTraffic(t *testing.T) {
	if testing.Short() {
		t.Skip("GAN training in -short mode")
	}
	// The paper's index-privacy design pushes ALL client rows through
	// D_i^b; the broadcast alternative only the batch. Traffic must
	// reflect that.
	srvBroadcast, _ := newTestSystem(t, Plan{DiscServer: 2, GenClient: 2}, 150, false)
	srvFaithful, _ := newTestSystem(t, Plan{DiscServer: 2, GenClient: 2}, 150, true)
	if _, _, err := srvBroadcast.TrainRound(); err != nil {
		t.Fatalf("TrainRound broadcast: %v", err)
	}
	if _, _, err := srvFaithful.TrainRound(); err != nil {
		t.Fatalf("TrainRound faithful: %v", err)
	}
	b := srvBroadcast.CommStats()
	f := srvFaithful.CommStats()
	if f.DiscLogitsReceived <= b.DiscLogitsReceived {
		t.Fatalf("faithful logits %d should exceed broadcast %d",
			f.DiscLogitsReceived, b.DiscLogitsReceived)
	}
	if f.GradsSent <= b.GradsSent {
		t.Fatalf("faithful grads %d should exceed broadcast %d", f.GradsSent, b.GradsSent)
	}
}
