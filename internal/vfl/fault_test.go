package vfl

import (
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"
)

// newFaultySystem builds a 2-client system where client B sits behind a
// FaultyTransport wrapped in a retry/deadline policy, mirroring the stack a
// real deployment gets from WireClient. Faults are injected after setup so
// NewServer's Info/Configure round-trips stay clean.
func newFaultySystem(t *testing.T, policy CallPolicy) (*Server, *FaultyTransport) {
	t.Helper()
	ta, tb := twoClientTables(t, 80, 7)
	coord := NewShuffleCoordinator(99)
	ca := newLocal(t, ta, coord, 1)
	cb := newLocal(t, tb, coord, 2)
	faulty := NewFaultyTransport(cb)
	t.Cleanup(faulty.Release)
	cfg := DefaultConfig()
	cfg.Plan = Plan{DiscServer: 2, GenClient: 2}
	cfg.Rounds = 1
	cfg.DiscSteps = 1
	cfg.BatchSize = 16
	cfg.NoiseDim = 8
	cfg.BlockDim = 24
	srv, err := NewServer([]Client{ca, WithPolicy(faulty, "B", policy)}, cfg)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	return srv, faulty
}

// TestRetryRecoversFromTransientFaults proves the round survives a flaky
// link: two consecutive transient failures on client B are retried and the
// round completes — with exactly the same weights as a fault-free run,
// because failed calls never reach the client.
func TestRetryRecoversFromTransientFaults(t *testing.T) {
	policy := CallPolicy{MaxAttempts: 3, Backoff: time.Millisecond}
	srv, faulty := newFaultySystem(t, policy)
	clean, _ := newFaultySystem(t, policy)

	faulty.FailNext(2, nil)
	if _, _, err := srv.TrainRound(); err != nil {
		t.Fatalf("TrainRound with 2 transient faults and 3 attempts: %v", err)
	}
	if _, _, err := clean.TrainRound(); err != nil {
		t.Fatalf("fault-free TrainRound: %v", err)
	}
	assertParamsEqual(t, "D^t after retried round", srv.dTop, clean.dTop)
	assertParamsEqual(t, "G^t after retried round", srv.gTop, clean.gTop)
	if faulty.Calls() == 0 {
		t.Fatal("fault injector never saw a call")
	}
}

// TestDeadClientFailsRoundInBoundedTime proves a permanently-failing client
// cannot hang training: retries exhaust, and the round fails quickly with
// an error naming the method and client.
func TestDeadClientFailsRoundInBoundedTime(t *testing.T) {
	srv, faulty := newFaultySystem(t, CallPolicy{
		Timeout:     2 * time.Second,
		MaxAttempts: 2,
		Backoff:     time.Millisecond,
	})
	faulty.FailNext(-1, errors.New("connection reset by peer"))
	start := time.Now()
	_, _, err := srv.TrainRound()
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("expected round failure with a dead client")
	}
	if !errors.Is(err, ErrTransient) {
		t.Fatalf("error should carry the transport cause: %v", err)
	}
	if !strings.Contains(err.Error(), "client B") {
		t.Fatalf("error should name the failing client: %v", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("dead client stalled the round for %v", elapsed)
	}
}

// TestDroppedCallTripsDeadline proves the per-call deadline: a call that
// hangs (dead peer, connection still open) fails with ErrCallTimeout within
// the budget, and timeouts are deliberately not retried — the hanging
// client may still be processing, so the round must fail rather than
// replay.
func TestDroppedCallTripsDeadline(t *testing.T) {
	srv, faulty := newFaultySystem(t, CallPolicy{
		Timeout:     100 * time.Millisecond,
		MaxAttempts: 3, // would succeed if timeouts were (wrongly) retried
		Backoff:     time.Millisecond,
	})
	faulty.DropNext(1)
	start := time.Now()
	_, _, err := srv.TrainRound()
	elapsed := time.Since(start)
	if !errors.Is(err, ErrCallTimeout) {
		t.Fatalf("want ErrCallTimeout, got: %v", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("deadline expiry took %v for a 100ms budget", elapsed)
	}
}

// TestPolicyDoesNotRetryApplicationErrors: protocol-level errors come from
// a healthy transport, so retrying them would just repeat the failure (or
// worse, repeat a side effect). Exactly one attempt must reach the client.
func TestPolicyDoesNotRetryApplicationErrors(t *testing.T) {
	ta, _ := twoClientTables(t, 50, 3)
	lc := newLocal(t, ta, NewShuffleCoordinator(1), 1)
	faulty := NewFaultyTransport(lc)
	c := WithPolicy(faulty, "A", CallPolicy{MaxAttempts: 5, Backoff: time.Millisecond})
	if _, err := c.Publish(); err == nil {
		t.Fatal("Publish before training must fail")
	}
	if got := faulty.Calls(); got != 1 {
		t.Fatalf("application error was attempted %d times, want 1", got)
	}
}

func TestIsTransientTaxonomy(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"timeout", ErrCallTimeout, false},
		{"wrapped timeout", errors.Join(errors.New("ctx"), ErrCallTimeout), false},
		{"sentinel", ErrTransient, true},
		{"eof", io.EOF, true},
		{"unexpected eof", io.ErrUnexpectedEOF, true},
		{"net closed", net.ErrClosed, true},
		{"op error", &net.OpError{Op: "dial", Err: errors.New("refused")}, true},
		{"application", errors.New("vfl: backward before forward"), false},
	}
	for _, tc := range cases {
		if got := IsTransient(tc.err); got != tc.want {
			t.Errorf("IsTransient(%s) = %v want %v", tc.name, got, tc.want)
		}
	}
}
