package vfl

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// FaultyTransport wraps a Client and injects configurable transport faults
// before each call reaches the inner client: fixed per-call delays (slow
// links), transient errors (flaky links — the call never reaches the
// client, so retrying is safe), and dropped calls that hang until released
// (dead links that trip per-call deadlines). One fault comes after the
// call instead: a lost EndRound reply, where the client did shuffle and
// the retry must not shuffle it again. It exists for the fault tolerance
// tests and benchmarks; production code never constructs one.
//
// It is the intercepted client it embeds — the Client methods and the
// byte-counter forwards are Intercept's — with around as the interceptor;
// what is declared here is the knobs. All of them are safe to adjust while
// calls are in flight.
type FaultyTransport struct {
	*intercepted

	mu       sync.Mutex
	delay    time.Duration // guarded by mu
	failures int           // guarded by mu; remaining injected errors; <0 means fail forever
	failErr  error         // guarded by mu
	drops    int           // guarded by mu; remaining calls that hang until Release
	lostEnds int           // guarded by mu; remaining EndRound calls whose reply is lost
	release  chan struct{} // guarded by mu
	released bool          // guarded by mu
	calls    int           // guarded by mu
}

var _ Client = (*FaultyTransport)(nil)

// NewFaultyTransport wraps a client with a fault-free transport; use the
// Set/Fail/Drop knobs to inject faults.
func NewFaultyTransport(inner Client) *FaultyTransport {
	f := &FaultyTransport{release: make(chan struct{})}
	f.intercepted = &intercepted{inner: inner, around: f.around}
	return f
}

// SetDelay makes every subsequent call sleep d before proceeding.
func (f *FaultyTransport) SetDelay(d time.Duration) {
	f.mu.Lock()
	f.delay = d
	f.mu.Unlock()
}

// FailNext injects a transient error into the next n calls (n < 0 means
// every call from now on). A nil err defaults to ErrTransient; the
// injected error always wraps ErrTransient so retry policies classify it
// correctly.
func (f *FaultyTransport) FailNext(n int, err error) {
	f.mu.Lock()
	f.failures = n
	f.failErr = err
	f.mu.Unlock()
}

// DropNext makes the next n calls hang until Release is called, then fail
// with a transient error — the shape of a dead peer whose TCP connection
// is still open.
func (f *FaultyTransport) DropNext(n int) {
	f.mu.Lock()
	f.drops = n
	f.mu.Unlock()
}

// LoseEndRoundReplies makes the next n EndRound calls reach the client and
// take effect there, then fail with a transient error as if the reply had
// been lost on the way back — the one fault a retry cannot tell from a
// call that never arrived.
func (f *FaultyTransport) LoseEndRoundReplies(n int) {
	f.mu.Lock()
	f.lostEnds = n
	f.mu.Unlock()
}

// Release unblocks all dropped and delayed calls, present and future:
// dropped calls fail with a transient error, delayed calls proceed to the
// inner client immediately. Tests call it in cleanup so leaked attempt
// goroutines exit promptly instead of sitting out their injected latency.
func (f *FaultyTransport) Release() {
	f.mu.Lock()
	if !f.released {
		f.released = true
		close(f.release)
	}
	f.mu.Unlock()
}

// Calls returns how many calls reached the transport (including faulted
// ones).
func (f *FaultyTransport) Calls() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls
}

// before applies the configured faults for one call; a non-nil return
// means the call must not reach the inner client.
func (f *FaultyTransport) before(method string) error {
	f.mu.Lock()
	f.calls++
	delay := f.delay
	var failErr error
	if f.failures != 0 {
		if f.failures > 0 {
			f.failures--
		}
		failErr = f.failErr
		if failErr == nil {
			failErr = ErrTransient
		}
	}
	drop := false
	if failErr == nil && f.drops > 0 {
		f.drops--
		drop = true
	}
	release := f.release
	f.mu.Unlock()

	if delay > 0 {
		// The delay races the release signal, so a test tearing down does
		// not sit out the full configured latency of every in-flight call.
		t := time.NewTimer(delay)
		select {
		case <-t.C:
		case <-release:
			t.Stop()
		}
	}
	if failErr != nil {
		if errors.Is(failErr, ErrTransient) {
			return fmt.Errorf("injected fault in %s: %w", method, failErr)
		}
		return fmt.Errorf("injected fault in %s: %w (%w)", method, failErr, ErrTransient)
	}
	if drop {
		<-release
		return fmt.Errorf("dropped call %s: %w", method, ErrTransient)
	}
	return nil
}

// around is the transport's Interceptor: the configured faults, then the
// call, then the one fault that comes after it.
func (f *FaultyTransport) around(method string, call func() (any, error)) (any, error) {
	if err := f.before(method); err != nil {
		return nil, err
	}
	out, err := call()
	if method != "EndRound" || err != nil {
		return out, err
	}
	f.mu.Lock()
	lost := f.lostEnds > 0
	if lost {
		f.lostEnds--
	}
	f.mu.Unlock()
	if lost {
		return nil, fmt.Errorf("lost reply of EndRound: %w", ErrTransient)
	}
	return out, nil
}

// WithPolicy wraps a client so every call observes the policy's deadline
// and transient-error retry — what WireClient applies to its own calls —
// for any other Client: stacked on a FaultyTransport, it exercises the
// retry, deadline and cancellation paths without a network. name labels
// the client in error messages.
func WithPolicy(inner Client, name string, p CallPolicy) Client {
	return Intercept(inner, func(method string, call func() (any, error)) (any, error) {
		return callWithPolicy(p, fmt.Sprintf("%s on client %s", method, name), nil, call)
	})
}
