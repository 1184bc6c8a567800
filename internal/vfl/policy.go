package vfl

import (
	"errors"
	"fmt"
	"io"
	"net"
	"time"
)

// ErrCallTimeout marks a protocol call that exceeded its per-call deadline.
// Timeouts are not retried: the remote side may still be processing the
// call, and replaying a stateful protocol step against a live client could
// desynchronize the round.
var ErrCallTimeout = errors.New("vfl: call timed out")

// ErrTransient marks an error as a transient transport fault that is safe
// to retry because the call never reached (or never returned from) the
// client. The tests' FaultyTransport injects it; real transports surface
// the stdlib equivalents that IsTransient also recognizes.
var ErrTransient = errors.New("vfl: transient transport error")

// IsTransient reports whether an error looks like a transport-level fault
// worth retrying: the connection dropped, reset, or was never established.
// Application-level errors (a gtvwire error frame, protocol violations)
// and deadline expiries are not transient.
func IsTransient(err error) bool {
	if err == nil || errors.Is(err, ErrCallTimeout) {
		return false
	}
	if errors.Is(err, ErrTransient) || errors.Is(err, io.EOF) ||
		errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, net.ErrClosed) {
		return true
	}
	var opErr *net.OpError
	if errors.As(err, &opErr) {
		return true
	}
	var netErr net.Error
	return errors.As(err, &netErr)
}

// CallPolicy bounds and hardens individual protocol calls. The zero value
// imposes nothing: no deadline, a single attempt — the legacy behavior.
type CallPolicy struct {
	// Timeout bounds each call attempt; 0 means wait forever.
	Timeout time.Duration
	// MaxAttempts is the total number of attempts per call, counting the
	// first; values <= 1 mean no retry. Only transient transport errors
	// (see IsTransient) are retried.
	MaxAttempts int
	// Backoff is the delay before the first retry; it doubles per retry.
	Backoff time.Duration
	// MaxBackoff caps the doubling; 0 means 2s.
	MaxBackoff time.Duration
}

func (p CallPolicy) withDefaults() CallPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 1
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 2 * time.Second
	}
	return p
}

// callWithPolicy runs one logical call under the policy: each attempt gets
// its own deadline and its own result storage (an abandoned timed-out
// attempt can never race with a retry), transient failures back off and
// retry, and the final error is wrapped with the call's description so
// round-level failures name the method and client that caused them.
// onRetry, when non-nil, runs before every retry (transports use it to
// re-establish connections).
func callWithPolicy[R any](p CallPolicy, what string, onRetry func(), do func() (R, error)) (R, error) {
	p = p.withDefaults()
	var (
		out R
		err error
	)
	backoff := p.Backoff
	for attempt := 1; ; attempt++ {
		out, err = attemptOnce(p.Timeout, do)
		if err == nil || attempt >= p.MaxAttempts || !IsTransient(err) {
			break
		}
		if onRetry != nil {
			onRetry()
		}
		if backoff > 0 {
			//lint:ignore cancelflow backoff sleeps between attempts, when no attempt deadline is pending, and is bounded by MaxBackoff; CallPolicy carries no cancellation signal to select on
			time.Sleep(backoff)
			backoff *= 2
			if backoff > p.MaxBackoff {
				backoff = p.MaxBackoff
			}
		}
	}
	if err != nil {
		var zero R
		return zero, fmt.Errorf("%s: %w", what, err)
	}
	return out, nil
}

// attemptOnce runs do with a deadline. The attempt owns its result values,
// so when the deadline fires the abandoned goroutine's late write lands in
// storage nobody reads.
func attemptOnce[R any](timeout time.Duration, do func() (R, error)) (R, error) {
	if timeout <= 0 {
		return do()
	}
	type result struct {
		v   R
		err error
	}
	ch := make(chan result, 1)
	go func() {
		v, err := do()
		ch <- result{v, err}
	}()
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case r := <-ch:
		return r.v, r.err
	case <-timer.C:
		var zero R
		return zero, fmt.Errorf("no reply within %v: %w", timeout, ErrCallTimeout)
	}
}
