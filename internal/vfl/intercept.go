package vfl

import (
	"repro/internal/condvec"
	"repro/internal/encoding"
	"repro/internal/tensor"
)

// Interceptor runs around one protocol call. method is the Client method's
// name (the same labels WireMethodLabel gives the wire ids); call performs
// the call on the wrapped client and returns its result boxed — nil for
// the methods that return only an error. An interceptor may skip call
// (fault injection), run it more than once (retry) or rewrite what it
// returned (the hostile-client tests), and it may abandon a call that is
// still running (deadline): every run of call returns a box of its own, so
// a late attempt has nowhere to write that a later one reads.
type Interceptor func(method string, call func() (any, error)) (any, error)

// Intercept wraps inner so that every one of its protocol calls funnels
// through around. It is the one Client decorator: the tests' WithPolicy and
// FaultyTransport are each an Interceptor over it, and timing, tracing or
// counting a federation's calls is one more.
//
//lint:ignore deadcode the Client decorator the hostile-reply, policy and fault tests are built on
func Intercept(inner Client, around Interceptor) Client {
	return &intercepted{inner: inner, around: around}
}

// intercepted is the Client Intercept returns.
type intercepted struct {
	inner  Client
	around Interceptor
}

var _ Client = (*intercepted)(nil)

// via runs a result-returning call through c's interceptor and unboxes
// what came back; a nil box (the interceptor failed the call itself) is
// R's zero value.
func via[R any](c *intercepted, method string, call func() (R, error)) (R, error) {
	v, err := c.around(method, func() (any, error) { return call() })
	out, _ := v.(R)
	return out, err
}

// errVia is via for the methods that return only an error.
func (c *intercepted) errVia(method string, call func() error) error {
	_, err := c.around(method, func() (any, error) { return nil, call() })
	return err
}

func (c *intercepted) Info() (ClientInfo, error) {
	return via(c, "Info", c.inner.Info)
}

func (c *intercepted) Configure(s Setup) error {
	return c.errVia("Configure", func() error { return c.inner.Configure(s) })
}

func (c *intercepted) SampleCV(batch int, synthesis bool) (*condvec.Batch, error) {
	return via(c, "SampleCV", func() (*condvec.Batch, error) { return c.inner.SampleCV(batch, synthesis) })
}

func (c *intercepted) SampleCVFixed(batch, spanIdx, category int) (*condvec.Batch, error) {
	return via(c, "SampleCVFixed", func() (*condvec.Batch, error) {
		return c.inner.SampleCVFixed(batch, spanIdx, category)
	})
}

//shape:in(B,W) out(B,K)
func (c *intercepted) ForwardSynthetic(slice *tensor.Dense, phase Phase) (*tensor.Dense, error) {
	return via(c, "ForwardSynthetic", func() (*tensor.Dense, error) { return c.inner.ForwardSynthetic(slice, phase) })
}

//shape:out(R,K)
func (c *intercepted) ForwardReal(idx []int) (*tensor.Dense, error) {
	return via(c, "ForwardReal", func() (*tensor.Dense, error) { return c.inner.ForwardReal(idx) })
}

//shape:in(Bs,K) in(Br,K2)
func (c *intercepted) BackwardDisc(gradSynth, gradReal *tensor.Dense) error {
	return c.errVia("BackwardDisc", func() error { return c.inner.BackwardDisc(gradSynth, gradReal) })
}

//shape:in(B,K) out(B,W)
func (c *intercepted) BackwardGen(gradSynth *tensor.Dense, conditioned bool) (*tensor.Dense, error) {
	return via(c, "BackwardGen", func() (*tensor.Dense, error) { return c.inner.BackwardGen(gradSynth, conditioned) })
}

func (c *intercepted) EndRound(round int) error {
	return c.errVia("EndRound", func() error { return c.inner.EndRound(round) })
}

//shape:in(B,W)
func (c *intercepted) GenerateRows(slice *tensor.Dense) error {
	return c.errVia("GenerateRows", func() error { return c.inner.GenerateRows(slice) })
}

func (c *intercepted) Publish() (*encoding.Table, error) {
	return via(c, "Publish", c.inner.Publish)
}

func (c *intercepted) Snapshot() ([]byte, error) {
	return via(c, "Snapshot", c.inner.Snapshot)
}

func (c *intercepted) Restore(state []byte) error {
	return c.errVia("Restore", func() error { return c.inner.Restore(state) })
}

// WireBytes forwards the wrapped transport's connection-byte counter (zero
// when it does not measure one), so a decorated client keeps exact
// CommStats.WireBytes accounting.
func (c *intercepted) WireBytes() int64 {
	if wc, ok := c.inner.(WireByteCounter); ok {
		return wc.WireBytes()
	}
	return 0
}

// WireBytesByMethod forwards the wrapped transport's per-method byte tally
// (zero when it does not measure one).
func (c *intercepted) WireBytesByMethod() WireMethodBytes {
	if wc, ok := c.inner.(WireMethodByteCounter); ok {
		return wc.WireBytesByMethod()
	}
	return WireMethodBytes{}
}
