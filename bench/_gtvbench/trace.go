package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/condvec"
	"repro/internal/encoding"
	"repro/internal/tensor"
	"repro/internal/vfl"
)

// span is one timed interval. Times are nanoseconds since the recorder was
// made. Parent is the index of the span that caused this one (-1 for a
// root); spans of one round share Round, spans of one party share Client.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Round  int    `json:"round"`
	Client int    `json:"client"`
	// Side is "call" for the client the server calls, "served" for the one
	// behind a wire listener, "" for spans the harness opens itself.
	Side string `json:"side,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps every span in memory until the workload ends.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span // guarded by mu

	// scope is the harness span (a round, a Synthesize call) that client
	// calls opened meanwhile belong to; round is its round id.
	scope atomic.Int64
	round atomic.Int64
}

func newRecorder() *recorder {
	r := &recorder{epoch: time.Now()}
	r.scope.Store(-1)
	r.round.Store(-1)
	return r
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// open appends an unfinished span and returns its index.
func (r *recorder) open(s span) int {
	s.Start = r.now()
	r.mu.Lock()
	r.spans = append(r.spans, s)
	id := len(r.spans) - 1
	r.mu.Unlock()
	return id
}

func (r *recorder) close(id int) {
	end := r.now()
	r.mu.Lock()
	r.spans[id].End = end
	r.mu.Unlock()
}

// enter opens a harness span and makes it the scope of the client calls
// that follow; the returned function closes it and restores the scope.
func (r *recorder) enter(name string, round int) func() {
	prevScope, prevRound := r.scope.Load(), r.round.Load()
	id := r.open(span{Name: name, Parent: int(prevScope), Round: round, Client: -1})
	r.scope.Store(int64(id))
	r.round.Store(int64(round))
	return func() {
		r.close(id)
		r.scope.Store(prevScope)
		r.round.Store(prevRound)
	}
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

func (r *recorder) writeJSON(path string) error {
	data, err := json.Marshal(r.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// tracedClient times every protocol call it forwards. It adds nothing else:
// arguments and results pass through untouched, so a federation built over
// tracedClients follows the same trajectory as one built without them.
type tracedClient struct {
	inner vfl.Client
	rec   *recorder
	id    int
	side  string
	// open is the index of this decorator's span in flight (-1 when idle).
	// The server serializes its calls to one client, so there is at most
	// one; the served-side decorator of the same party reads it through
	// outer to name its parent.
	open  atomic.Int64
	outer *tracedClient
}

var (
	_ vfl.Client                = (*tracedClient)(nil)
	_ vfl.WireByteCounter       = (*tracedClient)(nil)
	_ vfl.WireMethodByteCounter = (*tracedClient)(nil)
)

func newTracedClient(inner vfl.Client, rec *recorder, id int, side string) *tracedClient {
	c := &tracedClient{inner: inner, rec: rec, id: id, side: side}
	c.open.Store(-1)
	return c
}

func (c *tracedClient) begin(method string) int {
	parent := c.rec.scope.Load()
	if c.outer != nil {
		if p := c.outer.open.Load(); p >= 0 {
			parent = p
		}
	}
	id := c.rec.open(span{Name: method, Parent: int(parent), Round: int(c.rec.round.Load()), Client: c.id, Side: c.side})
	c.open.Store(int64(id))
	return id
}

func (c *tracedClient) end(id int) {
	c.open.Store(-1)
	c.rec.close(id)
}

func (c *tracedClient) Info() (vfl.ClientInfo, error) {
	defer c.end(c.begin("Info"))
	return c.inner.Info()
}

func (c *tracedClient) Configure(s vfl.Setup) error {
	defer c.end(c.begin("Configure"))
	return c.inner.Configure(s)
}

func (c *tracedClient) SampleCV(batch int, synthesis bool) (*condvec.Batch, error) {
	defer c.end(c.begin("SampleCV"))
	return c.inner.SampleCV(batch, synthesis)
}

func (c *tracedClient) SampleCVFixed(batch, spanIdx, category int) (*condvec.Batch, error) {
	defer c.end(c.begin("SampleCVFixed"))
	return c.inner.SampleCVFixed(batch, spanIdx, category)
}

func (c *tracedClient) ForwardSynthetic(slice *tensor.Dense, phase vfl.Phase) (*tensor.Dense, error) {
	defer c.end(c.begin("ForwardSynthetic"))
	return c.inner.ForwardSynthetic(slice, phase)
}

func (c *tracedClient) ForwardReal(idx []int) (*tensor.Dense, error) {
	defer c.end(c.begin("ForwardReal"))
	return c.inner.ForwardReal(idx)
}

func (c *tracedClient) BackwardDisc(gradSynth, gradReal *tensor.Dense) error {
	defer c.end(c.begin("BackwardDisc"))
	return c.inner.BackwardDisc(gradSynth, gradReal)
}

func (c *tracedClient) BackwardGen(gradSynth *tensor.Dense, conditioned bool) (*tensor.Dense, error) {
	defer c.end(c.begin("BackwardGen"))
	return c.inner.BackwardGen(gradSynth, conditioned)
}

func (c *tracedClient) EndRound(round int) error {
	defer c.end(c.begin("EndRound"))
	return c.inner.EndRound(round)
}

func (c *tracedClient) GenerateRows(slice *tensor.Dense) error {
	defer c.end(c.begin("GenerateRows"))
	return c.inner.GenerateRows(slice)
}

func (c *tracedClient) Publish() (*encoding.Table, error) {
	defer c.end(c.begin("Publish"))
	return c.inner.Publish()
}

func (c *tracedClient) Snapshot() ([]byte, error) {
	defer c.end(c.begin("Snapshot"))
	return c.inner.Snapshot()
}

func (c *tracedClient) Restore(state []byte) error {
	defer c.end(c.begin("Restore"))
	return c.inner.Restore(state)
}

// WireBytes forwards the wrapped transport's byte counter, so the server's
// CommStats stay what they are without the decorator.
func (c *tracedClient) WireBytes() int64 {
	if wc, ok := c.inner.(vfl.WireByteCounter); ok {
		return wc.WireBytes()
	}
	return 0
}

// WireBytesByMethod forwards the per-method byte counters likewise.
func (c *tracedClient) WireBytesByMethod() vfl.WireMethodBytes {
	if wc, ok := c.inner.(vfl.WireMethodByteCounter); ok {
		return wc.WireBytesByMethod()
	}
	return vfl.WireMethodBytes{}
}

// unionNS returns the length of the union of the spans' intervals.
func unionNS(spans []span) int64 {
	if len(spans) == 0 {
		return 0
	}
	iv := append([]span(nil), spans...)
	sort.Slice(iv, func(i, j int) bool { return iv[i].Start < iv[j].Start })
	var total int64
	start, end := iv[0].Start, iv[0].End
	for _, s := range iv[1:] {
		if s.Start > end {
			total += end - start
			start, end = s.Start, s.End
			continue
		}
		if s.End > end {
			end = s.End
		}
	}
	return total + end - start
}

// children maps a span's index to the indices of the spans it caused.
func children(spans []span) map[int][]int {
	out := make(map[int][]int)
	for i, s := range spans {
		out[s.Parent] = append(out[s.Parent], i)
	}
	return out
}

// pick returns the spans at the given indices.
func pick(spans []span, idx []int) []span {
	out := make([]span, len(idx))
	for i, k := range idx {
		out[i] = spans[k]
	}
	return out
}
