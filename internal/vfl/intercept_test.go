package vfl

import (
	"bytes"
	"errors"
	"fmt"
	"log"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/condvec"
	"repro/internal/encoding"
	"repro/internal/tensor"
)

// TestInterceptMethodNames drives all 13 protocol methods through one
// interceptor and pins the names it is told to the wire's labels, in wire
// id order: an Interceptor that keys on a method name (FaultyTransport's
// lost EndRound reply, a per-method tracer) and the per-method byte tally
// must agree on what the methods are called.
func TestInterceptMethodNames(t *testing.T) {
	var seen []string
	c := Intercept(&echoClient{out: tensor.New(2, 2)}, func(method string, call func() (any, error)) (any, error) {
		seen = append(seen, method)
		return call()
	})
	m := tensor.New(2, 2)
	c.Info()
	c.Configure(Setup{})
	c.SampleCV(2, false)
	c.SampleCVFixed(2, 0, 0)
	c.ForwardSynthetic(m, PhaseDiscriminator)
	c.ForwardReal(nil)
	c.BackwardDisc(m, m)
	c.BackwardGen(m, false)
	c.EndRound(0)
	c.GenerateRows(m)
	c.Publish()
	c.Snapshot()
	c.Restore(nil)
	if len(seen) != wireNumMethods-1 {
		t.Fatalf("interceptor saw %d calls, want %d: %v", len(seen), wireNumMethods-1, seen)
	}
	for i, name := range seen {
		if want := WireMethodLabel(i + 1); name != want {
			t.Errorf("call %d intercepted as %q, the wire calls it %q", i, name, want)
		}
	}
}

// TestAbandonedAttemptOwnsItsResult lets a call time out while its attempt
// is parked inside the wrapped client, then releases that attempt to run
// alongside the next call. Every run of an Interceptor's call returns a
// box of its own, so under -race (ci.sh) the late result has nowhere to
// land that the second call reads.
func TestAbandonedAttemptOwnsItsResult(t *testing.T) {
	ta, _ := twoClientTables(t, 40, 19)
	la := newLocal(t, ta, NewShuffleCoordinator(3), 1)
	hold := make(chan struct{})
	returned := make(chan struct{}, 2)
	parked := Intercept(la, func(_ string, call func() (any, error)) (any, error) {
		<-hold
		out, err := call()
		returned <- struct{}{}
		return out, err
	})
	c := WithPolicy(parked, "A", CallPolicy{Timeout: 100 * time.Millisecond})
	info, err := c.Info()
	if !errors.Is(err, ErrCallTimeout) || info != (ClientInfo{}) {
		t.Fatalf("parked Info = %+v, %v; want the zero value and ErrCallTimeout", info, err)
	}
	close(hold)
	info, err = c.Info()
	if err != nil || info.Rows != 40 {
		t.Fatalf("Info alongside the abandoned attempt = %+v, %v", info, err)
	}
	<-returned
	<-returned
}

// hostile wraps a client so that method's successful replies are replaced
// by mutate's rewrite of them: the peer that answers on time, with the
// wrong thing. hit records that the rewrite happened.
func hostile(inner Client, method string, mutate func(any) any, hit *bool) Client {
	return Intercept(inner, func(m string, call func() (any, error)) (any, error) {
		out, err := call()
		if m == method && err == nil {
			*hit = true
			out = mutate(out)
		}
		return out, err
	})
}

// resized rewrites a matrix reply as a zero matrix dRows taller and dCols
// wider.
func resized(dRows, dCols int) func(any) any {
	return func(v any) any {
		m := v.(*tensor.Dense)
		return tensor.New(m.Rows()+dRows, m.Cols()+dCols)
	}
}

// poisoned rewrites a matrix reply as a copy with one element set to v.
func poisoned(v float64) func(any) any {
	return func(r any) any {
		m := r.(*tensor.Dense).Clone()
		m.Set(m.Rows()/2, m.Cols()-1, v)
		return m
	}
}

// onInfo rewrites a copy of an Info reply.
func onInfo(f func(i *ClientInfo)) func(any) any {
	return func(v any) any {
		i := v.(ClientInfo)
		f(&i)
		return i
	}
}

// onBatch rewrites a copy of a CV batch reply.
func onBatch(f func(b *condvec.Batch)) func(any) any {
	return func(v any) any {
		b := *v.(*condvec.Batch)
		f(&b)
		return &b
	}
}

// TestHostileRepliesAreErrors is the server half of the trust boundary: a
// client that answers with an absent or mis-shaped matrix, batch or table
// must cost the round an error naming the client and the method — not a
// ConcatCols or matmul panic, and not a nil dereference inside a fan-out
// goroutine, which no caller could recover. A matrix with one NaN or +Inf
// is refused too: before the check, the round's losses came back NaN with
// no error (the forwards) or the next round's did (BackwardGen). Every case
// is one Interceptor rewriting one method's reply, in broadcast mode and
// with the faithful full-table real pass. The Info cases fail NewServer itself: before the
// check they were an nn shape panic (a negative CV width, or one whose sum
// with client 0's wraps past math.MaxInt), a makeslice panic (1<<62), a
// negative width accepted silently, and a row count that surfaced in round
// one as a SampleCV reply error blaming another client.
func TestHostileRepliesAreErrors(t *testing.T) {
	matrix := []struct {
		bad    string
		mutate func(any) any
	}{
		{"rows-1", resized(-1, 0)},
		{"rows+1", resized(1, 0)},
		{"cols+3", resized(0, 3)},
		{"nil", func(any) any { return (*tensor.Dense)(nil) }},
		{"NaN", poisoned(math.NaN())},
		{"+Inf", poisoned(math.Inf(1))},
	}
	type hostileCase struct {
		method, bad string
		mutate      func(any) any
		// target is the one client that misbehaves; -1 turns every client
		// hostile, for the CV methods only the round's contributor is asked.
		target int
		drive  func(*Server) error
	}
	train := func(s *Server) error { _, _, err := s.TrainRound(); return err }
	synth := func(s *Server) error { _, err := s.Synthesize(40); return err }
	cond := func(s *Server) error { _, err := s.SynthesizeCondition(40, 0, 0, 1); return err }
	var cases []hostileCase
	for _, method := range []string{"ForwardSynthetic", "ForwardReal", "BackwardGen"} {
		for _, m := range matrix {
			cases = append(cases, hostileCase{method, m.bad, m.mutate, 1, train})
		}
	}
	cases = append(cases,
		hostileCase{"ForwardReal", "one row", func(v any) any { return tensor.New(1, v.(*tensor.Dense).Cols()) }, 1, train},
		hostileCase{"SampleCV", "nil batch", func(any) any { return (*condvec.Batch)(nil) }, -1, train},
		hostileCase{"SampleCV", "nil CV", onBatch(func(b *condvec.Batch) { b.CV = nil }), -1, train},
		hostileCase{"SampleCV", "CV cols+3", onBatch(func(b *condvec.Batch) { b.CV = tensor.New(b.CV.Rows(), b.CV.Cols()+3) }), -1, train},
		hostileCase{"SampleCV", "CV rows-1", onBatch(func(b *condvec.Batch) { b.CV = tensor.New(b.CV.Rows()-1, b.CV.Cols()) }), -1, synth},
		hostileCase{"SampleCV", "short idx", onBatch(func(b *condvec.Batch) { b.Rows = b.Rows[1:] }), -1, train},
		hostileCase{"SampleCV", "no idx", onBatch(func(b *condvec.Batch) { b.Rows = nil }), -1, train},
		// A synthesis batch names no real rows; one that does is refused,
		// even with every index inside the table.
		hostileCase{"SampleCV", "synthesis carries idx", onBatch(func(b *condvec.Batch) { b.Rows = make([]int, b.CV.Rows()) }), -1, synth},
		hostileCase{"SampleCV", "idx past the table", onBatch(func(b *condvec.Batch) {
			b.Rows = append([]int(nil), b.Rows...)
			b.Rows[3] = 1 << 20
		}), -1, train},
		hostileCase{"SampleCV", "negative idx", onBatch(func(b *condvec.Batch) {
			b.Rows = append([]int(nil), b.Rows...)
			b.Rows[0] = -1
		}), -1, train},
		hostileCase{"SampleCVFixed", "nil CV", onBatch(func(b *condvec.Batch) { b.CV = nil }), 0, cond},
		hostileCase{"SampleCVFixed", "carries idx", onBatch(func(b *condvec.Batch) { b.Rows = make([]int, b.CV.Rows()) }), 0, cond},
		hostileCase{"Info", "CVWidth -1000", onInfo(func(i *ClientInfo) { i.CVWidth = -1000 }), 1, train},
		hostileCase{"Info", "CVWidth -1", onInfo(func(i *ClientInfo) { i.CVWidth = -1 }), 1, train},
		hostileCase{"Info", "CVWidth 1<<62", onInfo(func(i *ClientInfo) { i.CVWidth = 1 << 62 }), 1, train},
		hostileCase{"Info", "CVWidth MaxInt", onInfo(func(i *ClientInfo) { i.CVWidth = math.MaxInt }), 1, train},
		hostileCase{"Info", "EncodedWidth -1", onInfo(func(i *ClientInfo) { i.EncodedWidth = -1 }), 1, train},
		// A row count must be rewritten everywhere to pass the alignment check.
		hostileCase{"Info", "Rows 0", onInfo(func(i *ClientInfo) { i.Rows = 0 }), -1, train},
		hostileCase{"Info", "Rows -5", onInfo(func(i *ClientInfo) { i.Rows = -5 }), -1, train},
		hostileCase{"Publish", "nil table", func(any) any { return (*encoding.Table)(nil) }, 1, synth},
		hostileCase{"Publish", "a row short", func(v any) any {
			tbl := v.(*encoding.Table)
			idx := make([]int, tbl.Rows()-1)
			for k := range idx {
				idx[k] = k
			}
			return tbl.GatherRows(idx)
		}, 1, synth},
	)
	for _, faithful := range []bool{false, true} {
		mode := "broadcast"
		if faithful {
			mode = "faithful"
		}
		for _, tc := range cases {
			t.Run(fmt.Sprintf("%s/%s/%s", mode, tc.method, tc.bad), func(t *testing.T) {
				tables := threeClientTables(t, 60, 17)
				coord := NewShuffleCoordinator(99)
				clients := make([]Client, len(tables))
				hits := make([]bool, len(tables))
				for i, tab := range tables {
					lc := newLocal(t, tab, coord, int64(i+1))
					clients[i] = lc
					if tc.target < 0 || tc.target == i {
						clients[i] = hostile(lc, tc.method, tc.mutate, &hits[i])
					}
				}
				cfg := DefaultConfig()
				cfg.Plan = Plan{DiscServer: 1, DiscClient: 1, GenServer: 1, GenClient: 1}
				cfg.Rounds = 1
				cfg.DiscSteps = 1
				cfg.BatchSize = 16
				cfg.NoiseDim = 8
				cfg.BlockDim = 24
				cfg.FaithfulRealPass = faithful
				srv, err := NewServer(clients, cfg)
				if err == nil {
					err = tc.drive(srv)
				}
				var re *replyError
				if !errors.As(err, &re) {
					t.Fatalf("want a reply error, got: %v", err)
				}
				if re.method != tc.method || !hits[re.client] {
					t.Fatalf("error names client %d and %s, the hostile reply was %s from %v: %v",
						re.client, re.method, tc.method, hits, err)
				}
				if tc.target >= 0 && re.client != tc.target {
					t.Fatalf("error names client %d, client %d is the hostile one: %v", re.client, tc.target, err)
				}
				want := fmt.Sprintf("client %d %s reply", re.client, tc.method)
				if !strings.Contains(err.Error(), want) {
					t.Fatalf("error text should say %q: %v", want, err)
				}
			})
		}
	}
}

// TestHostileNilReplyOverWire is the case the network makes cheapest: over
// gtvwire an absent matrix is a one-byte reply (the nil layout tag), which
// WireClient hands back as (nil, nil). The server must turn it into the
// same typed error as in process.
func TestHostileNilReplyOverWire(t *testing.T) {
	ta, tb := twoClientTables(t, 60, 23)
	coord := NewShuffleCoordinator(7)
	la := newLocal(t, ta, coord, 1)
	lb := newLocal(t, tb, coord, 2)
	var hit bool
	remote := hostile(lb, "ForwardSynthetic", func(any) any { return (*tensor.Dense)(nil) }, &hit)
	pb := serveWire(t, remote)

	cfg := DefaultConfig()
	cfg.Plan = Plan{DiscServer: 2, GenClient: 2}
	cfg.Rounds = 1
	cfg.DiscSteps = 1
	cfg.BatchSize = 16
	cfg.NoiseDim = 8
	cfg.BlockDim = 16
	srv, err := NewServer([]Client{serveWire(t, la), pb}, cfg)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	_, _, err = srv.TrainRound()
	var re *replyError
	if !errors.As(err, &re) || re.client != 1 || re.method != "ForwardSynthetic" || !hit {
		t.Fatalf("want client 1's ForwardSynthetic reply refused, got: %v", err)
	}
	if got := pb.counters.recvBy[wireMethodForwardSynthetic].Load(); got != wireHeaderLen+1 {
		t.Fatalf("the refused reply was a %d-byte frame, want the header and one byte", got)
	}
}

// TestWireRejectsMisshapedGradients is the client half: gradients and
// synthesis slices arrive from the server inside per-request goroutines of
// the serve loop, where a broadcast panic would take the whole gtv-client
// down. Each bad frame must come back as an error frame, and the same
// connection — and the forward state the gradients were for — must answer
// the well-formed call that follows.
func TestWireRejectsMisshapedGradients(t *testing.T) {
	ta, _ := twoClientTables(t, 60, 41)
	lc := newLocal(t, ta, NewShuffleCoordinator(55), 1)
	proxy := serveWire(t, lc)
	const sliceW, discW, batch = 8, 16, 8
	if err := proxy.Configure(Setup{
		Plan: Plan{DiscServer: 2, GenClient: 2}, SliceWidth: sliceW, GenBlockWidth: sliceW,
		DiscWidth: discW, LR: 1e-3, Seed: 5,
	}); err != nil {
		t.Fatalf("Configure: %v", err)
	}
	idx := []int{0, 1, 2, 3, 4, 5, 6, 7}
	wantErr := func(what string, err error, text string) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), text) {
			t.Fatalf("%s: want an error frame saying %q, got: %v", what, text, err)
		}
	}

	if _, err := proxy.ForwardSynthetic(tensor.New(batch, sliceW), PhaseDiscriminator); err != nil {
		t.Fatalf("ForwardSynthetic: %v", err)
	}
	if _, err := proxy.ForwardReal(idx); err != nil {
		t.Fatalf("ForwardReal: %v", err)
	}
	wantErr("BackwardDisc, synthetic rows-1", proxy.BackwardDisc(tensor.New(batch-1, discW), tensor.New(batch, discW)),
		"synthetic-branch gradient 7x16 for a 8x16 forward output")
	wantErr("BackwardDisc, real cols+3", proxy.BackwardDisc(tensor.New(batch, discW), tensor.New(batch, discW+3)),
		"real-branch gradient 8x19 for a 8x16 forward output")
	if err := proxy.BackwardDisc(tensor.New(batch, discW), tensor.New(batch, discW)); err != nil {
		t.Fatalf("well-formed BackwardDisc after the bad frames: %v", err)
	}

	if _, err := proxy.ForwardSynthetic(tensor.New(batch, sliceW), PhaseGenerator); err != nil {
		t.Fatalf("ForwardSynthetic: %v", err)
	}
	_, err := proxy.BackwardGen(tensor.New(batch, 5), false)
	wantErr("BackwardGen, cols", err, "generator gradient 8x5 for a 8x16 forward output")
	if sg, err := proxy.BackwardGen(tensor.New(batch, discW), false); err != nil || sg.Rows() != batch || sg.Cols() != sliceW {
		t.Fatalf("well-formed BackwardGen after the bad frame: %v", err)
	}

	wantErr("GenerateRows, slice cols+3", proxy.GenerateRows(tensor.New(batch, sliceW+3)), "slice width 11, expected 8")
	if err := proxy.GenerateRows(tensor.New(batch, sliceW)); err != nil {
		t.Fatalf("well-formed GenerateRows after the bad frame: %v", err)
	}
	if tbl, err := proxy.Publish(); err != nil || tbl.Rows() != batch {
		t.Fatalf("the served client did not survive the bad frames: %v", err)
	}
}

// panicOn wraps a client so that method's calls panic before they reach it:
// a bug no shape check anticipated, in the one place it can hurt most.
func panicOn(inner Client, method string) Client {
	return Intercept(inner, func(m string, call func() (any, error)) (any, error) {
		if m == method {
			panic("injected " + m + " panic")
		}
		return call()
	})
}

// captureLog collects what the log package writes for the rest of the test.
func captureLog(t *testing.T) *bytes.Buffer {
	var buf bytes.Buffer
	log.SetOutput(&buf)
	t.Cleanup(func() { log.SetOutput(os.Stderr) })
	return &buf
}

// requireLoggedOnce checks that the panic's error was logged exactly once,
// with the stack of the goroutine that panicked.
func requireLoggedOnce(t *testing.T, logged *bytes.Buffer, text string) {
	t.Helper()
	if n := strings.Count(logged.String(), text); n != 1 || !strings.Contains(logged.String(), "panicOn") {
		t.Fatalf("want %q logged once with the stack through panicOn, logged %d times:\n%s", text, n, logged)
	}
}

// TestClientPanicIsAnError: a panic inside one client's BackwardDisc must
// cost the round an error naming the client and the method, both on the
// sequential fan-out and inside fanClients' worker goroutines, where an
// unrecovered panic ends the server process.
func TestClientPanicIsAnError(t *testing.T) {
	for _, parallelism := range []int{1, 0} {
		t.Run(fmt.Sprintf("parallelism %d", parallelism), func(t *testing.T) {
			logged := captureLog(t)
			tables := threeClientTables(t, 60, 17)
			coord := NewShuffleCoordinator(99)
			clients := make([]Client, len(tables))
			for i, tab := range tables {
				clients[i] = newLocal(t, tab, coord, int64(i+1))
			}
			clients[1] = panicOn(clients[1], "BackwardDisc")
			cfg := DefaultConfig()
			cfg.Plan = Plan{DiscServer: 1, DiscClient: 1, GenServer: 1, GenClient: 1}
			cfg.Rounds = 1
			cfg.DiscSteps = 1
			cfg.BatchSize = 16
			cfg.NoiseDim = 8
			cfg.BlockDim = 24
			cfg.Parallelism = parallelism
			srv, err := NewServer(clients, cfg)
			if err != nil {
				t.Fatalf("NewServer: %v", err)
			}
			_, _, err = srv.TrainRound()
			var pe *panicError
			if !errors.As(err, &pe) || pe.client != 1 || pe.method != "BackwardDisc" {
				t.Fatalf("want client 1's BackwardDisc panic as an error, got: %v", err)
			}
			want := "vfl: client 1 BackwardDisc panicked: injected BackwardDisc panic"
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("error text should say %q: %v", want, err)
			}
			requireLoggedOnce(t, logged, want)
		})
	}
}

// TestWirePanicIsAnErrorFrame is the client half: a panic inside a served
// client's step runs in a per-request goroutine of the serve loop, where it
// would end the gtv-client process. It must come back as an error frame, and
// the same connection must answer the next call.
func TestWirePanicIsAnErrorFrame(t *testing.T) {
	logged := captureLog(t)
	ta, _ := twoClientTables(t, 60, 41)
	lc := newLocal(t, ta, NewShuffleCoordinator(55), 1)
	proxy := serveWire(t, panicOn(lc, "BackwardDisc"))
	const sliceW, discW, batch = 8, 16, 8
	if err := proxy.Configure(Setup{
		Plan: Plan{DiscServer: 2, GenClient: 2}, SliceWidth: sliceW, GenBlockWidth: sliceW,
		DiscWidth: discW, LR: 1e-3, Seed: 5,
	}); err != nil {
		t.Fatalf("Configure: %v", err)
	}
	if _, err := proxy.ForwardSynthetic(tensor.New(batch, sliceW), PhaseDiscriminator); err != nil {
		t.Fatalf("ForwardSynthetic: %v", err)
	}
	if _, err := proxy.ForwardReal([]int{0, 1, 2, 3, 4, 5, 6, 7}); err != nil {
		t.Fatalf("ForwardReal: %v", err)
	}
	err := proxy.BackwardDisc(tensor.New(batch, discW), tensor.New(batch, discW))
	want := "gtvwire: BackwardDisc panicked: injected BackwardDisc panic"
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("want an error frame saying %q, got: %v", want, err)
	}
	if info, err := proxy.Info(); err != nil || info.Rows != 60 {
		t.Fatalf("the connection did not answer after the panic: %+v, %v", info, err)
	}
	requireLoggedOnce(t, logged, want)
}
