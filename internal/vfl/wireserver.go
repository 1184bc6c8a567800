package vfl

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/tensor"
)

// ServeClientWire serves a client over the gtvwire binary protocol until
// the listener is closed. It is the entry point of the gtv-client process.
// Every request frame is served in its own goroutine, so a pipelining peer
// overlaps calls, while a server that serializes its calls (as vfl.Server
// does per client) sees strictly ordered execution.
func ServeClientWire(lis net.Listener, c Client) error {
	var conns connSet
	defer conns.closeAll()
	for {
		conn, err := lis.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return fmt.Errorf("vfl: accepting wire connection: %w", err)
		}
		conns.add(conn)
		//lint:ignore goroleak per-connection read loop whose exit path is the connection: it returns on any read error, and closeAll closes every tracked conn when the listener dies
		go func() {
			serveWireConn(conn, c)
			conns.remove(conn)
		}()
	}
}

// connSet tracks the connections a serve loop accepted, so closing the
// listener also closes every served connection — and with it every
// per-connection goroutine — instead of leaving them parked on reads
// until the peer hangs up.
type connSet struct {
	mu    sync.Mutex
	conns map[net.Conn]struct{} // guarded by mu
}

func (s *connSet) add(c net.Conn) {
	s.mu.Lock()
	if s.conns == nil {
		s.conns = make(map[net.Conn]struct{})
	}
	s.conns[c] = struct{}{}
	s.mu.Unlock()
}

func (s *connSet) remove(c net.Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

// closeAll closes every still-tracked connection.
func (s *connSet) closeAll() {
	s.mu.Lock()
	conns := s.conns
	s.conns = nil
	s.mu.Unlock()
	for c := range conns {
		// The listener is gone; these connections are being abandoned and
		// their close errors carry nothing.
		//lint:ignore errdrop teardown of connections outliving a closed listener
		_ = c.Close()
	}
}

// wireConnWriter serializes response-frame writes from the per-request
// goroutines onto one connection.
type wireConnWriter struct {
	mu sync.Mutex
	w  *bufio.Writer // guarded by mu
}

// writeFrame writes one whole response frame and flushes it toward the
// server. This is the single point where protocol payloads leave the
// client process, which makes it the transport's privacy boundary: every
// value reaching it has already crossed a Client interface sink.
//
//privacy:sink encoded response frames leaving the client process
func (cw *wireConnWriter) writeFrame(h wireHeader, payload []byte) error {
	var hdr [wireHeaderLen]byte
	h.put(hdr[:])
	cw.mu.Lock()
	defer cw.mu.Unlock()
	//lint:ignore lockorder mu exists to serialize whole response frames onto the shared conn; a write stuck on a dead peer ends when the read loop (or closeAll) closes the conn
	if _, err := cw.w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := cw.w.Write(payload); err != nil {
		return err
	}
	return cw.w.Flush()
}

// wireSliceTracker retains the ForwardSynthetic input slices the client's
// autograd graph holds onto between a forward and its backward. Graph
// leaves are shielded from the client's tape release, so once the backward
// for a phase completes nothing references the decoded slice buffers and
// the tracker hands them back to the tensor free list.
type wireSliceTracker struct {
	mu     sync.Mutex
	slices []*tensor.Dense // guarded by mu
}

func (t *wireSliceTracker) retain(m *tensor.Dense) {
	t.mu.Lock()
	t.slices = append(t.slices, m)
	t.mu.Unlock()
}

// releaseAll recycles every retained slice. Called after a successful
// BackwardDisc/BackwardGen, when the graphs retaining the slices are gone.
func (t *wireSliceTracker) releaseAll() {
	t.mu.Lock()
	slices := t.slices
	t.slices = nil
	t.mu.Unlock()
	for _, m := range slices {
		m.Release()
	}
}

// wireSnapEpoch assigns a fresh process-unique epoch to every snapshot
// blob served with delta capability, so a peer holding a base from before
// a responder restart can never have its epoch matched — it gets a full
// transfer instead of a delta against the wrong base.
var wireSnapEpoch atomic.Uint64

// wireSnapCache remembers, per connection, the last snapshot blob served
// to a delta-capable peer and its epoch, the base the next fetch's delta
// is computed against. Dying with the connection is correct: after a
// redial the responder has no base and serves full, which is exactly the
// resync the peer needs.
type wireSnapCache struct {
	mu    sync.Mutex
	epoch uint64 // guarded by mu
	blob  []byte // guarded by mu
}

// serveWireConn reads request frames off one connection and dispatches
// each in its own goroutine.
func serveWireConn(conn net.Conn, c Client) {
	r := bufio.NewReaderSize(conn, 1<<16)
	cw := &wireConnWriter{w: bufio.NewWriterSize(conn, 1<<16)}
	slices := &wireSliceTracker{}
	snaps := &wireSnapCache{}
	for {
		h, payload, err := readWireFrame(r)
		if err != nil {
			// EOF is the peer hanging up; anything else is a dead or
			// malformed connection. Either way the conn is finished and the
			// close error adds nothing.
			//lint:ignore errdrop closing a finished connection, the error adds nothing
			_ = conn.Close()
			return
		}
		if h.kind != wireKindRequest {
			//lint:ignore errdrop protocol violation already ends the connection
			_ = conn.Close()
			return
		}
		go serveWireRequest(c, cw, slices, snaps, h, payload)
	}
}

// serveWireRequest decodes one request, runs the protocol step, and writes
// the response (or error) frame.
func serveWireRequest(c Client, cw *wireConnWriter, slices *wireSliceTracker, snaps *wireSnapCache, h wireHeader, payload []byte) {
	dec := newWireDec(payload)
	enc := newWireEnc()
	err := dispatchWireMethod(c, slices, snaps, h.method, h.flags&wireFlagF32 != 0, dec, enc)
	putWireBuf(payload)
	kind := byte(wireKindResponse)
	if err != nil {
		enc.Buf = enc.Buf[:0]
		enc.VarString(err.Error())
		kind = wireKindError
	}
	rh := wireHeader{
		payloadLen: uint32(len(enc.Buf)),
		version:    wireVersion,
		kind:       kind,
		method:     h.method,
		flags:      h.flags,
		seq:        h.seq,
	}
	// A failed response write means the connection is dead; the read loop
	// observes that on its next read and tears the connection down.
	//lint:ignore errdrop the read loop handles the dead connection
	_ = cw.writeFrame(rh, enc.Buf)
	enc.release()
}

// dispatchWireMethod decodes the method's arguments, invokes the protocol
// step, and encodes the reply. Argument decoding is fully validated
// (dec.finish) before the client runs, so a malformed frame never
// half-executes a stateful step.
//
// Decoded argument matrices land in pooled buffers; ownership is resolved
// per method: gradients and synthesis slices are consumed within the call
// (graph leaves are shielded from the client's tape) and released here,
// while ForwardSynthetic slices stay live inside the client's retained
// graph until the phase's backward and are parked in the tracker instead.
func dispatchWireMethod(c Client, slices *wireSliceTracker, snaps *wireSnapCache, method byte, f32 bool, dec *wireDec, enc *wireEnc) error {
	switch method {
	case wireMethodInfo:
		if err := dec.Finish(); err != nil {
			return err
		}
		info, err := c.Info()
		if err != nil {
			return err
		}
		enc.clientInfo(info)
		return nil

	case wireMethodConfigure:
		s := dec.setup()
		if err := dec.Finish(); err != nil {
			return err
		}
		return c.Configure(s)

	case wireMethodSampleCV:
		batch := int(dec.I64())
		synthesis := dec.Bool()
		if err := dec.Finish(); err != nil {
			return err
		}
		b, err := c.SampleCV(batch, synthesis)
		if err != nil {
			return err
		}
		enc.cvBatch(b, false)
		return nil

	case wireMethodSampleCVFixed:
		batch := int(dec.I64())
		span := int(dec.I64())
		category := int(dec.I64())
		if err := dec.Finish(); err != nil {
			return err
		}
		b, err := c.SampleCVFixed(batch, span, category)
		if err != nil {
			return err
		}
		enc.cvBatch(b, false)
		return nil

	case wireMethodForwardSynthetic:
		slice := dec.matrix()
		phase := Phase(dec.I64())
		if err := requireWireMatrix(dec, "slice", slice); err != nil {
			slice.Release()
			return err
		}
		out, err := c.ForwardSynthetic(slice, phase)
		if err != nil {
			slice.Release()
			return err
		}
		// The client's graph holds the slice until the phase's backward.
		slices.retain(slice)
		enc.matrix(out, f32)
		return nil

	case wireMethodForwardReal:
		all := dec.Bool()
		idx := dec.ints()
		if err := dec.Finish(); err != nil {
			return err
		}
		if all {
			idx = nil
		} else if idx == nil {
			idx = []int{}
		}
		out, err := c.ForwardReal(idx)
		if err != nil {
			return err
		}
		enc.matrix(out, f32)
		return nil

	case wireMethodBackwardDisc:
		gradSynth := dec.matrix()
		gradReal := dec.matrix()
		if err := requireWireMatrix(dec, "gradients", gradSynth, gradReal); err != nil {
			gradSynth.Release()
			gradReal.Release()
			return err
		}
		err := c.BackwardDisc(gradSynth, gradReal)
		// The gradients entered the client's graph as leaves (shielded from
		// its tape release) and nothing references them after the call.
		gradSynth.Release()
		gradReal.Release()
		if err != nil {
			return err
		}
		slices.releaseAll()
		return nil

	case wireMethodBackwardGen:
		gradSynth := dec.matrix()
		conditioned := dec.Bool()
		if err := requireWireMatrix(dec, "gradient", gradSynth); err != nil {
			gradSynth.Release()
			return err
		}
		out, err := c.BackwardGen(gradSynth, conditioned)
		gradSynth.Release()
		if err != nil {
			return err
		}
		slices.releaseAll()
		enc.matrix(out, f32)
		// The slice gradient is a fresh copy owned by the caller; it is
		// fully encoded now.
		out.Release()
		return nil

	case wireMethodEndRound:
		round := int(dec.I64())
		if err := dec.Finish(); err != nil {
			return err
		}
		return c.EndRound(round)

	case wireMethodGenerateRows:
		slice := dec.matrix()
		if err := requireWireMatrix(dec, "slice", slice); err != nil {
			slice.Release()
			return err
		}
		err := c.GenerateRows(slice)
		// Synthesis forwards run outside any retained graph; the slice is
		// dead as soon as the call returns.
		slice.Release()
		return err

	case wireMethodPublish:
		if err := dec.Finish(); err != nil {
			return err
		}
		t, err := c.Publish()
		if err != nil {
			return err
		}
		enc.table(t, false)
		return nil

	case wireMethodSnapshot:
		capable := dec.Bool()
		var haveEpoch uint64
		if capable {
			haveEpoch = dec.Uvarint()
		}
		if err := dec.Finish(); err != nil {
			return err
		}
		blob, err := c.Snapshot()
		if err != nil {
			return err
		}
		if !capable {
			// Plain body for peers without delta mode: just the blob.
			enc.VarBytes(blob)
			return nil
		}
		encodeWireSnapshot(enc, snaps, blob, haveEpoch)
		return nil

	case wireMethodRestore:
		state := dec.bytes()
		if err := dec.Finish(); err != nil {
			return err
		}
		return c.Restore(state)
	}
	return fmt.Errorf("gtvwire: unknown method id %d", method)
}

// requireWireMatrix finishes argument decoding and rejects absent (nil)
// matrices for methods whose arguments are mandatory, so a malformed frame
// fails with a protocol error instead of a panic inside the client.
func requireWireMatrix(dec *wireDec, what string, ms ...*tensor.Dense) error {
	if err := dec.Finish(); err != nil {
		return err
	}
	for _, m := range ms {
		if m == nil {
			return fmt.Errorf("gtvwire: missing required %s matrix", what)
		}
	}
	return nil
}
