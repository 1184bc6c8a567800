package vfl

// gtvwire: a stdlib-only, length-prefixed binary frame protocol, the GTV
// network path. The paper's own cost analysis (§4.3.1) makes
// boundary-payload traffic — generator slices, critic logits and gradients
// every round — the dominant federated cost, so the format is built around
// not paying for it twice: no copy of a matrix before encoding, no type
// description on the stream, no decode outside the tensor free lists.
//
// The wire format is deliberately dumb and byte-exact (golden fixtures in
// testdata/wire pin it):
//
//	frame  := header payload
//	header := payloadLen u32 | version u8 | kind u8 | method u8 | flags u8 | seq u64
//	         (16 bytes, all integers little-endian)
//
//	kind   := 1 request | 2 response | 3 error response
//	flags  := bit0: matrix payloads of this call use float32 elements
//
// Payloads are method-specific sequences of the primitives in
// wirecodec.go. Matrix payloads are written directly from
// tensor.Dense.Data() (no intermediate copy) and decoded into
// tensor.NewPooled buffers, so a round-trip touches each float exactly
// once per direction. Each matrix travels in the cheapest, by exact byte
// count, of five lossless layouts — since version 3 that includes the
// masked one, which ships the half-zero critic logits a Dropout leaves
// (the paper's most expensive message under the full-table real pass) at
// a little over half their dense size.
//
// A frame is read into a buffer that runs at most wireReadAhead bytes
// ahead of the payload bytes that have arrived, so a header alone cannot
// make the receiver allocate its announced length.
//
// A single persistent connection carries many concurrent calls: requests
// are sequence-numbered, responses may arrive in any order, and a demux
// goroutine on the client routes each response frame to the caller
// waiting on its sequence number (see wireclient.go). The serving side
// runs every request in its own goroutine and writes responses as they
// complete (wireserver.go).

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"
)

const (
	// wireVersion is bumped on any incompatible frame-format change.
	// Version 2: varint-coded shapes/lengths/indices, density-selected
	// matrix layouts (one-hot, bitmap, index-list) and the delta-encoded
	// snapshot transfer. Version 3: the masked matrix layout, which a
	// version-2 decoder rejects as an invalid layout byte — the bump makes a
	// mixed pair fail at the first header instead of in the middle of a
	// round.
	wireVersion = 3
	// wireHeaderLen is the fixed frame header size in bytes.
	wireHeaderLen = 16
	// wireMaxPayload bounds a single frame's payload so a corrupt or
	// malicious length prefix cannot make the receiver read
	// unboundedly. 1 GiB comfortably fits the paper-scale payloads
	// (batch 500 x width 768 x 8 B = ~3 MB).
	wireMaxPayload = 1 << 30
	// wireReadAhead bounds what a length prefix alone can make the receiver
	// allocate: a payload buffer starts at most this long and then doubles
	// as the bytes arrive, so a peer gets at most as much memory again as
	// it has sent. 1 MiB is above every frame of a paper-scale round (the
	// full-table pass of 5000 rows x 17 logits is 680 KB dense), which
	// therefore still land in one buffer.
	wireReadAhead = 1 << 20
	// wireMaxSparseElems bounds the dense expansion of the compact matrix
	// layouts (one-hot, bitmap, index-list, masked), whose byte cost on the
	// wire is far below 8 B/element: without a cap a tiny malicious frame
	// could make the decoder allocate gigabytes. 2^22 elements (32 MiB of
	// float64) is an order of magnitude above the paper-scale payloads;
	// larger matrices simply travel dense, where the payload length itself
	// is the bound.
	wireMaxSparseElems = 1 << 22
)

// Frame kinds.
const (
	wireKindRequest  = 1
	wireKindResponse = 2
	wireKindError    = 3
)

// Frame flags.
const (
	// wireFlagF32 marks every matrix payload of the call as float32.
	wireFlagF32 = 1 << 0
)

// Method ids. The numbering is part of the wire format; append only.
const (
	wireMethodInfo = 1 + iota
	wireMethodConfigure
	wireMethodSampleCV
	wireMethodSampleCVFixed
	wireMethodForwardSynthetic
	wireMethodForwardReal
	wireMethodBackwardDisc
	wireMethodBackwardGen
	wireMethodEndRound
	wireMethodGenerateRows
	wireMethodPublish
	wireMethodSnapshot
	wireMethodRestore
)

// wireNumMethods sizes per-method accounting arrays: method ids are dense
// from 1, so the highest id plus one indexes them all (index 0 unused).
const wireNumMethods = wireMethodRestore + 1

// wireMethodName names a method id in error messages.
func wireMethodName(m byte) string {
	switch m {
	case wireMethodInfo:
		return "Info"
	case wireMethodConfigure:
		return "Configure"
	case wireMethodSampleCV:
		return "SampleCV"
	case wireMethodSampleCVFixed:
		return "SampleCVFixed"
	case wireMethodForwardSynthetic:
		return "ForwardSynthetic"
	case wireMethodForwardReal:
		return "ForwardReal"
	case wireMethodBackwardDisc:
		return "BackwardDisc"
	case wireMethodBackwardGen:
		return "BackwardGen"
	case wireMethodEndRound:
		return "EndRound"
	case wireMethodGenerateRows:
		return "GenerateRows"
	case wireMethodPublish:
		return "Publish"
	case wireMethodSnapshot:
		return "Snapshot"
	case wireMethodRestore:
		return "Restore"
	}
	return fmt.Sprintf("method#%d", m)
}

// wireHeader is the decoded fixed-size frame prefix.
type wireHeader struct {
	payloadLen uint32
	version    byte
	kind       byte
	method     byte
	flags      byte
	seq        uint64
}

// put serializes the header into dst[:wireHeaderLen].
func (h wireHeader) put(dst []byte) {
	binary.LittleEndian.PutUint32(dst[0:4], h.payloadLen)
	dst[4] = h.version
	dst[5] = h.kind
	dst[6] = h.method
	dst[7] = h.flags
	binary.LittleEndian.PutUint64(dst[8:16], h.seq)
}

// parseWireHeader decodes and validates a frame header.
func parseWireHeader(src []byte) (wireHeader, error) {
	h := wireHeader{
		payloadLen: binary.LittleEndian.Uint32(src[0:4]),
		version:    src[4],
		kind:       src[5],
		method:     src[6],
		flags:      src[7],
		seq:        binary.LittleEndian.Uint64(src[8:16]),
	}
	if h.version != wireVersion {
		return h, fmt.Errorf("gtvwire: unsupported frame version %d", h.version)
	}
	if h.kind != wireKindRequest && h.kind != wireKindResponse && h.kind != wireKindError {
		return h, fmt.Errorf("gtvwire: invalid frame kind %d", h.kind)
	}
	if h.payloadLen > wireMaxPayload {
		return h, fmt.Errorf("gtvwire: frame payload %d exceeds limit %d", h.payloadLen, wireMaxPayload)
	}
	return h, nil
}

// readWireFrame reads one full frame, returning the header and payload.
// The payload buffer comes from the shared frame-buffer free list; the
// caller must hand it back with putWireBuf once decoded.
func readWireFrame(r io.Reader) (wireHeader, []byte, error) {
	var hdr [wireHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return wireHeader{}, nil, err
	}
	h, err := parseWireHeader(hdr[:])
	if err != nil {
		return h, nil, err
	}
	buf, err := readWirePayload(r, int(h.payloadLen))
	if err != nil {
		return h, nil, fmt.Errorf("gtvwire: short payload for %s frame: %w", wireMethodName(h.method), err)
	}
	return h, buf, nil
}

// readWirePayload reads the n payload bytes a header announced into a frame
// buffer. A recycled buffer with the room is used whole; otherwise the
// buffer starts wireReadAhead long and doubles each time the peer has filled
// it, so n is a promise the peer pays for byte by byte, not an allocation
// made on its word.
func readWirePayload(r io.Reader, n int) ([]byte, error) {
	buf := getWireBuf(min(n, wireReadAhead))
	buf = buf[:min(n, cap(buf))]
	for filled := 0; ; {
		if _, err := io.ReadFull(r, buf[filled:]); err != nil {
			putWireBuf(buf)
			return nil, err
		}
		if filled = len(buf); filled == n {
			return buf, nil
		}
		grown := make([]byte, min(n, 2*filled))
		copy(grown, buf)
		putWireBuf(buf)
		buf = grown
	}
}

// wireBufPool recycles payload buffers between frames. Buffers are stored
// at full capacity and re-sliced per request; oversize requests fall
// through to a plain allocation.
var wireBufPool = sync.Pool{New: func() any { return make([]byte, 0, 4096) }}

// getWireBuf returns a length-n buffer, recycled when possible.
func getWireBuf(n int) []byte {
	b := wireBufPool.Get().([]byte)
	if cap(b) < n {
		// Hand the too-small buffer back so the pool stays warm for
		// smaller frames.
		wireBufPool.Put(b)
		return make([]byte, n)
	}
	return b[:n]
}

// putWireBuf hands a buffer back to the free list.
func putWireBuf(b []byte) {
	if cap(b) > wireMaxPayload {
		return
	}
	wireBufPool.Put(b[:0])
}
