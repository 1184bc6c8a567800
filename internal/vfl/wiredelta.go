package vfl

// Delta-encoded snapshot transfer for the gtvwire protocol.
//
// The recurring whole-model transfer in this system is the checkpoint
// fetch: at every checkpoint cadence the coordinator pulls each remote
// client's full gtvsnap blob (Client.Snapshot), the split-learning
// counterpart of a FedAvg weight broadcast with the direction flipped.
// Between consecutive fetches only the parameter bytes that training
// actually moved differ — the blob framing, shapes and section headers are
// identical — so shipping a byte-aligned diff against the previous blob
// cuts the transfer to the changed ranges.
//
// Protocol (request/response bodies of wireMethodSnapshot when the proxy
// enables delta mode):
//
//	request  := deltaCapable bool | baseEpoch uvarint   (0 = no base held)
//	response := form u8 | epoch uvarint | body
//	form 0 (full):  body := blob bytes (length-prefixed)
//	form 1 (delta): body := crc u32 | newLen uvarint | ops
//	ops           := (equalLen uvarint | litLen uvarint | literal bytes)*
//	                 until equalLen+litLen bytes consumed sum to newLen
//
// Every served blob gets a fresh epoch from a process-global counter, so
// epochs never repeat within a responder process and a proxy holding a
// base from before a responder restart can never have its baseEpoch
// matched — the responder falls back to a full transfer, which is also the
// redial/resume resync path. The crc over the reassembled blob is a
// belt-and-suspenders integrity check: on mismatch the proxy reports
// errWireSnapStale, drops its base and re-fetches full. The transfer is
// therefore lossless end to end; delta mode changes bytes on the wire,
// never the blob the caller sees.

import (
	"errors"
	"hash/crc32"
)

// Snapshot response forms.
const (
	wireSnapFull  = 0
	wireSnapDelta = 1
)

// wireDeltaMinRun is the shortest equal run worth switching out of a
// literal for: each op pair costs at least two varint bytes, so equal runs
// shorter than this are folded into the surrounding literal.
const wireDeltaMinRun = 8

// errWireSnapStale marks a delta response that does not apply to the
// proxy's cached base (length or checksum mismatch). The proxy reacts by
// dropping the base and re-fetching a full snapshot.
var errWireSnapStale = errors.New("stale snapshot delta base")

// appendSnapDeltaOps encodes cur as ops against base (which must have the
// same length) into e, as alternating equal-run/literal-run pairs covering
// every byte of cur.
func appendSnapDeltaOps(e *wireEnc, base, cur []byte) {
	i := 0
	for i < len(cur) {
		eq := i
		for eq < len(cur) && cur[eq] == base[eq] {
			eq++
		}
		equalLen := eq - i
		if equalLen < wireDeltaMinRun && eq < len(cur) {
			// Too short to pay for an op pair: scan forward through the
			// literal until the next long-enough equal run (or the end).
			lit := eq
			run := 0
			for lit < len(cur) {
				if cur[lit] == base[lit] {
					run++
					if run >= wireDeltaMinRun {
						lit -= run - 1
						break
					}
				} else {
					run = 0
				}
				lit++
			}
			if lit > len(cur) {
				lit = len(cur)
			}
			e.Uvarint(uint64(equalLen))
			e.Uvarint(uint64(lit - eq))
			e.Raw(cur[eq:lit])
			i = lit
			continue
		}
		// Long equal run (or trailing one): emit it with an empty literal
		// unless a literal follows, in which case the next iteration pairs
		// them naturally — here we just emit the pair with whatever literal
		// starts at eq.
		lit := eq
		for lit < len(cur) && cur[lit] != base[lit] {
			lit++
		}
		e.Uvarint(uint64(equalLen))
		e.Uvarint(uint64(lit - eq))
		e.Raw(cur[eq:lit])
		i = lit
	}
}

// decodeSnapDelta reassembles a delta body against base, which the caller
// has verified to have length newLen. Returns nil with the decoder failed
// on malformed ops.
func decodeSnapDelta(d *wireDec, base []byte, newLen int) []byte {
	out := make([]byte, 0, newLen)
	for len(out) < newLen {
		equalLen := int(d.Uvarint())
		litLen := int(d.Uvarint())
		if d.Err() != nil {
			return nil
		}
		if equalLen < 0 || litLen < 0 || equalLen > newLen-len(out) || litLen > newLen-len(out)-equalLen {
			d.Failf("snapshot delta ops overrun blob length %d", newLen)
			return nil
		}
		out = append(out, base[len(out):len(out)+equalLen]...)
		lit := d.Take(litLen)
		if d.Err() != nil {
			return nil
		}
		out = append(out, lit...)
	}
	return out
}

// snapDeltaCRC is the integrity checksum over a full snapshot blob,
// verified by the proxy after reassembly.
func snapDeltaCRC(blob []byte) uint32 { return crc32.ChecksumIEEE(blob) }

// encodeWireSnapshot writes the delta-capable snapshot response body for
// blob, serving a delta only when the peer's base epoch matches this
// connection's cache, the blob lengths line up (gtvsnap images of an
// unchanged model are fixed-width, so a length change means a structural
// change no aligned delta covers), and the encoded ops actually come out
// smaller than the full blob. The cache is updated to the served blob
// either way.
func encodeWireSnapshot(enc *wireEnc, snaps *wireSnapCache, blob []byte, haveEpoch uint64) {
	epoch := wireSnapEpoch.Add(1)
	snaps.mu.Lock()
	base, baseEpoch := snaps.blob, snaps.epoch
	snaps.blob = append([]byte(nil), blob...)
	snaps.epoch = epoch
	snaps.mu.Unlock()

	if base != nil && haveEpoch != 0 && haveEpoch == baseEpoch && len(base) == len(blob) {
		ops := newWireEnc()
		appendSnapDeltaOps(ops, base, blob)
		if len(ops.Buf) < len(blob) {
			enc.U8(wireSnapDelta)
			enc.Uvarint(epoch)
			enc.U32(snapDeltaCRC(blob))
			enc.Uvarint(uint64(len(blob)))
			enc.Raw(ops.Buf)
			ops.release()
			return
		}
		ops.release()
	}
	enc.U8(wireSnapFull)
	enc.Uvarint(epoch)
	enc.VarBytes(blob)
}
