// Package binfmt is the one byte layer under the repository's binary
// formats: gtvwire frame payloads (internal/vfl), gtvsnap section payloads
// (internal/snap), and the gtvcol footer and meta blobs (internal/coldata,
// internal/encoding). The formats differ in framing, length prefixes and
// matrix layouts — those stay with them — and share these rules:
//
//   - integers and floats are little-endian; varints are LEB128, signed ones
//     zigzag-coded (encoding/binary's);
//   - a Reader's first error sticks and every later read returns zero, so a
//     decoder is a straight field list that checks the error once;
//   - a count read off the input passes Count or Shape — a bound by the bytes
//     actually remaining — before it sizes an allocation;
//   - Finish rejects trailing bytes: one value has one encoding.
//
// Take aliases the input. A decoder whose input is a pooled frame or a file
// image the caller discards copies what it keeps.
package binfmt

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// Writer appends encoded values to Buf.
type Writer struct{ Buf []byte }

func (w *Writer) U8(v byte)        { w.Buf = append(w.Buf, v) }
func (w *Writer) U32(v uint32)     { w.Buf = binary.LittleEndian.AppendUint32(w.Buf, v) }
func (w *Writer) U64(v uint64)     { w.Buf = binary.LittleEndian.AppendUint64(w.Buf, v) }
func (w *Writer) I64(v int64)      { w.U64(uint64(v)) }
func (w *Writer) F64(v float64)    { w.U64(math.Float64bits(v)) }
func (w *Writer) Uvarint(v uint64) { w.Buf = binary.AppendUvarint(w.Buf, v) }
func (w *Writer) Varint(v int64)   { w.Buf = binary.AppendVarint(w.Buf, v) }
func (w *Writer) Raw(b []byte)     { w.Buf = append(w.Buf, b...) }

// UvarintLen is the number of bytes Uvarint writes for v, for an encoder
// that sizes a layout before it commits to it.
func UvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// VarBytes appends b behind a uvarint length prefix; VarString is the same
// for a string.
func (w *Writer) VarBytes(b []byte) {
	w.Uvarint(uint64(len(b)))
	w.Buf = append(w.Buf, b...)
}

func (w *Writer) VarString(s string) {
	w.Uvarint(uint64(len(s)))
	w.Buf = append(w.Buf, s...)
}

func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// Grow ensures room for n more bytes, so an element loop never re-grows the
// buffer mid-body.
func (w *Writer) Grow(n int) {
	if cap(w.Buf)-len(w.Buf) < n {
		nb := make([]byte, len(w.Buf), len(w.Buf)+n)
		copy(nb, w.Buf)
		w.Buf = nb
	}
}

// F64s appends a raw float64 body — a dense matrix streamed straight from
// tensor.Dense.Data() — with the buffer grown once.
func (w *Writer) F64s(v []float64) {
	w.Grow(8 * len(v))
	for _, x := range v {
		w.Buf = binary.LittleEndian.AppendUint64(w.Buf, math.Float64bits(x))
	}
}

// Reader walks one encoded buffer. The zero Reader is empty; NewReader
// starts one over a buffer.
type Reader struct {
	buf    []byte
	off    int
	err    error
	domain error
}

// NewReader starts decoding buf. Every error the Reader reports wraps
// domain, which gives each format its message prefix ("gtvwire", "gtvsnap")
// or its errors.Is identity (coldata.ErrCorrupt).
func NewReader(buf []byte, domain error) Reader { return Reader{buf: buf, domain: domain} }

// Err returns the sticky error without Finish's trailing-bytes check, for
// decoders that must stop before acting on a zero value.
func (r *Reader) Err() error { return r.err }

// Remaining reports how many undecoded bytes are left.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// Failf fails the Reader with a formatted message unless it has already
// failed — so a decoder's own checks need no guard: on zero values read
// past a failure they can only repeat a failure that sticks. A %w argument
// stays on the error's chain.
func (r *Reader) Failf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: "+format, append([]any{r.domain}, args...)...)
	}
}

// Finish reports the sticky error, and fails a Reader that has bytes left:
// a decoder that stops short of its input disagrees with the encoder.
func (r *Reader) Finish() error {
	if r.err == nil && r.off != len(r.buf) {
		r.Failf("%d trailing bytes", len(r.buf)-r.off)
	}
	return r.err
}

// Take returns the next n bytes, aliasing the input, or nil after failing
// the Reader when fewer remain.
func (r *Reader) Take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.Remaining() < n {
		r.Failf("truncated: need %d bytes at offset %d of %d", n, r.off, len(r.buf))
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

func (r *Reader) U8() byte {
	if b := r.Take(1); b != nil {
		return b[0]
	}
	return 0
}

func (r *Reader) U32() uint32 {
	if b := r.Take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (r *Reader) U64() uint64 {
	if b := r.Take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (r *Reader) I64() int64   { return int64(r.U64()) }
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }
func (r *Reader) Bool() bool   { return r.U8() != 0 }

// Uvarint decodes an unsigned LEB128 varint; truncation and a value
// overflowing 64 bits both fail the Reader.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.Failf("invalid varint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

// Varint decodes a zigzag-coded signed varint.
func (r *Reader) Varint() int64 {
	u := r.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// VarBytes returns the bytes behind a uvarint length prefix, aliasing the
// input like Take (a length past the int range converts negative, which
// Take rejects).
func (r *Reader) VarBytes() []byte { return r.Take(int(r.Uvarint())) }

// Count bounds n, an element count read off the input, by the bytes
// remaining: each element takes at least minBytes of them, so a larger n
// cannot be honest. It returns n as an int, or 0 after failing the Reader;
// nothing may be allocated from a count that has not passed it.
func (r *Reader) Count(n uint64, minBytes int, what string) int {
	if r.err != nil {
		return 0
	}
	if n > uint64(r.Remaining()/minBytes) {
		r.Failf("%s count %d exceeds the %d bytes remaining", what, n, r.Remaining())
		return 0
	}
	return int(n)
}

// Shape is Count for a rows x cols body of elem-byte elements. The division
// keeps rows*cols*elem from overflowing; an empty matrix passes with
// whatever dimensions it claims, as long as they are ints.
func (r *Reader) Shape(rows, cols uint64, elem int) (int, int) {
	if r.err != nil {
		return 0, 0
	}
	if rows > math.MaxInt || cols > math.MaxInt || (cols != 0 && rows > uint64(r.Remaining()/elem)/cols) {
		r.Failf("matrix shape %dx%d exceeds the %d bytes remaining", rows, cols, r.Remaining())
		return 0, 0
	}
	return int(rows), int(cols)
}

// F64s fills dst from a raw float64 body, the inverse of Writer.F64s.
func (r *Reader) F64s(dst []float64) {
	raw := r.Take(8 * len(dst))
	if raw == nil {
		return
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
}
