// Package coldata implements gtvcol, the on-disk columnar file format
// behind GTV's out-of-core training. A .gtvcol file stores a row-major
// float64 matrix column by column in stripes of blockRows rows; each
// (stripe, column) block is stored under the cheapest of six bit-exact
// encodings, chosen per block by an exhaustive byte-cost scan:
//
//	dense      raw little-endian float64 bits (the fallback)
//	const      a single value repeated over the block
//	bitmap     values drawn from {0.0, 1.0}, one bit per row (LSB first)
//	sparseOnes mostly-zero with every nonzero exactly 1.0: delta-varint
//	           row indices only (one-hot indicator columns at rest)
//	sparse     mostly-zero with arbitrary nonzeros: delta-varint indices
//	           plus raw value bits
//	for        integral-valued columns: frame-of-reference minimum plus
//	           fixed-width unsigned deltas (fixed width, not varint, so a
//	           single row is readable without decoding the block — see
//	           DESIGN.md "Columnar data plane")
//
// Every encoding round-trips float64 bit patterns exactly (matching the
// gtvwire sparse layout family, applied at rest), so training from a
// .gtvcol file follows the same trajectory, bit for bit, as training from
// the in-memory matrix it was written from.
//
// The container framing follows the gtvsnap/gtvwire codec rules: magic +
// version header, length-prefixed sections, a CRC32 per block and on the
// footer, every length bounded before allocation, and trailing or
// interleaved garbage rejected (the footer's accounting must reproduce the
// file size exactly).
package coldata

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"
	"slices"

	"repro/internal/binfmt"
)

// appendCRC appends the IEEE CRC32 of dst[start:] to dst.
func appendCRC(dst []byte, start int) []byte {
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:]))
}

// Format constants. The header is the file magic plus a format version;
// the trailer ends with its own magic so truncation is caught before any
// offset in the file is trusted.
const (
	// Version is the gtvcol format version this package reads and writes.
	Version = 1

	headerSize  = 8 // "gtvcol\x00" + version byte
	trailerSize = 24
)

var (
	headMagic = [7]byte{'g', 't', 'v', 'c', 'o', 'l', 0}
	tailMagic = [8]byte{'G', 'T', 'V', 'C', 'E', 'N', 'D', '1'}
)

// Block layouts, in tie-break preference order (lower wins on equal cost).
const (
	layoutConst byte = iota
	layoutBitmap
	layoutSparseOnes
	layoutFOR
	layoutSparse
	layoutDense
	numLayouts
)

// Hard bounds. They keep hostile headers from provoking huge allocations:
// nothing is allocated before its length passes these checks.
const (
	// DefaultBlockRows is the stripe height writers use unless told
	// otherwise: 64Ki rows, i.e. 512 KiB per dense float64 block.
	DefaultBlockRows = 1 << 16

	maxBlockRows = 1 << 22
	maxCols      = 1 << 20
	maxRows      = int64(1) << 38
	maxFooterLen = 1 << 28
	maxMetaCount = 64
	maxMetaName  = 256
	maxMetaLen   = 1 << 28
)

// maxBlockLen bounds one block's byte length for a given row count. The
// worst legal case is the sparse layout with every row nonzero: a 5-byte
// index delta plus 8 value bytes per row, plus framing.
func maxBlockLen(rows int) int { return 13*rows + 64 }

// ErrCorrupt wraps every decode failure so callers can distinguish a bad
// file from an I/O error.
var ErrCorrupt = errors.New("coldata: corrupt gtvcol file")

func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// ---- varint helpers ----
//
// Same wire primitives as gtvwire: unsigned LEB128 via encoding/binary,
// with a strict reader that fails instead of silently mis-parsing.

func appendUvarint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

// readUvarint consumes a uvarint from b, returning the value and the rest.
func readUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, corruptf("bad uvarint")
	}
	return v, b[n:], nil
}

func zigzag(v int64) uint64   { return uint64((v << 1) ^ (v >> 63)) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// ---- block encoding ----

// oneBits/zeroBits are the exact bit patterns the bitmap and sparse
// classifiers test against. -0.0 has bits != zeroBits and is therefore a
// "nonzero" that survives in a sparse payload, keeping round trips exact.
const oneBits = 0x3ff0000000000000

// maxExactInt bounds the integral range the FOR layout accepts: every
// integer with |v| <= 2^52 is exactly representable as float64, so
// int64 round trips are lossless inside it.
const maxExactInt = int64(1) << 52

// blockStats is what the layout chooser needs to know about a block.
type blockStats struct {
	n           int
	firstBits   uint64
	allSame     bool
	nnz         int   // values with bits != 0
	deltaBytes  int   // delta-varint byte cost of the nonzero index list
	allZeroOne  bool  // every value is bitwise +0.0 or 1.0: every nonzero is 1.0
	allIntegral bool  // every value is an exactly-representable integer
	minI, maxI  int64 // integral range (valid when allIntegral)
}

// blockEncoder turns a block of values into its framed bytes, classifying
// each block once: classify leaves one word per 64 values marking the
// nonzeros (bits not +0) and one marking the ones (bits exactly 1.0), and
// the layout's costs, the bitmap and the sparse index and value lists are
// all read from those words. A Writer owns one, sized to its stripe height.
type blockEncoder struct {
	nz, one []uint64
}

// newBlockEncoder returns an encoder whose words cover blocks of up to rows
// values.
func newBlockEncoder(rows int) blockEncoder {
	words := (rows + 63) / 64
	return blockEncoder{nz: make([]uint64, words), one: make([]uint64, words)}
}

// scan classifies vals into e's words and takes the block's stats from them.
// Only a block holding a value other than +0 and 1.0 is read again, for the
// integral test.
func (e *blockEncoder) scan(vals []float64) blockStats {
	words := (len(vals) + 63) / 64
	e.nz, e.one = e.nz[:words], e.one[:words]
	s := blockStats{n: len(vals)}
	if s.n > 0 {
		s.firstBits = math.Float64bits(vals[0])
	}
	s.allSame = e.classify(vals, s.firstBits)
	var others uint64 // the nonzeros that are not 1.0
	for w, z := range e.nz {
		s.nnz += bits.OnesCount64(z)
		others |= z &^ e.one[w]
	}
	s.deltaBytes = e.indexBytes()
	s.allZeroOne = others == 0
	if !s.allZeroOne {
		s.allIntegral, s.minI, s.maxI = integralRange(vals)
		return s
	}
	// +0 and 1.0 are integers, so the range is which of the two occur.
	s.allIntegral = true
	if s.n > 0 && s.nnz == s.n {
		s.minI = 1
	}
	if s.nnz > 0 {
		s.maxI = 1
	}
	return s
}

// classify classifies every value of vals by its bits into e's words, 64 to
// a word, LSB first: bit i of nz[w] is set when vals[64w+i] is not +0, bit i
// of one[w] when it is 1.0, and the bits past the last value are zero. It
// reports whether every value's bits equal first. The loop has no branch on
// a value's class (in a one-hot column a zero-or-one branch is a coin
// toss): both bits are shifted in at the top of their words, and every
// value's difference from first is ORed into one word that is zero at the
// end exactly when all of them had first's bits.
func (e *blockEncoder) classify(vals []float64, first uint64) bool {
	var diff uint64
	for w := 0; len(vals) > 0; w++ {
		chunk := vals[:min(64, len(vals))]
		vals = vals[len(chunk):]
		var z, o uint64
		for _, v := range chunk {
			b := math.Float64bits(v)
			diff |= b ^ first
			x := b ^ oneBits
			z = z>>1 | (b|-b)&(1<<63)  // top bit set unless b is 0
			o = o>>1 | ^(x|-x)&(1<<63) // top bit set only if x is 0
		}
		short := 64 - uint(len(chunk))
		e.nz[w], e.one[w] = z>>short, o>>short
	}
	return diff == 0
}

// indexBytes is the delta-varint byte count of the block's nonzero index
// list (the first index is stored as a delta from 0), a word at a time: only
// a word's first nonzero can be 64 or more rows past the one before it, so
// every other nonzero in the word costs one byte.
func (e *blockEncoder) indexBytes() int {
	n, prev := 0, 0
	for w, z := range e.nz {
		if z == 0 {
			continue
		}
		first := 64*w + bits.TrailingZeros64(z)
		n += binfmt.UvarintLen(uint64(first-prev)) + bits.OnesCount64(z) - 1
		prev = 64*w + 63 - bits.LeadingZeros64(z)
	}
	return n
}

// integralRange reports whether every value is an integer an int64 carries
// bit for bit, and the range of the values before the first one that is not
// (all of them when ok).
func integralRange(vals []float64) (ok bool, minI, maxI int64) {
	for i, v := range vals {
		b := math.Float64bits(v)
		var iv int64
		switch {
		case b == 0:
			// +0.0, and 1.0 below, need no float arithmetic to be known
			// integral.
		case b == oneBits:
			iv = 1
		//lint:ignore floateq Trunc round-trip is the intended exactness test for integer-valued floats
		case v != math.Trunc(v) || v < float64(-maxExactInt) || v > float64(maxExactInt) || b == 1<<63:
			// Integral means the int64 round trip is bit-exact, which
			// excludes -0.0 (int64 cannot carry its sign), NaN and ±Inf.
			return false, minI, maxI
		default:
			iv = int64(v)
		}
		if i == 0 || iv < minI {
			minI = iv
		}
		if i == 0 || iv > maxI {
			maxI = iv
		}
	}
	return true, minI, maxI
}

// forWidth returns the fixed byte width covering an unsigned delta range.
func forWidth(span uint64) int {
	switch {
	case span < 1<<8:
		return 1
	case span < 1<<16:
		return 2
	case span < 1<<32:
		return 4
	default:
		return 8
	}
}

// cheapestLayout returns the layout that stores a block in the fewest
// payload bytes, and that byte count. Ties break toward the lower layout
// id, which makes encoding deterministic.
func cheapestLayout(s blockStats) (layout byte, size int) {
	costs := [numLayouts]int{}
	for l := range costs {
		costs[l] = -1 // ineligible
	}
	costs[layoutDense] = 8 * s.n
	if s.allSame && s.n > 0 {
		costs[layoutConst] = 8
	}
	if s.allZeroOne {
		costs[layoutBitmap] = (s.n + 7) / 8
		costs[layoutSparseOnes] = binfmt.UvarintLen(uint64(s.nnz)) + s.deltaBytes
	}
	costs[layoutSparse] = binfmt.UvarintLen(uint64(s.nnz)) + s.deltaBytes + 8*s.nnz
	if s.allIntegral && s.n > 0 {
		w := forWidth(uint64(s.maxI - s.minI))
		costs[layoutFOR] = binfmt.UvarintLen(zigzag(s.minI)) + 1 + w*s.n
	}
	best := layoutDense
	for l := byte(0); l < numLayouts; l++ {
		if costs[l] >= 0 && costs[l] < costs[best] {
			best = l
		}
	}
	return best, costs[best]
}

// appendBlock encodes vals as one framed block:
//
//	layout u8 | count uvarint | payloadLen uvarint | payload | crc32 u32
//
// where the CRC covers everything before it. The frame is appended to dst;
// the chooser's cost is the payload's exact length, so the payload is
// written in place behind its length.
func (e *blockEncoder) appendBlock(dst []byte, vals []float64) []byte {
	s := e.scan(vals)
	layout, size := cheapestLayout(s)
	start := len(dst)
	dst = slices.Grow(appendFrameHead(dst, layout, len(vals), size), size+4)
	body := len(dst)
	dst = e.appendPayload(dst, layout, s, vals)
	if len(dst)-body != size {
		panic(fmt.Sprintf("coldata: layout %d payload of %d bytes, costed at %d", layout, len(dst)-body, size))
	}
	return appendCRC(dst, start)
}

// appendFrameHead appends the fields a block frame starts with.
func appendFrameHead(dst []byte, layout byte, count, size int) []byte {
	dst = append(dst, layout)
	dst = appendUvarint(dst, uint64(count))
	return appendUvarint(dst, uint64(size))
}

// appendPayload appends the payload of vals under layout; the bitmap and
// sparse layouts read it from the words scan left.
func (e *blockEncoder) appendPayload(dst []byte, layout byte, s blockStats, vals []float64) []byte {
	switch layout {
	case layoutConst:
		dst = binary.LittleEndian.AppendUint64(dst, s.firstBits)
	case layoutBitmap:
		// The ones words are the bitmap, LSB first, cut to the block's bytes.
		full := s.n / 64
		for _, o := range e.one[:full] {
			dst = binary.LittleEndian.AppendUint64(dst, o)
		}
		if full < len(e.one) {
			o := e.one[full]
			for k := 0; k < (s.n%64+7)/8; k++ {
				dst = append(dst, byte(o))
				o >>= 8
			}
		}
	case layoutSparseOnes, layoutSparse:
		dst = appendUvarint(dst, uint64(s.nnz))
		prev := 0 // as in indexBytes
		for w, z := range e.nz {
			for ; z != 0; z &= z - 1 {
				i := 64*w + bits.TrailingZeros64(z)
				dst = appendUvarint(dst, uint64(i-prev))
				prev = i
			}
		}
		if layout == layoutSparse {
			for w, z := range e.nz {
				for ; z != 0; z &= z - 1 {
					dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(vals[64*w+bits.TrailingZeros64(z)]))
				}
			}
		}
	case layoutFOR:
		w := forWidth(uint64(s.maxI - s.minI))
		dst = appendUvarint(dst, zigzag(s.minI))
		dst = append(dst, byte(w))
		for _, v := range vals {
			d := uint64(int64(v) - s.minI)
			switch w {
			case 1:
				dst = append(dst, byte(d))
			case 2:
				dst = binary.LittleEndian.AppendUint16(dst, uint16(d))
			case 4:
				dst = binary.LittleEndian.AppendUint32(dst, uint32(d))
			default:
				dst = binary.LittleEndian.AppendUint64(dst, d)
			}
		}
	default: // layoutDense
		for _, v := range vals {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
		}
	}
	return dst
}
