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

// blockStats is the single-pass scan feeding the encoding chooser.
type blockStats struct {
	n           int
	firstBits   uint64
	allSame     bool
	nnz         int   // values with bits != 0
	deltaBytes  int   // delta-varint byte cost of the nonzero index list
	allZeroOne  bool  // every value is bitwise +0.0 or 1.0
	nonzeroOnes bool  // every nonzero is bitwise 1.0
	allIntegral bool  // every value is an exactly-representable integer
	minI, maxI  int64 // integral range (valid when allIntegral)
}

func scanBlock(vals []float64) blockStats {
	s := blockStats{
		n: len(vals), allSame: true, allZeroOne: true,
		nonzeroOnes: true, allIntegral: true,
	}
	prevNZ := -1
	for i, v := range vals {
		b := math.Float64bits(v)
		if i == 0 {
			s.firstBits = b
		} else if b != s.firstBits {
			s.allSame = false
		}
		if b != 0 {
			s.nnz++
			if prevNZ < 0 {
				s.deltaBytes += binfmt.UvarintLen(uint64(i))
			} else {
				s.deltaBytes += binfmt.UvarintLen(uint64(i - prevNZ))
			}
			prevNZ = i
			if b != oneBits {
				s.nonzeroOnes = false
				s.allZeroOne = false
			}
		}
		if s.allIntegral {
			var iv int64
			switch {
			case b == 0:
				// +0.0, and 1.0 below: the cells of one-hot columns, which
				// are most of an encoded matrix, need no float arithmetic
				// to be known integral.
			case b == oneBits:
				iv = 1
			//lint:ignore floateq Trunc round-trip is the intended exactness test for integer-valued floats
			case v != math.Trunc(v) || v < float64(-maxExactInt) || v > float64(maxExactInt) || b == 1<<63:
				// Integral means the int64 round trip is bit-exact, which
				// excludes -0.0 (int64 cannot carry its sign), NaN and ±Inf.
				s.allIntegral = false
				continue
			default:
				iv = int64(v)
			}
			if i == 0 || iv < s.minI {
				s.minI = iv
			}
			if i == 0 || iv > s.maxI {
				s.maxI = iv
			}
		}
	}
	return s
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

// chooseLayout runs the bit-exact cost scan and returns the cheapest
// layout for vals together with its exact payload byte count. Ties break
// toward the lower layout id, which makes encoding deterministic.
func chooseLayout(vals []float64) (byte, blockStats) {
	s := scanBlock(vals)
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
	}
	if s.nonzeroOnes {
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
	return best, s
}

// appendBlock encodes vals as one framed block:
//
//	layout u8 | count uvarint | payloadLen uvarint | payload | crc32 u32
//
// where the CRC covers everything before it. The frame is appended to dst.
func appendBlock(dst []byte, vals []float64) []byte {
	layout, s := chooseLayout(vals)
	return appendFrame(dst, layout, len(vals), encodePayload(nil, layout, s, vals))
}

// appendFrame appends the frame around one block's payload.
func appendFrame(dst []byte, layout byte, count int, payload []byte) []byte {
	start := len(dst)
	dst = append(dst, layout)
	dst = appendUvarint(dst, uint64(count))
	dst = appendUvarint(dst, uint64(len(payload)))
	dst = append(dst, payload...)
	return appendCRC(dst, start)
}

func encodePayload(dst []byte, layout byte, s blockStats, vals []float64) []byte {
	switch layout {
	case layoutConst:
		dst = binary.LittleEndian.AppendUint64(dst, s.firstBits)
	case layoutBitmap:
		bits := make([]byte, (len(vals)+7)/8)
		for i, v := range vals {
			if math.Float64bits(v) == oneBits {
				bits[i/8] |= 1 << uint(i%8)
			}
		}
		dst = append(dst, bits...)
	case layoutSparseOnes, layoutSparse:
		dst = appendUvarint(dst, uint64(s.nnz))
		prev := -1
		for i, v := range vals {
			if math.Float64bits(v) == 0 {
				continue
			}
			if prev < 0 {
				dst = appendUvarint(dst, uint64(i))
			} else {
				dst = appendUvarint(dst, uint64(i-prev))
			}
			prev = i
		}
		if layout == layoutSparse {
			for _, v := range vals {
				if b := math.Float64bits(v); b != 0 {
					dst = binary.LittleEndian.AppendUint64(dst, b)
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
