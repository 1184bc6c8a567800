package coldata

import (
	"encoding/binary"
	"hash/crc32"
	"math"
)

// blockHandle is one validated (stripe, column) block in its compact form:
// the payload bytes exactly as the file holds them, a few parsed header
// fields and, for the two sparse layouts, a skip table into the index
// stream. Nothing is expanded for any of the six layouts; at() reads
// straight out of the payload.
//
// A handle does not own its bytes. parseBlock leaves payload aliasing the
// frame it was given — a pooled BlockBuf that whoever acquired it releases
// once done with the handle — and the block cache keeps a block by copying
// the handle onto exact-size allocations of its own (blockCache.offer).
type blockHandle struct {
	layout  byte
	count   int
	payload []byte

	constBits uint64 // layoutConst

	// Sparse layouts: payload[idxOff:valOff] is the delta-varint stream of
	// the nnz nonzero rows, payload[valOff:] the nonzeros' raw value bits
	// (layoutSparse; empty for sparse-ones). skip[m] locates nonzero
	// m*skipStride. parseBlock reuses skip's capacity.
	nnz, idxOff, valOff int
	skip                []skipEntry

	// layoutFOR: payload[forOff:] is the array of count forW-byte deltas.
	forMin       int64
	forW, forOff int
}

// skipEntry locates one nonzero of a sparse block: its row, and the offset
// in the index stream of the delta after its own.
type skipEntry struct {
	row int32
	off uint32
}

// One skip entry per skipStride nonzeros is a quarter of a byte per nonzero,
// where the index expanded to int32 cost four on top of the one or two the
// stream takes. The stride is the hit path's speed: a lookup walks half of
// it on average, a varint a step, each step waiting on the byte before. At
// 64 a lookup in a thinly populated one-hot column (some hundred nonzeros
// in 64 Ki rows, where the search it replaces was ten probes of a 4 KB
// array) ran a third slower than that search; at 32 it matches it, and the
// densely populated columns come out well ahead.
const skipStride = 32

// uvarintAt decodes the uvarint at b[p] of a stream parseSparse has
// validated, returning it and the offset after it. It checks nothing, and
// is small enough to inline into the two loops that walk such a stream:
// find, which is what a cache hit on a sparse block costs, and fill. A
// sparse block's index stream is one uvarint per nonzero, the first its
// row, each later one the gap (at least 1) from the nonzero before; gaps
// under 128 are a single byte, and that is most of a one-hot column. (The
// loop carries its condition in a variable because goroleak reads a bare
// `for` with a return inside as endless, and scans decode on a goroutine.)
func uvarintAt(b []byte, p int) (v, next int) {
	v = int(b[p])
	p++
	if v < 0x80 {
		return v, p
	}
	v &= 0x7f
	for s, more := 7, true; more; s += 7 {
		c := int(b[p])
		p++
		v |= (c & 0x7f) << s
		more = c >= 0x80
	}
	return v, p
}

// parseBlock validates one framed block (exactly raw, as read from the
// file) into h, which afterwards aliases raw. wantCount is the row count
// the footer implies for this block; anything else is corruption. Every
// load runs every check: the CRC, the framing and the whole payload.
func parseBlock(h *blockHandle, raw []byte, wantCount int) error {
	if len(raw) < 1+1+1+4 {
		return corruptf("block too short (%d bytes)", len(raw))
	}
	body, crcBytes := raw[:len(raw)-4], raw[len(raw)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(crcBytes) {
		return corruptf("block CRC mismatch")
	}
	layout := body[0]
	if layout >= numLayouts {
		return corruptf("unknown block layout %d", layout)
	}
	rest := body[1:]
	count64, rest, err := readUvarint(rest)
	if err != nil {
		return err
	}
	if int64(count64) != int64(wantCount) {
		return corruptf("block has %d rows, footer implies %d", count64, wantCount)
	}
	plen, rest, err := readUvarint(rest)
	if err != nil {
		return err
	}
	if uint64(len(rest)) != plen {
		return corruptf("block payload length %d, frame holds %d", plen, len(rest))
	}
	*h = blockHandle{layout: layout, count: wantCount, payload: rest, skip: h.skip[:0]}
	return h.parsePayload()
}

func (h *blockHandle) parsePayload() error {
	p := h.payload
	switch h.layout {
	case layoutConst:
		if len(p) != 8 {
			return corruptf("const payload %d bytes", len(p))
		}
		h.constBits = binary.LittleEndian.Uint64(p)
	case layoutBitmap:
		if len(p) != (h.count+7)/8 {
			return corruptf("bitmap payload %d bytes for %d rows", len(p), h.count)
		}
		if h.count%8 != 0 && len(p) > 0 && p[len(p)-1]>>(uint(h.count)%8) != 0 {
			return corruptf("bitmap has bits set past the last row")
		}
	case layoutSparseOnes, layoutSparse:
		return h.parseSparse()
	case layoutFOR:
		zz, rest, err := readUvarint(p)
		if err != nil {
			return err
		}
		h.forMin = unzigzag(zz)
		if h.forMin < -maxExactInt || h.forMin > maxExactInt {
			return corruptf("FOR minimum %d outside exact-integer range", h.forMin)
		}
		if len(rest) < 1 {
			return corruptf("FOR payload missing width")
		}
		w := int(rest[0])
		if w != 1 && w != 2 && w != 4 && w != 8 {
			return corruptf("FOR width %d", w)
		}
		rest = rest[1:]
		if len(rest) != w*h.count {
			return corruptf("FOR body %d bytes for %d rows of width %d", len(rest), h.count, w)
		}
		h.forW, h.forOff = w, len(p)-len(rest)
		// A delta narrower than 8 bytes is under 2^(8w): from a minimum at
		// least that far below the bound, every value is exact, and the
		// walk (a load's whole cost on a block of small codes) would only
		// say so again.
		if w == 8 || h.forMin > maxExactInt-(int64(1)<<(8*w)-1) {
			for i := 0; i < h.count; i++ {
				if _, ok := h.forValue(i); !ok {
					return corruptf("FOR value out of exact-integer range")
				}
			}
		}
	default: // layoutDense
		if len(p) != 8*h.count {
			return corruptf("dense payload %d bytes for %d rows", len(p), h.count)
		}
	}
	return nil
}

// parseSparse validates a sparse payload — nnz, then nnz index deltas, then
// (layoutSparse) nnz nonzero values — and builds the skip table in the same
// walk of the index stream.
func (h *blockHandle) parseSparse() error {
	p := h.payload
	nnz64, rest, err := readUvarint(p)
	if err != nil {
		return err
	}
	if nnz64 > uint64(h.count) {
		return corruptf("sparse block claims %d nonzeros in %d rows", nnz64, h.count)
	}
	h.nnz = int(nnz64)
	h.idxOff, h.valOff = len(p)-len(rest), len(p)
	if h.layout == layoutSparse {
		if len(rest) < 8*h.nnz {
			return corruptf("sparse payload %d bytes short of %d values", len(rest), h.nnz)
		}
		h.valOff -= 8 * h.nnz
	}
	stream, at, row := h.indexStream(), 0, 0
	for k := 0; k < h.nnz; k++ {
		if at == len(stream) {
			return corruptf("sparse index stream ends after %d of %d nonzeros", k, h.nnz)
		}
		d, n := uint64(stream[at]), 1
		if d >= 0x80 {
			if d, n = binary.Uvarint(stream[at:]); n <= 0 {
				return corruptf("bad uvarint")
			}
		}
		at += n
		if k > 0 && d == 0 {
			return corruptf("sparse indices not strictly ascending")
		}
		// d is bounded as an unsigned number, before it is added to a row: a
		// delta of 2^63 or more would wrap a signed sum back into range.
		if d >= uint64(h.count-row) {
			return corruptf("sparse index delta %d from row %d leaves %d rows", d, row, h.count)
		}
		row += int(d)
		if k%skipStride == 0 {
			h.skip = append(h.skip, skipEntry{row: int32(row), off: uint32(at)})
		}
	}
	if at != len(stream) {
		return corruptf("%d trailing bytes in sparse index stream", len(stream)-at)
	}
	for k := 0; k < len(p)-h.valOff; k += 8 {
		if binary.LittleEndian.Uint64(p[h.valOff+k:]) == 0 {
			return corruptf("sparse block stores a zero value")
		}
	}
	return nil
}

// indexStream returns a sparse block's delta-varint index stream.
func (h *blockHandle) indexStream() []byte { return h.payload[h.idxOff:h.valOff] }

// find returns the position of row i among a sparse block's nonzeros, or
// -1 if the row is zero: a binary search of the skip table, then at most
// skipStride-1 steps along the stream.
func (h *blockHandle) find(i int) int {
	skip := h.skip
	if len(skip) == 0 || int(skip[0].row) > i {
		return -1 // no nonzero at all, or none this early
	}
	m := 0 // the last entry at or before row i
	for n := len(skip); n > 1; {
		half := n >> 1
		if int(skip[m+half].row) <= i {
			m += half
		}
		n -= half
	}
	stream := h.indexStream()
	k, row, p := m*skipStride, int(skip[m].row), int(skip[m].off)
	for row < i && p < len(stream) {
		var d int
		d, p = uvarintAt(stream, p)
		row += d
		k++
	}
	if row != i {
		return -1
	}
	return k
}

// sparseValue returns the k-th nonzero of a sparse block.
func (h *blockHandle) sparseValue(k int) float64 {
	if h.layout == layoutSparseOnes {
		return 1
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(h.payload[h.valOff+8*k:]))
}

// forValue decodes row i of a FOR block, reporting whether the integer is
// exactly representable as float64.
func (h *blockHandle) forValue(i int) (int64, bool) {
	body := h.payload[h.forOff:]
	var d uint64
	switch h.forW {
	case 1:
		d = uint64(body[i])
	case 2:
		d = uint64(binary.LittleEndian.Uint16(body[2*i:]))
	case 4:
		d = uint64(binary.LittleEndian.Uint32(body[4*i:]))
	default:
		d = binary.LittleEndian.Uint64(body[8*i:])
	}
	if d > uint64(2*maxExactInt) {
		return 0, false
	}
	v := h.forMin + int64(d)
	return v, v >= -maxExactInt && v <= maxExactInt
}

// at returns row i of the block without expanding it.
func (h *blockHandle) at(i int) float64 {
	switch h.layout {
	case layoutConst:
		return math.Float64frombits(h.constBits)
	case layoutBitmap:
		if h.payload[i/8]&(1<<uint(i%8)) != 0 {
			return 1
		}
		return 0
	case layoutSparseOnes, layoutSparse:
		k := h.find(i)
		if k < 0 {
			return 0
		}
		return h.sparseValue(k)
	case layoutFOR:
		v, _ := h.forValue(i)
		return float64(v)
	default:
		return math.Float64frombits(binary.LittleEndian.Uint64(h.payload[8*i:]))
	}
}

// lookup serves one column of a gather from the block: for every key of
// group (file row << 32 | batch position, the rows all inside the block,
// which starts at file row base) it writes that row's value to
// col[position*stride].
func (h *blockHandle) lookup(group []uint64, base int, col []float64, stride int) {
	for _, key := range group {
		col[int(uint32(key))*stride] = h.at(int(key>>32) - base)
	}
}

// fill writes the block's count rows to dst[0], dst[stride], dst[2*stride]
// and so on. Every one of those cells is written (zeros included), so dst
// may be uninitialized pooled memory.
func (h *blockHandle) fill(dst []float64, stride int) {
	switch h.layout {
	case layoutSparseOnes, layoutSparse:
		for i := 0; i < h.count; i++ {
			dst[i*stride] = 0
		}
		stream := h.indexStream()
		for k, row, p := 0, 0, 0; k < h.nnz; k++ {
			var d int
			d, p = uvarintAt(stream, p)
			row += d
			dst[row*stride] = h.sparseValue(k)
		}
	default:
		for i := 0; i < h.count; i++ {
			dst[i*stride] = h.at(i)
		}
	}
}
