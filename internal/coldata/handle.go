package coldata

import (
	"encoding/binary"
	"fmt"
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
// find, which is what a cache hit on a sparse block costs, and expand. A
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

// rowCursor walks a block's rows in order, a run of them at a time. With
// expand it is the one per-layout decode behind fill (ScanStripes) and
// codes (Reader.Codes): a layout's own loop each, with
// at()'s values.
type rowCursor struct {
	h   *blockHandle
	row int // the first row the next run expands
	// Sparse layouts: nonzero k, the next one not yet written, lies at row
	// nzRow, and its delta ends at offset p of the index stream.
	k, nzRow, p int
}

func (h *blockHandle) cursor() rowCursor {
	c := rowCursor{h: h}
	if (h.layout == layoutSparseOnes || h.layout == layoutSparse) && h.nnz > 0 {
		c.nzRow, c.p = uvarintAt(h.indexStream(), 0)
	}
	return c
}

// expand writes c's next len(dst) rows to dst, which must not run past the
// block's count, each as E(v) of the value v at() reads. For E = int64 the
// caller has checked that every float the block stores (the const, dense
// and sparse values) is an integer in int64's range.
func expand[E float64 | int64](c *rowCursor, dst []E) {
	h, lo := c.h, c.row
	c.row += len(dst)
	switch h.layout {
	case layoutConst:
		v := E(math.Float64frombits(h.constBits))
		for i := range dst {
			dst[i] = v
		}
	case layoutBitmap:
		// Row by row to a byte boundary, then a byte's eight rows at a time.
		bit := func(r int) E { return E(h.payload[r>>3] >> (r & 7) & 1) }
		i := 0
		for ; i < len(dst) && (lo+i)&7 != 0; i++ {
			dst[i] = bit(lo + i)
		}
		for ; i+8 <= len(dst); i += 8 {
			b, d := h.payload[(lo+i)>>3], dst[i:i+8]
			d[0], d[1], d[2], d[3] = E(b&1), E(b>>1&1), E(b>>2&1), E(b>>3&1)
			d[4], d[5], d[6], d[7] = E(b>>4&1), E(b>>5&1), E(b>>6&1), E(b>>7)
		}
		for ; i < len(dst); i++ {
			dst[i] = bit(lo + i)
		}
	case layoutSparseOnes, layoutSparse:
		clear(dst)
		stream := h.indexStream()
		for c.k < h.nnz && c.nzRow < c.row {
			dst[c.nzRow-lo] = E(h.sparseValue(c.k))
			if c.k++; c.k < h.nnz {
				var d int
				d, c.p = uvarintAt(stream, c.p)
				c.nzRow += d
			}
		}
	case layoutFOR:
		// parsePayload has checked that every value is exact, so each is
		// forValue's sum.
		body, base := h.payload[h.forOff:], h.forMin
		switch h.forW {
		case 1:
			body = body[lo : lo+len(dst)]
			for i, d := range body {
				dst[i] = E(base + int64(d))
			}
		case 2:
			body = body[2*lo : 2*(lo+len(dst))]
			for i := range dst {
				dst[i] = E(base + int64(binary.LittleEndian.Uint16(body[2*i:])))
			}
		case 4:
			body = body[4*lo : 4*(lo+len(dst))]
			for i := range dst {
				dst[i] = E(base + int64(binary.LittleEndian.Uint32(body[4*i:])))
			}
		default:
			body = body[8*lo : 8*(lo+len(dst))]
			for i := range dst {
				dst[i] = E(base + int64(binary.LittleEndian.Uint64(body[8*i:])))
			}
		}
	default:
		body := h.payload[8*lo : 8*(lo+len(dst))]
		for i := range dst {
			dst[i] = E(math.Float64frombits(binary.LittleEndian.Uint64(body[8*i:])))
		}
	}
}

// runRows is how many rows a strided fill or a code decode expands at a
// time: a run stays in L1 between the loop that decodes it and the loop
// that stores it.
const runRows = 256

// fill writes the block's count rows to dst[0], dst[stride], dst[2*stride]
// and so on. Every one of those cells is written (zeros included), so dst
// may be uninitialized pooled memory.
func (h *blockHandle) fill(dst []float64, stride int) {
	c := h.cursor()
	if stride == 1 {
		expand(&c, dst[:h.count])
		return
	}
	var buf [runRows]float64
	for lo := 0; lo < h.count; lo += runRows {
		run := buf[:min(runRows, h.count-lo)]
		expand(&c, run)
		out := dst[lo*stride:]
		for i, v := range run {
			out[i*stride] = v
		}
	}
}

// codes writes the block's count rows to dst as category codes, width (1, 2
// or 4) little-endian bytes a row. A row whose value is not an integer in
// [0, cats) — as an encoder writes it: −0 is not 0 — is an error naming
// it as file row base plus its row in the block.
func (h *blockHandle) codes(dst []byte, width, cats, base int) error {
	ok := h.storesIntegers()
	c := h.cursor()
	var buf [runRows]int64
	for lo := 0; ok && lo < h.count; lo += runRows {
		run := buf[:min(runRows, h.count-lo)]
		expand(&c, run)
		ok = packCodes(run, dst[lo*width:], width, cats)
	}
	if ok {
		return nil
	}
	i := 0
	for isCode(h.at(i), cats) {
		i++
	}
	return fmt.Errorf("row %d holds %v, not a category code below %d", base+i, h.at(i), cats)
}

// storesIntegers reports whether every float the block stores (a const
// block's value, a dense block's rows, a sparse block's nonzeros) is a
// non-negative integer below 2^63 with its own bits, as a code is; the
// other layouts hold integers only.
func (h *blockHandle) storesIntegers() bool {
	var bits []byte // the stored float64s
	switch h.layout {
	case layoutConst, layoutDense:
		bits = h.payload
	case layoutSparse:
		bits = h.payload[h.valOff:]
	}
	for k := 0; k < len(bits); k += 8 {
		if !isCode(math.Float64frombits(binary.LittleEndian.Uint64(bits[k:])), math.MaxInt64) {
			return false
		}
	}
	return true
}

// isCode reports whether v is an integer in [0, cats): a NaN, an infinity
// or a fraction fails the round trip through int, and −0 the sign test.
func isCode(v float64, cats int) bool {
	k := int(v)
	//lint:ignore floateq the int round trip is the intended exactness test
	return uint(k) < uint(cats) && float64(k) == v && !math.Signbit(v)
}

// packCodes stores run's codes in dst, width little-endian bytes each, and
// reports whether all of them are below cats (one test of their maximum: a
// negative code is a huge uint64).
func packCodes(run []int64, dst []byte, width, cats int) bool {
	var hi uint64
	switch width {
	case 1:
		dst = dst[:len(run)]
		for i, v := range run {
			hi = max(hi, uint64(v))
			dst[i] = byte(v)
		}
	case 2:
		dst = dst[:2*len(run)]
		for i, v := range run {
			hi = max(hi, uint64(v))
			binary.LittleEndian.PutUint16(dst[2*i:], uint16(v))
		}
	default:
		dst = dst[:4*len(run)]
		for i, v := range run {
			hi = max(hi, uint64(v))
			binary.LittleEndian.PutUint32(dst[4*i:], uint32(v))
		}
	}
	return hi < uint64(cats)
}
