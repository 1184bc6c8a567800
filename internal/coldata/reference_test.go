package coldata

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"math/rand"
	"testing"

	"repro/internal/binfmt"
	"repro/internal/tensor"
)

// The block parser as it stood before handles went compact, kept verbatim
// as the specification of the new one: parseBlockReference expands a sparse
// block's index to []int32 and copies its values, at() binary-searches
// them, fillColumn writes through Dense.Set. parseBlock must accept exactly
// the frames this accepts and serve the same float64 bits from them, with
// one listed difference: this parser adds a sparse index delta to the row
// as a signed number before comparing it with the row count, so a delta
// large enough to wrap the sum (wrappingDelta) passes the range check and
// leaves an index that is negative, repeated or simply wrong. parseBlock
// rejects those.

// blockHandleReference is one decoded (stripe, column) block in its compact form.
// Random access never expands the block: at() reads straight out of the
// retained payload (dense, bitmap, FOR) or binary-searches the expanded
// index list (sparse). buf is the pooled byte buffer backing payload; the
// handle owner (the reader's LRU cache, or a transient decode) releases it.
type blockHandleReference struct {
	layout  byte
	count   int
	payload []byte

	constBits uint64
	idx       []int32   // sparse layouts: ascending nonzero row offsets
	vals      []float64 // layoutSparse: the matching nonzero values
	forMin    int64
	forW      int
	forBody   []byte // layoutFOR: the fixed-width delta array
}

// parseBlockReference validates one framed block (exactly raw, as read from the
// file) and builds its handle. wantCount is the row count the footer
// implies for this block; anything else is corruption. On success the
// handle takes ownership of buf.
func parseBlockReference(raw []byte, wantCount int) (*blockHandleReference, error) {
	if len(raw) < 1+1+1+4 {
		return nil, corruptf("block too short (%d bytes)", len(raw))
	}
	body, crcBytes := raw[:len(raw)-4], raw[len(raw)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(crcBytes) {
		return nil, corruptf("block CRC mismatch")
	}
	layout := body[0]
	if layout >= numLayouts {
		return nil, corruptf("unknown block layout %d", layout)
	}
	rest := body[1:]
	count64, rest, err := readUvarint(rest)
	if err != nil {
		return nil, err
	}
	if int64(count64) != int64(wantCount) {
		return nil, corruptf("block has %d rows, footer implies %d", count64, wantCount)
	}
	plen, rest, err := readUvarint(rest)
	if err != nil {
		return nil, err
	}
	if uint64(len(rest)) != plen {
		return nil, corruptf("block payload length %d, frame holds %d", plen, len(rest))
	}
	h := &blockHandleReference{layout: layout, count: wantCount, payload: rest}
	if err := h.parsePayload(); err != nil {
		return nil, err
	}
	return h, nil
}

func (h *blockHandleReference) parsePayload() error {
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
		nnz64, rest, err := readUvarint(p)
		if err != nil {
			return err
		}
		if nnz64 > uint64(h.count) {
			return corruptf("sparse block claims %d nonzeros in %d rows", nnz64, h.count)
		}
		nnz := int(nnz64)
		h.idx = make([]int32, nnz)
		prev := int64(-1)
		for k := 0; k < nnz; k++ {
			d, r, err := readUvarint(rest)
			if err != nil {
				return err
			}
			rest = r
			var row int64
			if k == 0 {
				row = int64(d)
			} else {
				row = prev + int64(d)
				if d == 0 {
					return corruptf("sparse indices not strictly ascending")
				}
			}
			if row >= int64(h.count) {
				return corruptf("sparse index %d out of %d rows", row, h.count)
			}
			prev = row
			h.idx[k] = int32(row)
		}
		if h.layout == layoutSparse {
			if len(rest) != 8*nnz {
				return corruptf("sparse values %d bytes for %d nonzeros", len(rest), nnz)
			}
			h.vals = make([]float64, nnz)
			for k := range h.vals {
				bits := binary.LittleEndian.Uint64(rest[8*k:])
				if bits == 0 {
					return corruptf("sparse block stores a zero value")
				}
				h.vals[k] = math.Float64frombits(bits)
			}
		} else if len(rest) != 0 {
			return corruptf("%d trailing bytes in sparse-ones payload", len(rest))
		}
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
		h.forW, h.forBody = w, rest
		for i := 0; i < h.count; i++ {
			if _, ok := h.forValue(i); !ok {
				return corruptf("FOR value out of exact-integer range")
			}
		}
	default: // layoutDense
		if len(p) != 8*h.count {
			return corruptf("dense payload %d bytes for %d rows", len(p), h.count)
		}
	}
	return nil
}

// forValue decodes row i of a FOR block, reporting whether the integer is
// exactly representable as float64.
func (h *blockHandleReference) forValue(i int) (int64, bool) {
	var d uint64
	switch h.forW {
	case 1:
		d = uint64(h.forBody[i])
	case 2:
		d = uint64(binary.LittleEndian.Uint16(h.forBody[2*i:]))
	case 4:
		d = uint64(binary.LittleEndian.Uint32(h.forBody[4*i:]))
	default:
		d = binary.LittleEndian.Uint64(h.forBody[8*i:])
	}
	if d > uint64(2*maxExactInt) {
		return 0, false
	}
	v := h.forMin + int64(d)
	return v, v >= -maxExactInt && v <= maxExactInt
}

// at returns row i of the block without expanding it.
func (h *blockHandleReference) at(i int) float64 {
	switch h.layout {
	case layoutConst:
		return math.Float64frombits(h.constBits)
	case layoutBitmap:
		if h.payload[i/8]&(1<<uint(i%8)) != 0 {
			return 1
		}
		return 0
	case layoutSparseOnes, layoutSparse:
		k := searchInt32Reference(h.idx, int32(i))
		if k < 0 {
			return 0
		}
		if h.layout == layoutSparseOnes {
			return 1
		}
		return h.vals[k]
	case layoutFOR:
		v, _ := h.forValue(i)
		return float64(v)
	default:
		return math.Float64frombits(binary.LittleEndian.Uint64(h.payload[8*i:]))
	}
}

// fillColumn writes all count rows of the block into column col of dst,
// starting at dst row dstRow. Every cell in the range is written (zeros
// included), so dst may be uninitialized pooled memory.
func (h *blockHandleReference) fillColumn(dst *tensor.Dense, dstRow, col int) {
	switch h.layout {
	case layoutSparseOnes, layoutSparse:
		for i := 0; i < h.count; i++ {
			dst.Set(dstRow+i, col, 0)
		}
		for k, row := range h.idx {
			v := 1.0
			if h.layout == layoutSparse {
				v = h.vals[k]
			}
			dst.Set(dstRow+int(row), col, v)
		}
	default:
		for i := 0; i < h.count; i++ {
			dst.Set(dstRow+i, col, h.at(i))
		}
	}
}

// searchInt32Reference binary-searches a sorted slice, returning the position of
// want or -1.
func searchInt32Reference(xs []int32, want int32) int {
	lo, hi := 0, len(xs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if xs[mid] < want {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(xs) && xs[lo] == want {
		return lo
	}
	return -1
}

// splitFrame takes a frame appendBlock produced apart again.
func splitFrame(t testing.TB, frame []byte) (layout byte, count int, payload []byte) {
	t.Helper()
	count64, rest, err := readUvarint(frame[1:])
	if err != nil {
		t.Fatal(err)
	}
	_, rest, err = readUvarint(rest)
	if err != nil {
		t.Fatal(err)
	}
	return frame[0], int(count64), rest[:len(rest)-4]
}

// wrappingDelta reports whether a sparse payload's index stream holds a
// delta so large that the reference parser's signed row arithmetic wraps.
// No legal block has one: rows stop at maxBlockRows.
func wrappingDelta(payload []byte) bool {
	nnz, rest, err := readUvarint(payload)
	for k := uint64(0); err == nil && k < nnz; k++ {
		var d uint64
		if d, rest, err = readUvarint(rest); err == nil && d >= 1<<62 {
			return true
		}
	}
	return false
}

// checkBlockAgainstReference frames (layout, count, payload) and requires
// parseBlock and parseBlockReference to agree on it: accept or reject, and
// for an accepted block every at(i) and the filled column, bit for bit.
func checkBlockAgainstReference(t *testing.T, layout byte, count int, payload []byte) {
	t.Helper()
	frame := appendFrame(nil, layout, count, payload)
	var h blockHandle
	err := parseBlock(&h, frame, count)
	if err != nil && !errors.Is(err, ErrCorrupt) {
		t.Fatalf("parseBlock error %v does not wrap ErrCorrupt", err)
	}
	ref, refErr := parseBlockReference(frame, count)
	if (err == nil) != (refErr == nil) {
		sparse := layout == layoutSparseOnes || layout == layoutSparse
		if err != nil && sparse && wrappingDelta(payload) {
			return // the listed difference; the reference handle is not safe to read
		}
		t.Fatalf("layout %d, %d rows, payload %.64x: parseBlock says %v, the reference %v", layout, count, payload, err, refErr)
	}
	if err != nil {
		return
	}
	for i := 0; i < count; i++ {
		if got, want := h.at(i), ref.at(i); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("layout %d, payload %.64x: at(%d) = %v (%#x), reference %v (%#x)", layout, payload, i,
				got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	// Column 1 of three, so a fill that strays lands on a neighbour.
	got, want := tensor.Full(count, 3, -7), tensor.Full(count, 3, -7)
	if count > 0 {
		h.fill(got.Data()[1:], 3)
	}
	ref.fillColumn(want, 0, 1)
	for k, w := range want.Data() {
		if math.Float64bits(got.Data()[k]) != math.Float64bits(w) {
			t.Fatalf("layout %d, payload %.64x: filled cell %d = %v, reference %v", layout, payload, k, got.Data()[k], w)
		}
	}
}

// blockCases is one block of values per layout (and per shape of sparse
// index stream: one-byte gaps, multi-byte gaps, more nonzeros than one skip
// entry covers, none at all), as appendBlock encodes them.
func blockCases() []struct {
	name string
	vals []float64
} {
	block := func(n int, f func(i int) float64) []float64 {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = f(i)
		}
		return vals
	}
	every := func(step int, v float64) func(int) float64 {
		return func(i int) float64 {
			if i%step == step-1 {
				return v
			}
			return 0
		}
	}
	return []struct {
		name string
		vals []float64
	}{
		{"const", block(100, func(int) float64 { return -2.5 })},
		{"const-zero", block(9, func(int) float64 { return 0 })},
		{"bitmap", block(77, func(i int) float64 { return float64(i % 3 % 2) })},
		{"bitmap-whole-bytes", block(64, func(i int) float64 { return float64(i % 2) })},
		{"sparse-ones", block(1500, every(40, 1))},
		{"sparse-ones-wide-gaps", block(3000, every(700, 1))},
		{"sparse-ones-over-a-skip-stride", block(4000, every(17, 1))},
		{"sparse-ones-first-and-last-row", block(600, func(i int) float64 {
			if i == 0 || i == 599 {
				return 1
			}
			return 0
		})},
		{"sparse", block(1500, every(40, 2.75))},
		{"sparse-specials", block(2000, func(i int) float64 {
			switch {
			case i%90 == 3:
				return math.Copysign(0, -1)
			case i%90 == 50:
				return math.Float64frombits(0x7ff8000000000123)
			case i%300 == 7:
				return math.Inf(-1)
			}
			return 0
		})},
		{"sparse-over-a-skip-stride", block(4096, every(9, 0.125))},
		{"for-1", block(300, func(i int) float64 { return float64(18 + i%60) })},
		{"for-2", block(300, func(i int) float64 { return float64(-400 + 7*i) })},
		{"for-4", block(300, func(i int) float64 { return float64(i * 100003) })},
		{"for-8", block(300, func(i int) float64 { return float64(int64(i) * (1 << 40)) })},
		// Minimums at the last one a width's every delta is exact from, so
		// a flip in the minimum or a delta crosses the range's end.
		{"for-1-at-the-range-end", block(300, func(i int) float64 { return float64(maxExactInt - 255 + int64(i%256)) })},
		{"for-2-at-the-range-end", block(300, func(i int) float64 { return float64(maxExactInt - 65535 + int64(i*219)) })},
		{"dense", block(257, func(i int) float64 { return 0.5 + 1/float64(i+1) })},
		{"one-row", block(1, func(int) float64 { return 4.5 })},
	}
}

// TestParseBlockMatchesReference runs every case, every truncation of its
// payload and every single-byte change of it through both parsers.
func TestParseBlockMatchesReference(t *testing.T) {
	layouts := map[byte]bool{}
	for _, tc := range blockCases() {
		layout, count, payload := splitFrame(t, appendBlock(nil, tc.vals))
		layouts[layout] = true
		checkBlockAgainstReference(t, layout, count, payload)
		var h blockHandle
		if err := parseBlock(&h, appendFrame(nil, layout, count, payload), count); err != nil {
			t.Fatalf("%s: own encoding rejected: %v", tc.name, err)
		}
		for i, want := range tc.vals {
			sameBits(t, tc.name, h.at(i), want)
		}
		if len(payload) > 600 {
			payload = payload[:600] // the mutants below are quadratic in this
			checkBlockAgainstReference(t, layout, count, payload)
		}
		for cut := 0; cut < len(payload); cut++ {
			checkBlockAgainstReference(t, layout, count, payload[:cut])
		}
		mut := make([]byte, len(payload))
		for i := range payload {
			for _, flip := range []byte{0x01, 0x80, 0xff} {
				copy(mut, payload)
				mut[i] ^= flip
				checkBlockAgainstReference(t, layout, count, mut)
			}
		}
		// The same payload under every other layout id, and one row more or
		// fewer than it was written for.
		for l := byte(0); l <= numLayouts; l++ {
			checkBlockAgainstReference(t, l, count, payload)
		}
		checkBlockAgainstReference(t, layout, count+1, payload)
		checkBlockAgainstReference(t, layout, count-1, payload)
	}
	if len(layouts) != int(numLayouts) {
		t.Fatalf("cases cover layouts %v, want all %d", layouts, numLayouts)
	}
}

// TestSparseDeltaOverflowRejected: CRC-valid sparse frames whose index
// deltas wrap a signed row sum. The reference parser accepts each one — the
// first three are the frames that were found on the tree, parsing to idx
// [5 -2147483643] (fillColumn then panics), [5 5] and [3] — and parseBlock
// must not.
func TestSparseDeltaOverflowRejected(t *testing.T) {
	stream := func(nnz uint64, deltas ...uint64) []byte {
		p := appendUvarint(nil, nnz)
		for _, d := range deltas {
			p = appendUvarint(p, d)
		}
		return p
	}
	values := func(p []byte, vals ...float64) []byte {
		for _, v := range vals {
			p = binary.LittleEndian.AppendUint64(p, math.Float64bits(v))
		}
		return p
	}
	cases := []struct {
		name    string
		layout  byte
		payload []byte
	}{
		{"second index goes negative", layoutSparseOnes, stream(2, 5, 1<<63+1<<31)},
		{"second index repeats the first", layoutSparseOnes, stream(2, 5, 1<<63+1<<32)},
		{"first index truncates", layoutSparseOnes, stream(1, 1<<63+3)},
		{"sum wraps below 2^63", layoutSparseOnes, stream(2, 5, 1<<63-1)},
		{"with values", layoutSparse, values(stream(2, 5, 1<<63+1<<31), 1.5, 2.5)},
	}
	for _, tc := range cases {
		const count = 16
		frame := appendFrame(nil, tc.layout, count, tc.payload)
		if _, err := parseBlockReference(frame, count); err != nil {
			t.Errorf("%s: the reference parser rejects it (%v): not the overflow this test is about", tc.name, err)
		}
		var h blockHandle
		if err := parseBlock(&h, frame, count); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: parseBlock returned %v, want ErrCorrupt", tc.name, err)
		}
		checkBlockAgainstReference(t, tc.layout, count, tc.payload)
	}
}

// The block encoder as it stood before blocks were classified by bit masks:
// chooseLayout and encodePayload verbatim, renamed, over scanBlockReference
// (writer_test.go). appendBlock must frame exactly the bytes this frames.

// appendBlockReference encodes vals as one framed block.
func appendBlockReference(dst []byte, vals []float64) []byte {
	layout, s := chooseLayoutReference(vals)
	return appendFrame(dst, layout, len(vals), encodePayloadReference(nil, layout, s, vals))
}

// chooseLayoutReference runs the bit-exact cost scan and returns the cheapest
// layout for vals together with its exact payload byte count. Ties break
// toward the lower layout id, which makes encoding deterministic.
func chooseLayoutReference(vals []float64) (byte, blockStats) {
	s := scanBlockReference(vals)
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
	return best, s
}

func encodePayloadReference(dst []byte, layout byte, s blockStats, vals []float64) []byte {
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

// blockPalette is the values the appendBlock tests draw nonzeros from: the
// two bit patterns the masks test for and their neighbours, the specials
// every layout must carry exactly, the integers either side of FOR's range,
// and the tanh-range scalars of an encoded continuous column.
var blockPalette = []float64{
	1, // the one-hot cell, listed first so a short prefix is all ones
	math.Copysign(0, -1),
	math.Float64frombits(oneBits + 1), math.Float64frombits(oneBits - 1),
	math.Float64frombits(0x7ff8000000000123), math.Float64frombits(0xfff0000000000001), // NaNs with payloads
	math.Inf(1), math.Inf(-1),
	2, 7, -300, 1 << 40,
	float64(maxExactInt), -float64(maxExactInt), float64(maxExactInt) + 2,
	math.SmallestNonzeroFloat64, math.Float64frombits(0x800fffffffffffff), // subnormals
	0.75, -0.3125, math.Tanh(0.1), -math.Tanh(2.5),
}

// paletteBlock draws n values: +0 with probability 1 - density, otherwise
// one of the first reach palette entries (reach 0: tanh-range values only).
func paletteBlock(rng *rand.Rand, n int, density float64, reach int) []float64 {
	vals := make([]float64, n)
	for i := range vals {
		switch {
		case rng.Float64() >= density:
		case reach == 0:
			vals[i] = math.Tanh(rng.NormFloat64())
		default:
			vals[i] = blockPalette[rng.Intn(reach)]
		}
	}
	return vals
}

// checkAppendBlock requires appendBlock and appendBlockReference to frame the
// same bytes for vals, and returns the layout they chose.
func checkAppendBlock(t *testing.T, vals []float64) byte {
	t.Helper()
	got, want := appendBlock(nil, vals), appendBlockReference(nil, vals)
	if !bytes.Equal(got, want) {
		t.Fatalf("%d values, first %v: appendBlock framed %d bytes (layout %d), the reference %d (layout %d)",
			len(vals), vals[:min(len(vals), 8)], len(got), got[0], len(want), want[0])
	}
	return got[0]
}

// TestAppendBlockMatchesReference frames blocks of every length to 200 and
// either side of the 64-value word and block boundaries, at densities from
// all-zero to all-nonzero, and requires the reference's bytes.
func TestAppendBlockMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	lengths := []int{DefaultBlockRows - 1, DefaultBlockRows, DefaultBlockRows + 1}
	for n := 0; n <= 200; n++ {
		lengths = append(lengths, n)
	}
	// reach 1: ones only; 2: and -0; 12: and the small integers; 15: and
	// FOR's range ends; 0: tanh-range values; the whole palette.
	reaches := []int{1, 2, 12, 15, 0, len(blockPalette)}
	layouts := map[byte]bool{}
	for _, n := range lengths {
		for _, density := range []float64{0, 0.02, 0.3, 0.7, 0.98, 1} {
			for _, reach := range reaches {
				if n > 1000 && reach != 1 && reach != len(blockPalette) && density != 0.02 {
					continue // the long blocks take the shapes of a store's columns
				}
				layouts[checkAppendBlock(t, paletteBlock(rng, n, density, reach))] = true
			}
		}
		for _, v := range blockPalette {
			same := make([]float64, n)
			for i := range same {
				same[i] = v
			}
			layouts[checkAppendBlock(t, same)] = true
			if n > 1 {
				// The first value differs from every other.
				same[0] = 0
				checkAppendBlock(t, same)
				same[0], same[n-1] = v, 0
				checkAppendBlock(t, same)
			}
		}
	}
	if len(layouts) != int(numLayouts) {
		t.Fatalf("blocks cover layouts %v, want all %d", layouts, numLayouts)
	}
}

// FuzzAppendBlockMatchesReference turns the fuzzed bytes into a block of
// values and requires appendBlock to frame the reference's bytes for it. A
// byte below 0x80 is a palette entry (+0 when it indexes past the
// palette), 0xff followed by eight bytes is those bits as a value, and any
// other byte from 0x80 up repeats the value before it (+0 at the start) up
// to 127 times, so short inputs still reach long, sparse blocks.
func FuzzAppendBlockMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0xfe, 40, 0xfe, 0, 0xc0})
	f.Add([]byte{0xff, 1, 2, 3, 4, 5, 6, 7, 8, 0x90, 1, 0x81, 3})
	f.Add(bytes.Repeat([]byte{0xfe, 0}, 300))
	f.Fuzz(func(t *testing.T, data []byte) {
		var vals []float64
		for len(data) > 0 && len(vals) < 2*DefaultBlockRows {
			b := data[0]
			data = data[1:]
			switch {
			case b == 0xff && len(data) >= 8:
				vals = append(vals, math.Float64frombits(binary.LittleEndian.Uint64(data)))
				data = data[8:]
			case b >= 0x80:
				prev := 0.0
				if len(vals) > 0 {
					prev = vals[len(vals)-1]
				}
				for k := 0; k <= int(b&0x7f); k++ {
					vals = append(vals, prev)
				}
			case int(b) < len(blockPalette):
				vals = append(vals, blockPalette[b])
			default:
				vals = append(vals, 0)
			}
		}
		checkAppendBlock(t, vals)
	})
}
