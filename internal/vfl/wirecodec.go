package vfl

// Payload codec for the gtvwire frame protocol (see wire.go for the frame
// layout): internal/binfmt's Writer over a pooled byte buffer and its Reader
// over a received payload, plus what is gtvwire's own — uvarint lengths,
// zigzag ints, the five matrix layouts, the cost-exact choice between them
// and the ownership of the pooled tensors they decode into. Malformed
// frames surface as one descriptive error instead of a panic
// (FuzzWireFrameDecode holds the codec to that; FuzzWireMatrixRoundTrip
// holds the matrix codec to bit-exact round trips under the shortest
// admissible layout).

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"

	"repro/internal/binfmt"
	"repro/internal/condvec"
	"repro/internal/encoding"
	"repro/internal/tensor"
)

// Matrix element encodings. The elemSize byte stored per matrix is
// authoritative on decode, so a float32 sender and a float64 reader always
// agree on the byte layout.
const (
	wireElemF64 = 8
	wireElemF32 = 4
)

// Matrix payload layouts: the first byte of every matrix field. The
// encoder counts each matrix's zero classes once (tensor.CountZeroClasses)
// and picks the layout with the fewest bytes among those that reproduce the
// matrix bit for bit, so layout choice is invisible to decoded values (f32
// element rounding excepted, exactly as in the dense layout) and an encoding
// is a pure function of the matrix. With n elements of elem bytes, z of them
// +0, zz of them +0 or -0, after the layout byte and the two shape varints:
//
//	dense   any matrix                     1 + n*elem
//	one-hot all +0/+1, <= 1 one per row    one varint per row
//	bitmap  all +0/+1                      ceil(n/8)
//	sparse  n <= 2^22                      1 + varint(n-z) + sum varint(index delta) + (n-z)*elem
//	masked  n <= 2^22                      1 + 2*ceil(n/8) + (n-zz)*elem
//
// A 0/1 matrix takes one-hot if it can, else the bitmap; every other matrix
// takes the cheapest of dense, sparse and masked, a tie going to the lower
// layout number.
const (
	wireLayoutNil    = 0 // absent matrix (the old presence byte 0)
	wireLayoutDense  = 1 // raw little-endian elements
	wireLayoutOneHot = 2 // 0/1 matrix, at most one 1 per row: per-row index
	wireLayoutBitmap = 3 // 0/1 matrix: row-major LSB-first bitmap
	wireLayoutSparse = 4 // few elements that are not +0: delta-coded index list plus values
	wireLayoutMasked = 5 // many zeros of either sign: presence and sign bit planes plus values
)

// Bit patterns the encoders classify against. Comparing bits rather than
// values keeps them lint-clean (no float ==) and strict: -0.0 and denormals
// near 1 are NOT 0/1, so the bit-set layouts can materialize exact
// +0.0/+1.0 on decode.
const (
	wireBitsZero = 0
	wireBitsOne  = 0x3FF0000000000000
)

// errWire is the domain every payload decode error wraps: the "gtvwire: "
// message prefix.
var errWire = errors.New("gtvwire")

// wireEnc accumulates one frame payload.
type wireEnc struct{ binfmt.Writer }

func newWireEnc() *wireEnc { return &wireEnc{binfmt.Writer{Buf: getWireBuf(0)}} }

// release hands the payload buffer back to the frame-buffer free list.
func (e *wireEnc) release() {
	putWireBuf(e.Buf)
	e.Buf = nil
}

// ints appends a length-prefixed list of zigzag varints (small magnitudes
// of either sign stay short; condvec uses -1 as a sentinel).
func (e *wireEnc) ints(v []int) {
	e.Uvarint(uint64(len(v)))
	for _, x := range v {
		e.Varint(int64(x))
	}
}

// matrix appends m's shape and elements under the cheapest faithful
// layout: conditional vectors and hard Gumbel outputs (exactly one +1.0
// per row) travel as per-row indices, 0/1 masks as bitmaps, top-k
// sparsified gradients as delta-coded index lists, what a Dropout leaves
// (half zeros, half of those -0) as two bit planes and the surviving
// values, and everything else as raw little-endian elements read directly
// from the tensor's backing storage. f32 selects the lossy float32 element
// encoding for the layouts that carry element bytes (dense, index-list,
// masked); the bit-set layouts are exact in either mode.
func (e *wireEnc) matrix(m *tensor.Dense, f32 bool) {
	if m == nil {
		e.U8(wireLayoutNil)
		return
	}
	data := m.Data()
	n := len(data)
	// Above the cap the compact layouts' decoders refuse the shape, and an
	// empty matrix has nothing to choose between.
	if n == 0 || n > wireMaxSparseElems {
		e.matrixDense(m, f32)
		return
	}
	zc := tensor.CountZeroClasses(data)
	if zc.PosZero+zc.One == n {
		if zc.One <= m.Rows() && oneHotRows(m) {
			e.matrixOneHot(m)
		} else {
			e.matrixBitmap(m)
		}
		return
	}
	// Byte sizes past the header and element-size byte the three share.
	elem := wireElemSize(f32)
	nnz := n - zc.PosZero
	dense := n * elem
	masked := 2*((n+7)/8) + (n-zc.Zero)*elem
	// The index list costs at least one delta byte per entry; its exact
	// size takes a second pass, made only when that bound can still win.
	sparse := binfmt.UvarintLen(uint64(nnz)) + nnz*(1+elem)
	if sparse <= min(dense, masked) {
		sparse += sparseDeltaExtraBytes(data)
	}
	switch {
	case dense <= sparse && dense <= masked:
		e.matrixDense(m, f32)
	case sparse <= masked:
		e.matrixSparse(m, f32, nnz)
	default:
		e.matrixMasked(m, f32, zc.Zero)
	}
}

// oneHotRows reports whether every row of a 0/1 matrix holds at most one 1.
func oneHotRows(m *tensor.Dense) bool {
	for i := 0; i < m.Rows(); i++ {
		ones := 0
		for _, v := range m.RawRow(i) {
			if math.Float64bits(v) == wireBitsOne {
				ones++
			}
		}
		if ones > 1 {
			return false
		}
	}
	return true
}

// sparseDeltaExtraBytes is what the index list's delta varints cost beyond
// one byte each.
func sparseDeltaExtraBytes(data []float64) int {
	extra, prev := 0, 0
	for i, v := range data {
		if math.Float64bits(v) == wireBitsZero {
			continue
		}
		extra += binfmt.UvarintLen(uint64(i-prev)) - 1
		prev = i
	}
	return extra
}

// matrixHeader appends what every present matrix starts with: the layout
// byte and the shape.
func (e *wireEnc) matrixHeader(layout byte, m *tensor.Dense) {
	e.U8(layout)
	e.Uvarint(uint64(m.Rows()))
	e.Uvarint(uint64(m.Cols()))
}

// wireElemSize is the byte width of one carried element.
func wireElemSize(f32 bool) int {
	if f32 {
		return wireElemF32
	}
	return wireElemF64
}

// elemSize appends the element-size byte of the layouts that carry element
// bytes.
func (e *wireEnc) elemSize(f32 bool) { e.U8(byte(wireElemSize(f32))) }

func (e *wireEnc) f32(v float64) { e.U32(math.Float32bits(float32(v))) }

func (e *wireEnc) matrixDense(m *tensor.Dense, f32 bool) {
	e.matrixHeader(wireLayoutDense, m)
	e.elemSize(f32)
	data := m.Data()
	if !f32 {
		e.F64s(data)
		return
	}
	e.Grow(4 * len(data))
	for _, v := range data {
		e.f32(v)
	}
}

// matrixOneHot writes one varint per row: the hot column plus one, zero
// meaning an all-zero row. ~1 byte/row instead of 8 bytes/element.
func (e *wireEnc) matrixOneHot(m *tensor.Dense) {
	e.matrixHeader(wireLayoutOneHot, m)
	for i := 0; i < m.Rows(); i++ {
		hot := uint64(0)
		for j, v := range m.RawRow(i) {
			if math.Float64bits(v) == wireBitsOne {
				hot = uint64(j) + 1
				break
			}
		}
		e.Uvarint(hot)
	}
}

// matrixHot is matrixOneHot fed from a precomputed hot-index slice
// (condvec.Batch.Hot, hot[i] < 0 for an all-zero row), skipping the
// density scan and the per-row search entirely. A hot slice that does not
// cover every row falls back to the scanning encoder.
func (e *wireEnc) matrixHot(m *tensor.Dense, hot []int) {
	if m == nil || len(hot) != m.Rows() {
		e.matrix(m, false)
		return
	}
	e.matrixHeader(wireLayoutOneHot, m)
	for _, h := range hot {
		if h < 0 {
			e.Uvarint(0)
		} else {
			e.Uvarint(uint64(h) + 1)
		}
	}
}

// matrixBitmap packs a 0/1 matrix into a row-major LSB-first bitmap over
// the flattened element index: n/8 bytes instead of 8n.
func (e *wireEnc) matrixBitmap(m *tensor.Dense) {
	e.matrixHeader(wireLayoutBitmap, m)
	data := m.Data()
	nbytes := (len(data) + 7) / 8
	e.Grow(nbytes)
	start := len(e.Buf)
	e.Buf = e.Buf[:start+nbytes]
	clear(e.Buf[start:])
	for i, v := range data {
		if math.Float64bits(v) == wireBitsOne {
			e.Buf[start+i/8] |= 1 << (uint(i) % 8)
		}
	}
}

// matrixSparse writes the nnz elements whose bits are not +0 as a
// delta-coded ascending index list with their values — the layout top-k
// sparsified gradients take, ~(1+elemSize) bytes per entry.
func (e *wireEnc) matrixSparse(m *tensor.Dense, f32 bool, nnz int) {
	e.matrixHeader(wireLayoutSparse, m)
	e.elemSize(f32)
	e.Uvarint(uint64(nnz))
	prev := 0
	for i, v := range m.Data() {
		if math.Float64bits(v) == wireBitsZero {
			continue
		}
		// The first entry is its index, every later one the distance from
		// its predecessor.
		e.Uvarint(uint64(i - prev))
		prev = i
		if f32 {
			e.f32(v)
		} else {
			e.F64(v)
		}
	}
}

// matrixMasked writes the masked form (tensor.AppendMasked): a presence bit
// and a sign bit per element, then the elements that are not among the zeros
// of either sign — ~elemSize/2 + 1/4 bytes per element of a matrix fresh out
// of a Dropout.
func (e *wireEnc) matrixMasked(m *tensor.Dense, f32 bool, zeros int) {
	e.matrixHeader(wireLayoutMasked, m)
	e.elemSize(f32)
	e.Buf = tensor.AppendMasked(e.Buf, m.Data(), zeros, wireElemSize(f32))
}

func (e *wireEnc) choices(cs []condvec.Choice) {
	e.Uvarint(uint64(len(cs)))
	for _, c := range cs {
		e.Varint(int64(c.Span))
		e.Varint(int64(c.Category))
	}
}

// cvBatch rides the Batch.Hot sparse representation straight onto the wire
// when the sampler provided it, skipping the density scan.
func (e *wireEnc) cvBatch(b *condvec.Batch, f32 bool) {
	if b.CV != nil && len(b.Hot) == b.CV.Rows() {
		e.matrixHot(b.CV, b.Hot)
	} else {
		e.matrix(b.CV, f32)
	}
	e.ints(b.Rows)
	e.choices(b.Choices)
}

// table appends a published table: its column specs in the layout the
// gtvcol meta blobs share (encoding.AppendSpecs), then the cells.
func (e *wireEnc) table(t *encoding.Table, f32 bool) {
	encoding.AppendSpecs(&e.Writer, t.Specs)
	e.matrix(t.Data, f32)
}

func (e *wireEnc) setup(s Setup) {
	e.I64(int64(s.Plan.DiscServer))
	e.I64(int64(s.Plan.DiscClient))
	e.I64(int64(s.Plan.GenServer))
	e.I64(int64(s.Plan.GenClient))
	e.I64(int64(s.SliceWidth))
	e.I64(int64(s.GenBlockWidth))
	e.I64(int64(s.DiscWidth))
	e.F64(s.LR)
	e.I64(s.Seed)
}

func (e *wireEnc) clientInfo(i ClientInfo) {
	e.I64(int64(i.Features))
	e.I64(int64(i.EncodedWidth))
	e.I64(int64(i.CVWidth))
	e.I64(int64(i.Rows))
}

// wireDec walks one received frame payload: a binfmt.Reader whose errors
// read "gtvwire: …". Strings, byte strings and matrices are copied out of
// the payload, which is a pooled frame buffer reused as soon as the call
// dispatches.
type wireDec struct{ binfmt.Reader }

func newWireDec(payload []byte) *wireDec { return &wireDec{binfmt.NewReader(payload, errWire)} }

func (d *wireDec) str() string { return string(d.VarBytes()) }

// bytes decodes a length-prefixed opaque byte string (checkpoint blobs).
func (d *wireDec) bytes() []byte { return bytes.Clone(d.VarBytes()) }

func (d *wireDec) ints() []int {
	// Each encoded int is at least one byte.
	n := d.Count(d.Uvarint(), 1, "int")
	if d.Err() != nil {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = int(d.Varint())
	}
	return out
}

// matrix decodes a matrix in any wire layout into a buffer drawn from the
// tensor free list, so the receive path allocates nothing when a
// same-shape buffer was Released by an earlier step. Ownership passes to
// the caller; see the release rules in wireclient.go / wireserver.go for
// who hands it back.
func (d *wireDec) matrix() *tensor.Dense {
	m, _ := d.matrixHot()
	return m
}

// matrixHot decodes a matrix and, for the one-hot layout, also returns the
// per-row hot indices (-1 for an all-zero row) so conditional-vector
// receivers can keep the sparse representation alongside the dense tensor.
// Other layouts return a nil hot slice.
func (d *wireDec) matrixHot() (*tensor.Dense, []int) {
	layout := d.U8()
	if layout == wireLayoutNil {
		return nil, nil
	}
	rows, cols := d.Uvarint(), d.Uvarint()
	switch layout {
	case wireLayoutDense:
		return d.matrixDense(rows, cols), nil
	case wireLayoutOneHot:
		return d.matrixOneHot(rows, cols)
	case wireLayoutBitmap:
		return d.matrixBitmap(rows, cols), nil
	case wireLayoutSparse:
		return d.matrixSparse(rows, cols), nil
	case wireLayoutMasked:
		return d.matrixMasked(rows, cols), nil
	}
	d.Failf("invalid matrix layout %d", layout)
	return nil, nil
}

// sparseShape bounds the dense expansion of the compact layouts, whose wire
// size is far below 8 B/element: without the cap a tiny frame could claim a
// huge shape and make the decoder allocate gigabytes.
func (d *wireDec) sparseShape(rows, cols uint64) (int, int) {
	if rows > wireMaxSparseElems || cols > wireMaxSparseElems || rows*cols > wireMaxSparseElems {
		d.Failf("sparse matrix shape %dx%d exceeds element limit %d", rows, cols, wireMaxSparseElems)
	}
	if d.Err() != nil {
		return 0, 0
	}
	return int(rows), int(cols)
}

// elemSize reads the element-size byte, which is authoritative on decode.
func (d *wireDec) elemSize() int {
	elem := int(d.U8())
	if elem != wireElemF64 && elem != wireElemF32 {
		d.Failf("invalid matrix element size %d", elem)
	}
	return elem
}

func (d *wireDec) matrixDense(rows, cols uint64) *tensor.Dense {
	elem := d.elemSize()
	r, c := d.Shape(rows, cols, elem)
	if d.Err() != nil {
		return nil
	}
	out := tensor.NewPooledUninit(r, c)
	data := out.Data()
	if elem == wireElemF64 {
		d.F64s(data)
		return out
	}
	raw := d.Take(4 * len(data))
	for i := range data {
		data[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:])))
	}
	return out
}

func (d *wireDec) matrixOneHot(rows, cols uint64) (*tensor.Dense, []int) {
	r, c := d.sparseShape(rows, cols)
	// Each row costs at least one varint byte.
	hot := make([]int, d.Count(uint64(r), 1, "one-hot row"))
	for i := range hot {
		h := d.Uvarint()
		if h > uint64(c) {
			d.Failf("one-hot index %d out of range for %d columns", h-1, c)
		}
		hot[i] = int(h) - 1
	}
	if d.Err() != nil {
		return nil, nil
	}
	return tensor.NewPooledOneHot(r, c, hot), hot
}

func (d *wireDec) matrixBitmap(rows, cols uint64) *tensor.Dense {
	r, c := d.sparseShape(rows, cols)
	n := r * c
	raw := d.Take((n + 7) / 8)
	// Trailing pad bits must be zero so each matrix has exactly one
	// encoding (golden fixtures and the byte-accounting tests rely on it).
	if d.Err() == nil && n%8 != 0 && raw[len(raw)-1]>>(uint(n)%8) != 0 {
		d.Failf("bitmap matrix has nonzero padding bits")
	}
	if d.Err() != nil {
		return nil
	}
	return tensor.NewPooledBitmap(r, c, raw)
}

func (d *wireDec) matrixSparse(rows, cols uint64) *tensor.Dense {
	r, c := d.sparseShape(rows, cols)
	elem := d.elemSize()
	// Each entry costs at least one index byte plus elem value bytes.
	nnz := d.Count(d.Uvarint(), 1+elem, "sparse matrix entry")
	if d.Err() != nil {
		return nil
	}
	out := tensor.NewPooled(r, c)
	data := out.Data()
	pos := 0
	for k := range nnz {
		// The first entry is its index, every later one a distance: zero
		// would repeat an element, and one past the matrix is out of range
		// whatever it is added to (the bound also keeps pos from overflowing).
		delta := d.Uvarint()
		if delta > uint64(len(data)) || (k > 0 && delta == 0) {
			d.Failf("sparse matrix index delta %d not strictly ascending within %d elements", delta, len(data))
		}
		pos += int(delta)
		v := 0.0
		if elem == wireElemF32 {
			v = float64(math.Float32frombits(d.U32()))
		} else {
			v = d.F64()
		}
		if pos >= len(data) {
			d.Failf("sparse matrix index %d out of range for %d elements", pos, len(data))
		}
		if d.Err() != nil {
			out.Release()
			return nil
		}
		data[pos] = v
	}
	return out
}

func (d *wireDec) matrixMasked(rows, cols uint64) *tensor.Dense {
	r, c := d.sparseShape(rows, cols)
	elem := d.elemSize()
	plane := (r*c + 7) / 8
	presence, sign := d.Take(plane), d.Take(plane)
	if d.Err() != nil {
		return nil
	}
	// The planes say how many elements follow; Take holds that to the bytes
	// that are there.
	present, err := tensor.MaskedPresent(r*c, presence, sign)
	if err != nil {
		d.Failf("%v", err)
		return nil
	}
	values := d.Take(present * elem)
	if d.Err() != nil {
		return nil
	}
	return tensor.NewPooledMasked(r, c, presence, sign, values, elem)
}

func (d *wireDec) choices() []condvec.Choice {
	// Each choice costs at least two varint bytes.
	out := make([]condvec.Choice, d.Count(d.Uvarint(), 2, "choice"))
	for i := range out {
		out[i].Span = int(d.Varint())
		out[i].Category = int(d.Varint())
	}
	return out
}

func (d *wireDec) cvBatch() *condvec.Batch {
	cv, hot := d.matrixHot()
	return &condvec.Batch{CV: cv, Hot: hot, Rows: d.ints(), Choices: d.choices()}
}

func (d *wireDec) setup() Setup {
	return Setup{
		Plan: Plan{
			DiscServer: int(d.I64()),
			DiscClient: int(d.I64()),
			GenServer:  int(d.I64()),
			GenClient:  int(d.I64()),
		},
		SliceWidth:    int(d.I64()),
		GenBlockWidth: int(d.I64()),
		DiscWidth:     int(d.I64()),
		LR:            d.F64(),
		Seed:          d.I64(),
	}
}

func (d *wireDec) clientInfo() ClientInfo {
	return ClientInfo{
		Features:     int(d.I64()),
		EncodedWidth: int(d.I64()),
		CVWidth:      int(d.I64()),
		Rows:         int(d.I64()),
	}
}
