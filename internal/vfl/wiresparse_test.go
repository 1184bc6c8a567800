package vfl

import (
	"bytes"
	"math"
	"sort"
	"testing"

	"repro/internal/condvec"
	"repro/internal/tensor"
)

// encodeMatrix returns the encoded payload of one matrix field.
func encodeMatrix(m *tensor.Dense, f32 bool) []byte {
	enc := newWireEnc()
	enc.matrix(m, f32)
	out := append([]byte(nil), enc.Buf...)
	enc.release()
	return out
}

// encodeMatrixAs encodes m under one of the three layouts the chooser weighs
// against each other, whatever it would have picked.
func encodeMatrixAs(m *tensor.Dense, f32 bool, layout byte) []byte {
	zc := tensor.CountZeroClasses(m.Data())
	enc := newWireEnc()
	switch layout {
	case wireLayoutDense:
		enc.matrixDense(m, f32)
	case wireLayoutSparse:
		enc.matrixSparse(m, f32, len(m.Data())-zc.PosZero)
	case wireLayoutMasked:
		enc.matrixMasked(m, f32, zc.Zero)
	}
	out := append([]byte(nil), enc.Buf...)
	enc.release()
	return out
}

// requireCheapestLayout holds one encoding to the chooser's contract: among
// dense, index list and masked — all three admit any matrix of at most
// wireMaxSparseElems elements — none is shorter than the one chosen, and an
// equally long one has a higher layout number.
func requireCheapestLayout(t *testing.T, name string, m *tensor.Dense, f32 bool, chosen []byte) {
	t.Helper()
	for _, alt := range []byte{wireLayoutDense, wireLayoutSparse, wireLayoutMasked} {
		other := encodeMatrixAs(m, f32, alt)
		if len(other) < len(chosen) || (len(other) == len(chosen) && alt < chosen[0]) {
			t.Errorf("%s: chose layout %d at %d bytes, layout %d takes %d", name, chosen[0], len(chosen), alt, len(other))
		}
	}
}

// requireBitsSurvive decodes an encoding and compares raw bits with m (with
// m's per-element float32 rounding in f32 mode).
func requireBitsSurvive(t *testing.T, name string, m *tensor.Dense, f32 bool, encoded []byte) {
	t.Helper()
	dec := newWireDec(encoded)
	got := dec.matrix()
	if err := dec.Finish(); err != nil {
		t.Fatalf("%s: decode: %v", name, err)
	}
	defer got.Release()
	if got.Rows() != m.Rows() || got.Cols() != m.Cols() {
		t.Fatalf("%s: decoded shape %dx%d, want %dx%d", name, got.Rows(), got.Cols(), m.Rows(), m.Cols())
	}
	for i, v := range got.Data() {
		want := m.Data()[i]
		if f32 {
			want = float64(float32(want))
		}
		if math.Float64bits(v) != math.Float64bits(want) {
			t.Fatalf("%s: element %d bits %016x -> %016x", name, i, math.Float64bits(want), math.Float64bits(v))
		}
	}
}

// TestWireMatrixLayoutSelection pins the encoder's per-frame layout choice
// as a cost table: each case names the layout it must take and, for the
// matrices that are not 0/1, holds that choice to being the shortest of the
// three candidate encodings, ties to the lower number. The crossovers sit
// where the cost formulae put them: 64 elements make two 8-byte planes, so
// masked beats dense from the third zero on and the index list beats masked
// below fifteen entries.
func TestWireMatrixLayoutSelection(t *testing.T) {
	negZero := math.Copysign(0, -1)
	// filled returns a 1 x n row of distinct values with the listed
	// positions overwritten by v.
	filled := func(n int, v float64, at ...int) *tensor.Dense {
		m := tensor.New(1, n)
		for i := range m.Data() {
			m.Data()[i] = float64(i)*0.5 + 2
		}
		for _, i := range at {
			m.Data()[i] = v
		}
		return m
	}
	// scattered returns a 1 x n row of +0 with v at the listed positions.
	scattered := func(n int, v float64, at ...int) *tensor.Dense {
		m := tensor.New(1, n)
		for _, i := range at {
			m.Data()[i] = v
		}
		return m
	}
	firstN := func(k int) []int {
		at := make([]int, k)
		for i := range at {
			at[i] = i * 3
		}
		return at
	}
	// clusters returns 28 positions in runs of adjacent ones that start 200
	// apart: every run after the first costs the index list one two-byte
	// delta.
	clusters := func(runs int) []int {
		var at []int
		for i := 0; i < 28; i++ {
			at = append(at, 200*(i%runs)+i/runs)
		}
		sort.Ints(at)
		return at
	}

	oneHot := tensor.FromRows([][]float64{{0, 1, 0, 0}, {0, 0, 0, 0}, {1, 0, 0, 0}})
	multiHot := tensor.FromRows([][]float64{{1, 1, 0, 1}, {0, 1, 1, 0}})
	sparse := tensor.New(2, 16)
	sparse.Set(0, 3, 2.5)
	dense := tensor.FromRows([][]float64{{1.5, -2}, {3, 4}})
	negZeroM := tensor.FromRows([][]float64{{0, 1}, {negZero, 0}})
	denormal := tensor.FromRows([][]float64{{0, 1}, {5e-324, 0}})
	allNegZero := tensor.New(5, 8)
	for i := range allNegZero.Data() {
		allNegZero.Data()[i] = negZero
	}

	cases := []struct {
		name string
		m    *tensor.Dense
		f32  bool
		want byte
	}{
		{"one-hot", oneHot, false, wireLayoutOneHot},
		{"multi-hot bitmap", multiHot, false, wireLayoutBitmap},
		{"all-zero", tensor.New(3, 4), false, wireLayoutOneHot},
		{"empty shape", tensor.New(0, 5), false, wireLayoutDense},
		{"sparse index list", sparse, false, wireLayoutSparse},
		{"dense floats", dense, false, wireLayoutDense},
		{"negative zero travels masked, bits intact", negZeroM, false, wireLayoutMasked},
		{"denormal travels masked, bits intact", denormal, false, wireLayoutMasked},
		{"every element -0: two planes and no values", allNegZero, false, wireLayoutMasked},
		// Masked against dense, the zeros being -0 so that the index list
		// (which would carry each as a value) is out of the running:
		// zeros*elem against the 16 plane bytes.
		{"1 zero of 64: planes cost more than they save", filled(64, negZero, 5), false, wireLayoutDense},
		{"2 zeros of 64: tie goes to dense", filled(64, negZero, 5, 40), false, wireLayoutDense},
		{"3 zeros of 64: masked", filled(64, negZero, 5, 40, 63), false, wireLayoutMasked},
		{"3 zeros of 64 in f32: 12 bytes saved do not pay for the planes", filled(64, negZero, 5, 40, 63), true, wireLayoutDense},
		{"4 zeros of 64 in f32: tie goes to dense", filled(64, negZero, 5, 40, 41, 63), true, wireLayoutDense},
		{"5 zeros of 64 in f32: masked", filled(64, negZero, 5, 6, 40, 41, 63), true, wireLayoutMasked},
		{"2 zeros of 65: a ninth byte in each plane breaks the tie", filled(65, negZero, 5, 40), false, wireLayoutDense},
		// Index list against masked, no -0: 1 + 9*entries against
		// 16 + 8*entries.
		{"14 entries of 64: index list", scattered(64, -7.5, firstN(14)...), false, wireLayoutSparse},
		{"15 entries of 64: tie goes to the index list", scattered(64, -7.5, firstN(15)...), false, wireLayoutSparse},
		{"16 entries of 64: masked", scattered(64, -7.5, firstN(16)...), false, wireLayoutMasked},
		{"14 entries of 64 in f32: index list (a delta byte each against the same planes)", scattered(64, -7.5, firstN(14)...), true, wireLayoutSparse},
		{"15 entries of 64 in f32: tie goes to the index list", scattered(64, -7.5, firstN(15)...), true, wireLayoutSparse},
		{"16 entries of 64 in f32: masked", scattered(64, -7.5, firstN(16)...), true, wireLayoutMasked},
		// The index list's lower bound (one byte a delta) says 253 bytes
		// against the planes' 256 for 28 entries of -0 in 1024 elements; the
		// exact sum adds one byte per group after the first.
		{"28 entries, 3 long deltas: 256 = 256, index list", scattered(1024, negZero, clusters(4)...), false, wireLayoutSparse},
		{"28 entries, 4 long deltas: 257 > 256, masked", scattered(1024, negZero, clusters(5)...), false, wireLayoutMasked},
	}
	for _, tc := range cases {
		got := encodeMatrix(tc.m, tc.f32)
		if got[0] != tc.want {
			t.Errorf("%s: layout %d, want %d", tc.name, got[0], tc.want)
		}
		requireBitsSurvive(t, tc.name, tc.m, tc.f32, got)
		if tc.want == wireLayoutOneHot || tc.want == wireLayoutBitmap || len(tc.m.Data()) == 0 {
			continue
		}
		requireCheapestLayout(t, tc.name, tc.m, tc.f32, got)
	}
	if got := encodeMatrix(nil, false)[0]; got != wireLayoutNil {
		t.Errorf("nil matrix: layout %d", got)
	}

	// One element past the cap the compact layouts' decoders enforce, a
	// matrix travels dense however empty it is.
	big := tensor.New(1, wireMaxSparseElems+1)
	if got := encodeMatrix(big, true); got[0] != wireLayoutDense || len(got) != 1+1+4+1+4*(wireMaxSparseElems+1) {
		t.Errorf("%d zeros: layout %d in %d bytes, want dense", wireMaxSparseElems+1, got[0], len(got))
	}
	atCap := tensor.New(2, wireMaxSparseElems/2)
	atCap.Set(1, 7, negZero)
	if got := encodeMatrix(atCap, false); got[0] != wireLayoutSparse {
		t.Errorf("%d elements, one of them -0: layout %d, want the index list", wireMaxSparseElems, got[0])
	}
}

// TestWireSparseLayoutRoundTrips round-trips every non-dense layout
// bit-exactly through a real frame cycle.
func TestWireSparseLayoutRoundTrips(t *testing.T) {
	sparse := tensor.New(5, 12)
	sparse.Set(0, 0, math.Copysign(0, -1)) // nonzero bits: carried as a value
	sparse.Set(1, 7, -3.75)
	sparse.Set(4, 11, 1e-300)
	for _, tc := range []struct {
		name string
		m    *tensor.Dense
	}{
		{"one-hot", tensor.FromRows([][]float64{{0, 0, 1}, {0, 0, 0}, {1, 0, 0}})},
		{"bitmap", tensor.FromRows([][]float64{{1, 0, 1, 1, 1, 0, 1}, {0, 1, 1, 0, 0, 1, 0}})},
		{"sparse", sparse},
		{"masked", goldenMaskedLogits()},
	} {
		dec := encodeDecode(t, func(e *wireEnc) { e.matrix(tc.m, false) })
		got := dec.matrix()
		if err := dec.Finish(); err != nil {
			t.Fatalf("%s: decode: %v", tc.name, err)
		}
		for i, v := range got.Data() {
			if math.Float64bits(v) != math.Float64bits(tc.m.Data()[i]) {
				t.Fatalf("%s: element %d bits %x -> %x", tc.name,
					i, math.Float64bits(tc.m.Data()[i]), math.Float64bits(v))
			}
		}
		got.Release()
	}
}

// TestWireMatrixHotFastPath: the sampler-fed one-hot encoder must emit
// byte-identical output to the scanning encoder, and fall back to the scan
// when the hot slice does not cover the matrix.
func TestWireMatrixHotFastPath(t *testing.T) {
	m := tensor.FromRows([][]float64{{0, 1, 0}, {0, 0, 0}, {0, 0, 1}})
	hot := []int{1, -1, 2}

	scanned := encodeMatrix(m, false)
	enc := newWireEnc()
	enc.matrixHot(m, hot)
	fast := append([]byte(nil), enc.Buf...)
	enc.release()
	if !bytes.Equal(fast, scanned) {
		t.Fatalf("fast path %x, scan path %x", fast, scanned)
	}

	enc = newWireEnc()
	enc.matrixHot(m, hot[:2]) // wrong length: must fall back, not misencode
	fallback := append([]byte(nil), enc.Buf...)
	enc.release()
	if !bytes.Equal(fallback, scanned) {
		t.Fatalf("short-hot fallback %x, scan path %x", fallback, scanned)
	}
}

// TestWireSparseDecodeRejectsMalformed hand-crafts hostile payloads for the
// compact layouts: oversized shapes must fail before allocating, pad bits of
// the bitmap and of both masked planes must be zero, one-hot indices must
// stay inside the row, and the masked layout's value section must be exactly
// what its presence plane announces.
func TestWireSparseDecodeRejectsMalformed(t *testing.T) {
	expectFail := func(name string, build func(e *wireEnc)) {
		t.Helper()
		enc := newWireEnc()
		build(enc)
		dec := newWireDec(enc.Buf)
		if m := dec.matrix(); m != nil {
			m.Release()
		}
		if err := dec.Finish(); err == nil {
			t.Fatalf("%s: decoded without error", name)
		}
		enc.release()
	}

	expectFail("sparse shape over cap", func(e *wireEnc) {
		e.U8(wireLayoutSparse)
		e.Uvarint(1 << 30) // rows
		e.Uvarint(1 << 30) // cols: would be an exabyte dense
		e.U8(8)
		e.Uvarint(0)
	})
	expectFail("sparse index out of range", func(e *wireEnc) {
		e.U8(wireLayoutSparse)
		e.Uvarint(2)
		e.Uvarint(2)
		e.U8(8)
		e.Uvarint(1)
		e.Uvarint(9) // first absolute index past n=4
		e.F64(1)
	})
	expectFail("sparse duplicate index", func(e *wireEnc) {
		e.U8(wireLayoutSparse)
		e.Uvarint(2)
		e.Uvarint(2)
		e.U8(8)
		e.Uvarint(2)
		e.Uvarint(1) // index 1
		e.F64(1)
		e.Uvarint(0) // delta 0: not strictly ascending
		e.F64(2)
	})
	expectFail("bitmap pad bits set", func(e *wireEnc) {
		e.U8(wireLayoutBitmap)
		e.Uvarint(1)
		e.Uvarint(3)
		e.U8(0xFF) // bits 3..7 are past the last element
	})
	masked := func(e *wireEnc, rows, cols uint64, elem byte, presence, sign []byte, values int) {
		e.U8(wireLayoutMasked)
		e.Uvarint(rows)
		e.Uvarint(cols)
		e.U8(elem)
		e.Raw(presence)
		e.Raw(sign)
		e.Raw(make([]byte, values))
	}
	expectFail("masked shape over cap", func(e *wireEnc) {
		masked(e, 1<<30, 1<<30, 8, nil, nil, 0)
	})
	expectFail("masked shape one element over cap", func(e *wireEnc) {
		plane := make([]byte, wireMaxSparseElems/8+1)
		masked(e, 1, wireMaxSparseElems+1, 8, plane, plane, 0)
	})
	expectFail("masked presence pad bit set", func(e *wireEnc) {
		masked(e, 1, 3, 8, []byte{0x0F}, []byte{0}, 4*8) // bit 3 is past the last element
	})
	expectFail("masked sign pad bit set", func(e *wireEnc) {
		masked(e, 1, 3, 8, []byte{0x01}, []byte{0x10}, 8)
	})
	expectFail("masked sign bit under a present element", func(e *wireEnc) {
		masked(e, 1, 3, 8, []byte{0x03}, []byte{0x02}, 2*8)
	})
	expectFail("masked value section one byte short", func(e *wireEnc) {
		masked(e, 1, 3, 8, []byte{0x03}, []byte{0x04}, 2*8-1)
	})
	expectFail("masked value section one byte long", func(e *wireEnc) {
		masked(e, 1, 3, 4, []byte{0x03}, []byte{0x04}, 2*4+1)
	})
	expectFail("masked present count past the payload", func(e *wireEnc) {
		full := bytes.Repeat([]byte{0xFF}, 512)
		masked(e, 64, 64, 8, full, make([]byte, 512), 100) // 4096 elements announced
	})
	expectFail("masked plane cut short", func(e *wireEnc) {
		masked(e, 64, 64, 8, make([]byte, 512), make([]byte, 100), 0)
	})
	expectFail("masked element size", func(e *wireEnc) {
		masked(e, 1, 3, 2, []byte{0x03}, []byte{0}, 2*2)
	})
	expectFail("one-hot index out of range", func(e *wireEnc) {
		e.U8(wireLayoutOneHot)
		e.Uvarint(1)
		e.Uvarint(2)
		e.Uvarint(5) // hot+1 = 5 -> column 4 of a 2-wide row
	})
	// cols*8 wraps to zero in 64 bits: the bound this replaced divided by it
	// and took the process down with a 12-byte frame.
	expectFail("dense width overflowing the byte count", func(e *wireEnc) {
		e.U8(wireLayoutDense)
		e.Uvarint(1)
		e.Uvarint(1 << 61)
		e.U8(8)
	})
	expectFail("dense height past the int range", func(e *wireEnc) {
		e.U8(wireLayoutDense)
		e.Uvarint(1 << 63)
		e.Uvarint(0)
		e.U8(8)
	})
	expectFail("unknown layout", func(e *wireEnc) {
		e.U8(9)
		e.Uvarint(1)
		e.Uvarint(1)
	})
}

// fuzzWireMatrix builds a matrix from fuzz input in the way FuzzVngRoundtrip
// (SNIPPETS.md) builds its values: the bytes are a script, not a payload.
// Two bytes give the shape, one the element mode, one the density; then each
// element takes a byte to decide whether it is a zero (of the sign the byte's
// low bit names) and, if not, a byte to pick from the patterns a value
// compare would misfile — 1, a denormal, the infinities, a NaN with a
// payload — or eight more bytes of arbitrary bits. An exhausted script reads
// as zeros.
func fuzzWireMatrix(script []byte) (m *tensor.Dense, f32 bool) {
	next := func() byte {
		if len(script) == 0 {
			return 0
		}
		b := script[0]
		script = script[1:]
		return b
	}
	rows, cols := int(next())%48, int(next())%48
	f32 = next()&1 != 0
	density := next()
	m = tensor.New(rows, cols)
	data := m.Data()
	for i := range data {
		if sel := next(); sel >= density {
			if sel&1 != 0 {
				data[i] = math.Copysign(0, -1)
			}
			continue
		}
		switch pick := next(); pick % 8 {
		case 0, 1:
			data[i] = 1
		case 2:
			data[i] = 5e-324
		case 3:
			data[i] = math.Inf(1)
		case 4:
			data[i] = math.Inf(-1)
		case 5:
			data[i] = math.Float64frombits(0x7FF8000000000000 | uint64(pick)<<8 | 1)
		case 6:
			data[i] = float64(int8(pick)) * 0.375
		default:
			var bits uint64
			for k := 0; k < 8; k++ {
				bits = bits<<8 | uint64(next())
			}
			data[i] = math.Float64frombits(bits)
		}
	}
	return m, f32
}

// FuzzWireMatrixRoundTrip: for any matrix the script can build, decoding the
// encoding gives the matrix back bit for bit (in f32 mode, its per-element
// rounding); the layout chosen is the shortest of those that admit the
// matrix, 0/1 matrices keeping one-hot and bitmap; and in f64 mode
// re-encoding the decoded matrix reproduces the bytes — an encoding is a
// pure function of the matrix. (In f32 mode an element that rounds to zero
// legitimately changes class on the second trip.)
func FuzzWireMatrixRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 5, 0, 128, 200, 0, 7, 201, 100, 13, 0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{8, 8, 0, 255, 1, 0, 1, 0, 1, 0}) // 0/1: the script runs out into ones
	f.Add(append([]byte{40, 17, 1, 128}, bytes.Repeat([]byte{0, 6, 255, 201}, 300)...))
	f.Fuzz(func(t *testing.T, script []byte) {
		m, f32 := fuzzWireMatrix(script)
		encoded := encodeMatrix(m, f32)
		requireBitsSurvive(t, "fuzzed", m, f32, encoded)

		zeroOne, oneHot := len(m.Data()) > 0, true
		for i := 0; i < m.Rows(); i++ {
			ones := 0
			for _, v := range m.RawRow(i) {
				switch math.Float64bits(v) {
				case wireBitsZero:
				case wireBitsOne:
					ones++
				default:
					zeroOne = false
				}
			}
			oneHot = oneHot && ones <= 1
		}
		switch {
		case zeroOne && oneHot:
			if encoded[0] != wireLayoutOneHot {
				t.Fatalf("one-hot matrix took layout %d", encoded[0])
			}
		case zeroOne:
			if encoded[0] != wireLayoutBitmap {
				t.Fatalf("0/1 matrix took layout %d", encoded[0])
			}
		case len(m.Data()) == 0:
			if encoded[0] != wireLayoutDense {
				t.Fatalf("empty matrix took layout %d", encoded[0])
			}
		default:
			if l := encoded[0]; l != wireLayoutDense && l != wireLayoutSparse && l != wireLayoutMasked {
				t.Fatalf("general matrix took layout %d", l)
			}
			requireCheapestLayout(t, "fuzzed", m, f32, encoded)
		}

		if !f32 {
			dec := newWireDec(encoded)
			back := dec.matrix()
			if again := encodeMatrix(back, false); !bytes.Equal(again, encoded) {
				t.Fatalf("re-encoding the decoded matrix changed the bytes:\n% x\n% x", encoded, again)
			}
			back.Release()
		}
	})
}

// TestCVBatchHotRoundTrip: the sampler's hot positions survive the wire, so
// the receiving side can re-encode without rescanning.
func TestCVBatchHotRoundTrip(t *testing.T) {
	in := &condvec.Batch{
		CV:      tensor.FromRows([][]float64{{0, 1, 0}, {0, 0, 0}, {1, 0, 0}}),
		Hot:     []int{1, -1, 0},
		Rows:    []int{3, 1, 4},
		Choices: []condvec.Choice{{Span: 0, Category: 1}, {Span: 0, Category: 0}, {Span: 1, Category: 0}},
	}
	dec := encodeDecode(t, func(e *wireEnc) { e.cvBatch(in, false) })
	got := dec.cvBatch()
	if err := dec.Finish(); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !got.CV.Equal(in.CV) {
		t.Fatal("CV changed across the wire")
	}
	if len(got.Hot) != 3 || got.Hot[0] != 1 || got.Hot[1] != -1 || got.Hot[2] != 0 {
		t.Fatalf("hot positions %v", got.Hot)
	}
	got.CV.Release()
}
