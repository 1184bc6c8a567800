package vfl

import (
	"bytes"
	"math"
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

// TestWireMatrixLayoutSelection pins the encoder's per-frame layout
// choice, including the bit-exactness guards: only the exact bit patterns
// of 0.0 and 1.0 may classify as sparse material — negative zero and
// denormals must force the dense layout.
func TestWireMatrixLayoutSelection(t *testing.T) {
	oneHot := tensor.FromRows([][]float64{{0, 1, 0, 0}, {0, 0, 0, 0}, {1, 0, 0, 0}})
	multiHot := tensor.FromRows([][]float64{{1, 1, 0, 1}, {0, 1, 1, 0}})
	sparse := tensor.New(2, 16)
	sparse.Set(0, 3, 2.5)
	dense := tensor.FromRows([][]float64{{1.5, -2}, {3, 4}})
	negZero := tensor.FromRows([][]float64{{0, 1}, {math.Copysign(0, -1), 0}})
	denormal := tensor.FromRows([][]float64{{0, 1}, {5e-324, 0}})

	cases := []struct {
		name string
		m    *tensor.Dense
		want byte
	}{
		{"one-hot", oneHot, wireLayoutOneHot},
		{"multi-hot bitmap", multiHot, wireLayoutBitmap},
		{"sparse index list", sparse, wireLayoutSparse},
		{"dense floats", dense, wireLayoutDense},
		{"all-zero", tensor.New(3, 4), wireLayoutOneHot},
		{"negative zero stays dense", negZero, wireLayoutDense},
		{"denormal stays dense", denormal, wireLayoutDense},
		{"empty shape", tensor.New(0, 5), wireLayoutDense},
	}
	for _, tc := range cases {
		if got := encodeMatrix(tc.m, false)[0]; got != tc.want {
			t.Errorf("%s: layout %d, want %d", tc.name, got, tc.want)
		}
	}
	if got := encodeMatrix(nil, false)[0]; got != wireLayoutNil {
		t.Errorf("nil matrix: layout %d", got)
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
// new layouts: oversized sparse shapes must fail before allocating, bitmap
// pad bits must be zero, and one-hot indices must stay inside the row.
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
