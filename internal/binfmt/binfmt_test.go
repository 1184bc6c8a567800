package binfmt

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
)

var errDomain = errors.New("testfmt")

// everyPrimitive writes one of each value the Writer knows and returns the
// field list that reads it back.
func everyPrimitive(w *Writer) func(t *testing.T, r *Reader) {
	floats := []float64{0, math.Copysign(0, -1), 1.5, math.Inf(-1), math.NaN(), math.SmallestNonzeroFloat64}
	w.U8(0xfe)
	w.U32(0xdeadbeef)
	w.U64(1<<63 | 7)
	w.I64(-42)
	w.F64(-2.5)
	w.Bool(true)
	w.Bool(false)
	w.Uvarint(0)
	w.Uvarint(math.MaxUint64)
	w.Varint(math.MinInt64)
	w.Varint(63)
	w.Raw([]byte{9, 8})
	w.VarBytes([]byte{1, 2, 3})
	w.VarString("gtv")
	w.VarString("")
	w.F64s(floats)
	return func(t *testing.T, r *Reader) {
		t.Helper()
		check := func(what string, ok bool) {
			t.Helper()
			if !ok && r.Err() == nil {
				t.Errorf("%s read back wrong", what)
			}
		}
		check("U8", r.U8() == 0xfe)
		check("U32", r.U32() == 0xdeadbeef)
		check("U64", r.U64() == 1<<63|7)
		check("I64", r.I64() == -42)
		check("F64", r.F64() == -2.5)
		check("Bool true", r.Bool())
		check("Bool false", !r.Bool())
		check("Uvarint 0", r.Uvarint() == 0)
		check("Uvarint max", r.Uvarint() == math.MaxUint64)
		check("Varint min", r.Varint() == math.MinInt64)
		check("Varint 63", r.Varint() == 63)
		check("Raw", bytes.Equal(r.Take(2), []byte{9, 8}))
		check("VarBytes", bytes.Equal(r.VarBytes(), []byte{1, 2, 3}))
		check("VarString", string(r.VarBytes()) == "gtv")
		check("empty VarString", len(r.VarBytes()) == 0)
		got := make([]float64, len(floats))
		r.F64s(got)
		for i := range got {
			check("F64s", math.Float64bits(got[i]) == math.Float64bits(floats[i]))
		}
	}
}

func TestRoundTrip(t *testing.T) {
	var w Writer
	read := everyPrimitive(&w)
	r := NewReader(w.Buf, errDomain)
	read(t, &r)
	if err := r.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
}

// TestEncodedBytes pins the byte order and the varint coding, which the
// three formats' golden fixtures only pin through their own framing.
func TestEncodedBytes(t *testing.T) {
	var w Writer
	w.U32(0x01020304)
	w.I64(-2)
	w.F64(1)
	w.Uvarint(300)
	w.Varint(-1)
	w.VarString("ab")
	want := []byte{
		4, 3, 2, 1,
		0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
		0, 0, 0, 0, 0, 0, 0xf0, 0x3f,
		0xac, 0x02,
		0x01,
		2, 'a', 'b',
	}
	if !bytes.Equal(w.Buf, want) {
		t.Fatalf("encoded % x, want % x", w.Buf, want)
	}
}

// TestTruncationEveryCutPoint reads every proper prefix of a buffer holding
// one of each primitive: each fails, none panics, and the whole buffer plus
// one byte fails on Finish.
// TestUvarintLenIsWhatUvarintWrites: both sides of every 7-bit boundary.
func TestUvarintLenIsWhatUvarintWrites(t *testing.T) {
	for shift := 0; shift < 64; shift++ {
		for _, v := range []uint64{1<<shift - 1, 1 << shift, 1<<shift + 1} {
			var w Writer
			w.Uvarint(v)
			if got := UvarintLen(v); got != len(w.Buf) {
				t.Fatalf("UvarintLen(%#x) = %d, Uvarint wrote %d bytes", v, got, len(w.Buf))
			}
		}
	}
	if got := UvarintLen(math.MaxUint64); got != 10 {
		t.Fatalf("UvarintLen(max) = %d", got)
	}
}

func TestTruncationEveryCutPoint(t *testing.T) {
	var w Writer
	read := everyPrimitive(&w)
	for cut := 0; cut < len(w.Buf); cut++ {
		r := NewReader(w.Buf[:cut], errDomain)
		read(t, &r)
		if err := r.Finish(); err == nil {
			t.Fatalf("truncation at %d/%d bytes read without error", cut, len(w.Buf))
		}
	}
	r := NewReader(append(append([]byte(nil), w.Buf...), 0), errDomain)
	read(t, &r)
	if err := r.Finish(); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("want a trailing-bytes error, got %v", err)
	}
}

func TestStickyErrorKeepsItsChain(t *testing.T) {
	cause := errors.New("cause")
	r := NewReader([]byte{1, 2, 3}, errDomain)
	r.Failf("first failure at %d: %w", 7, cause)
	r.Failf("second failure")
	if r.U8() != 0 || r.Take(1) != nil || r.Uvarint() != 0 || r.Count(1, 1, "x") != 0 || r.Remaining() != 3 {
		t.Fatal("a failed Reader kept reading")
	}
	err := r.Finish()
	if err == nil || err.Error() != "testfmt: first failure at 7: cause" {
		t.Fatalf("Finish = %v", err)
	}
	if !errors.Is(err, cause) || !errors.Is(err, errDomain) {
		t.Fatalf("error lost its chain: %v", err)
	}
}

func TestCountAndShapeBounds(t *testing.T) {
	buf := make([]byte, 100)
	for _, c := range []struct {
		n    uint64
		min  int
		want int // -1: must fail
	}{
		{0, 1, 0}, {100, 1, 100}, {101, 1, -1}, {25, 4, 25}, {26, 4, -1},
		{4, 24, 4}, {5, 24, -1}, {1 << 24, 4, -1}, {math.MaxUint64, 1, -1},
	} {
		r := NewReader(buf, errDomain)
		got := r.Count(c.n, c.min, "element")
		if (c.want < 0) != (r.Err() != nil) || (c.want >= 0 && got != c.want) {
			t.Errorf("Count(%d, %d) over 100 bytes = %d, err %v", c.n, c.min, got, r.Err())
		}
	}
	for _, c := range []struct {
		rows, cols uint64
		elem       int
		ok         bool
	}{
		{3, 4, 8, true}, {12, 1, 8, true}, {13, 1, 8, false}, {5, 5, 4, true}, {5, 6, 4, false},
		{0, 1 << 40, 8, true}, {1 << 40, 0, 8, true},
		{1, 1 << 61, 8, false}, // cols*elem wraps to zero
		{1 << 32, 1 << 32, 8, false},
		{1 << 63, 0, 8, false}, {0, 1 << 63, 4, false},
	} {
		r := NewReader(buf, errDomain)
		rows, cols := r.Shape(c.rows, c.cols, c.elem)
		if c.ok != (r.Err() == nil) || (c.ok && (uint64(rows) != c.rows || uint64(cols) != c.cols)) {
			t.Errorf("Shape(%d, %d, %d) over 100 bytes = %d, %d, err %v", c.rows, c.cols, c.elem, rows, cols, r.Err())
		}
	}
}

func TestGrowKeepsContentsAndAppendsInPlace(t *testing.T) {
	w := Writer{Buf: []byte{1, 2, 3}}
	w.Grow(1 << 10)
	if !bytes.Equal(w.Buf, []byte{1, 2, 3}) || cap(w.Buf)-len(w.Buf) < 1<<10 {
		t.Fatalf("Grow left %v with %d spare", w.Buf, cap(w.Buf)-len(w.Buf))
	}
	base := &w.Buf[0]
	w.F64s(make([]float64, 100))
	if &w.Buf[0] != base {
		t.Fatal("an 800-byte body re-grew a buffer grown for 1024")
	}
}

// FuzzReader drives a Reader over buf with a script of reads chosen by the
// input. Whatever the bytes: nothing panics, a read never returns or skips
// more bytes than remained, Count and Shape never pass a size the remaining
// bytes could not hold, and a failed Reader stays failed where it stopped.
func FuzzReader(f *testing.F) {
	var w Writer
	everyPrimitive(&w)
	f.Add([]byte{0, 1, 2, 3, 4, 5, 5, 6, 6, 7, 7, 8, 2, 9, 9, 9, 9, 10, 6}, w.Buf)
	f.Add([]byte{11, 200, 1, 12, 3, 200, 8, 9}, []byte{0xff, 0xff, 0xff, 0xff, 0x0f, 1, 2, 3})
	f.Add([]byte{6, 6, 9}, bytes.Repeat([]byte{0xff}, 24))
	f.Add([]byte{}, []byte{})
	f.Fuzz(func(t *testing.T, script, buf []byte) {
		r := NewReader(buf, errDomain)
		// arg draws the next script byte as an operation's parameter.
		arg := func(i *int) int {
			*i++
			if *i < len(script) {
				return int(script[*i])
			}
			return 0
		}
		for i := 0; i < len(script); i++ {
			before, failed := r.Remaining(), r.Err()
			zero := true
			switch script[i] % 13 {
			case 0:
				zero = r.U8() == 0
			case 1:
				zero = r.U32() == 0
			case 2:
				zero = r.U64() == 0
			case 3:
				zero = r.I64() == 0
			case 4:
				zero = r.F64() == 0
			case 5:
				zero = !r.Bool()
			case 6:
				zero = r.Uvarint() == 0
			case 7:
				zero = r.Varint() == 0
			case 8:
				n := arg(&i) - 8 // negative lengths too
				b := r.Take(n)
				zero = b == nil
				if b != nil && (len(b) != n || before-r.Remaining() != n) {
					t.Fatalf("Take(%d) returned %d bytes and consumed %d", n, len(b), before-r.Remaining())
				}
			case 9:
				b := r.VarBytes()
				zero = len(b) == 0
				if len(b) > before-r.Remaining() {
					t.Fatalf("VarBytes returned %d bytes having consumed %d", len(b), before-r.Remaining())
				}
			case 10:
				dst := make([]float64, arg(&i))
				r.F64s(dst)
				if r.Err() == nil && before-r.Remaining() != 8*len(dst) {
					t.Fatalf("F64s(%d) consumed %d bytes", len(dst), before-r.Remaining())
				}
			case 11:
				n, min := r.Uvarint(), 1+arg(&i)
				left := r.Remaining()
				got := r.Count(n, min, "element")
				zero = got == 0
				if got > left/min || (r.Err() == nil && uint64(got) != n) {
					t.Fatalf("Count(%d, %d) = %d with %d bytes left", n, min, got, left)
				}
			case 12:
				rows, cols, elem := r.Uvarint(), r.Uvarint(), 1+arg(&i)%8
				left := r.Remaining()
				gr, gc := r.Shape(rows, cols, elem)
				zero = gr == 0 && gc == 0
				if gr < 0 || gc < 0 || (gc != 0 && gr > left/elem/gc) {
					t.Fatalf("Shape(%d, %d, %d) = %d, %d with %d bytes left", rows, cols, elem, gr, gc, left)
				}
			}
			if after := r.Remaining(); after < 0 || after > before {
				t.Fatalf("op %d moved Remaining from %d to %d", script[i]%13, before, after)
			}
			if failed != nil && (r.Err() != failed || r.Remaining() != before || !zero) {
				t.Fatalf("a failed Reader moved on: op %d, err %v -> %v, remaining %d -> %d, zero result %v",
					script[i]%13, failed, r.Err(), before, r.Remaining(), zero)
			}
		}
		if err := r.Finish(); err != nil && !errors.Is(err, errDomain) {
			t.Fatalf("error outside the domain: %v", err)
		}
	})
}
