package tensor

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// The masked form of a matrix, for the matrices a Dropout leaves behind:
// about half the elements are zeros, and about half of those are -0 (x*0 for
// a negative x), so neither a dense body nor an index list is cheap. The form
// is two bit planes over the flattened element index, LSB first, pad bits
// zero, followed by the elements that are not zeros:
//
//	presence plane, ceil(n/8) bytes: bit i set  <=>  element i is not +0 or -0
//	sign plane,     ceil(n/8) bytes: bit i set  <=>  element i is -0
//	present elements in index order, 8 bytes each (4 as float32)
//
// A sign bit under a set presence bit is malformed: a present element carries
// its own sign. The form is exact for every float64 bit pattern; the float32
// variant rounds each carried element once, as a dense float32 body does (an
// element that rounds to zero is still present, and comes back as that zero).
//
// CountZeroClasses is the scan that sizes the form, AppendMasked writes it
// and NewPooledMasked expands it; gtvwire's masked matrix layout is their one
// caller (internal/vfl/wirecodec.go).

// Bit patterns the scan classifies by. Comparing bits keeps -0, denormals
// and NaN payloads apart from the values they compare equal or unequal to.
const (
	bitsOne     = 0x3FF0000000000000
	bitsNegZero = 1 << 63
)

// ZeroClasses counts the elements of a matrix that have the bit patterns a
// wire layout can leave out.
type ZeroClasses struct {
	PosZero int // elements whose bits are +0
	Zero    int // elements that are +0 or -0
	One     int // elements whose bits are +1.0
}

// CountZeroClasses classifies every element of data by its bits in one pass.
func CountZeroClasses(data []float64) ZeroClasses {
	posZero, zero, one := countZeroClasses(data)
	return ZeroClasses{PosZero: posZero, Zero: zero, One: one}
}

// countZeroClassesGeneric is the loop countZeroClasses must agree with.
func countZeroClassesGeneric(data []float64) (posZero, zero, one int) {
	for _, v := range data {
		b := math.Float64bits(v)
		if b == 0 {
			posZero++
		}
		if b<<1 == 0 {
			zero++
		}
		if b == bitsOne {
			one++
		}
	}
	return posZero, zero, one
}

// maskedF32 reports whether elem, the byte width of a carried element, is
// float32's; the only other width is float64's.
func maskedF32(elem int) bool {
	if elem != 8 && elem != 4 {
		panic(fmt.Sprintf("tensor: masked element size %d", elem))
	}
	return elem == 4
}

// maskedPackSlack is how far past the last carried element a pack may write:
// every element (on the vector path, each four of a turn's eight) is stored
// at the cursor and the cursor advances only past the present ones, so
// absent trailing elements land beyond the end.
const maskedPackSlack = 64

// AppendMasked appends the masked form of data, with elem-byte carried
// elements (8, or 4 for float32), to dst and returns the extended slice.
// zeros must be CountZeroClasses(data).Zero: it sizes the value section
// before the pass that fills it.
func AppendMasked(dst []byte, data []float64, zeros, elem int) []byte {
	f32 := maskedF32(elem)
	plane := (len(data) + 7) / 8
	body := 2*plane + (len(data)-zeros)*elem
	start := len(dst)
	dst = slices.Grow(dst, body+maskedPackSlack)[:start+body+maskedPackSlack]
	out := dst[start:]
	if used := packMasked(out[:plane], out[plane:2*plane], out[2*plane:], data, f32); 2*plane+used != body {
		panic(fmt.Sprintf("tensor: AppendMasked given %d zeros for data that carries %d value bytes", zeros, used))
	}
	return dst[:start+body]
}

// packMaskedGeneric fills the two planes and the value section for data and
// returns the value bytes used; it is the loop packMasked must agree with.
// It works a 64-element word at a time with no branch on an element's class
// (in a half-zero matrix that branch is a coin toss): each element is stored
// at the cursor, the cursor moves by the presence bit, and the two bits are
// shifted in at the top of their words, which leaves element 0 at bit 0 once
// 64 have gone in. values needs maskedPackSlack bytes beyond the present
// elements.
func packMaskedGeneric(presence, sign, values []byte, data []float64, f32 bool) int {
	k := 0
	for w := 0; len(data) > 0; w += 8 {
		chunk := data[:min(64, len(data))]
		data = data[len(chunk):]
		var p, s uint64
		for _, v := range chunk {
			b := math.Float64bits(v)
			x := b << 1
			nz := (x | -x) >> 63 // 1 unless b is +0 or -0
			if f32 {
				binary.LittleEndian.PutUint32(values[k:], math.Float32bits(float32(v)))
				k += int(nz) << 2
			} else {
				binary.LittleEndian.PutUint64(values[k:], b)
				k += int(nz) << 3
			}
			p = p>>1 | nz<<63
			s = s>>1 | b&^(nz<<63)&bitsNegZero
		}
		short := 64 - uint(len(chunk))
		putPlaneWord(presence, w, p>>short)
		putPlaneWord(sign, w, s>>short)
	}
	return k
}

// putPlaneWord writes word into the up-to-eight bytes of plane from offset
// w, little-endian, so bit i of the word is element 8*w+i.
func putPlaneWord(plane []byte, w int, word uint64) {
	if len(plane)-w >= 8 {
		binary.LittleEndian.PutUint64(plane[w:], word)
		return
	}
	for i := w; i < len(plane); i++ {
		plane[i] = byte(word)
		word >>= 8
	}
}

// planeWord is the inverse of putPlaneWord.
func planeWord(plane []byte, w int) uint64 {
	if len(plane)-w >= 8 {
		return binary.LittleEndian.Uint64(plane[w:])
	}
	var word uint64
	for i, b := range plane[w:] {
		word |= uint64(b) << (8 * uint(i))
	}
	return word
}

// MaskedPresent checks the two planes of an n-element masked form — their
// length, zero pad bits, no sign bit under a presence bit — and returns the
// number of present elements, which is how many the value section carries.
func MaskedPresent(n int, presence, sign []byte) (int, error) {
	if n < 0 || len(presence) != (n+7)/8 || len(sign) != len(presence) {
		return 0, fmt.Errorf("masked planes of %d and %d bytes do not match %d elements", len(presence), len(sign), n)
	}
	present := 0
	var last, both uint64
	for w := 0; w < len(presence); w += 8 {
		p, s := planeWord(presence, w), planeWord(sign, w)
		present += bits.OnesCount64(p)
		both |= p & s
		last = p | s
	}
	if n%64 != 0 && last>>(uint(n)%64) != 0 {
		return 0, errors.New("masked plane has bits set past the last element")
	}
	if both != 0 {
		return 0, errors.New("masked sign plane has a bit set under a present element")
	}
	return present, nil
}

// NewPooledMasked returns a pooled rows x cols matrix expanded from its
// masked form with elem-byte carried elements (8, or 4 for float32). The
// planes must pass MaskedPresent and values must hold exactly the elements
// it counted. It is the decode path for the wire masked matrix layout.
func NewPooledMasked(rows, cols int, presence, sign, values []byte, elem int) *Dense {
	f32 := maskedF32(elem)
	present, err := MaskedPresent(rows*cols, presence, sign)
	if err != nil {
		panic("tensor: " + err.Error())
	}
	if len(values) != present*elem {
		panic(fmt.Sprintf("tensor: masked value section of %d bytes does not match %d present elements", len(values), present))
	}
	m := getDense(rows, cols, true)
	unpackMasked(m.data, presence, sign, values, f32)
	return m
}

// unpackMasked writes the carried elements and the negative zeros into out,
// which must arrive zero-filled: per 64-element word it walks the set bits
// of each plane, so the only unpredictable branches are the two loop exits
// per word, not one per element.
func unpackMasked(out []float64, presence, sign, values []byte, f32 bool) {
	k := 0
	for w := 0; w < len(presence); w += 8 {
		o := out[8*w:]
		for p := planeWord(presence, w); p != 0; p &= p - 1 {
			i := bits.TrailingZeros64(p)
			if f32 {
				o[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(values[k:])))
				k += 4
			} else {
				o[i] = math.Float64frombits(binary.LittleEndian.Uint64(values[k:]))
				k += 8
			}
		}
		for s := planeWord(sign, w); s != 0; s &= s - 1 {
			o[bits.TrailingZeros64(s)] = math.Float64frombits(bitsNegZero)
		}
	}
}
