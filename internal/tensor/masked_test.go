package tensor

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// maskedAlphabet is what the masked-form tests draw elements from: both
// zeros, the value the 0/1 test looks for, and the patterns a value compare
// would misclassify (a denormal, a NaN with a payload, infinities).
var maskedAlphabet = []float64{
	0, math.Copysign(0, -1), 1, -1, 5e-324, -5e-324, 1e-320,
	math.Inf(1), math.Inf(-1), math.NaN(), math.Float64frombits(0xFFF8000000C0FFEE),
	math.MaxFloat64, 0.1, -2.5,
}

// maskedData draws n elements: a zero of either sign with probability
// zeroFrac, otherwise one of the alphabet or a normal deviate.
func maskedData(rng *rand.Rand, n int, zeroFrac float64) []float64 {
	data := make([]float64, n)
	for i := range data {
		switch u := rng.Float64(); {
		case u < zeroFrac/2:
			data[i] = 0
		case u < zeroFrac:
			data[i] = math.Copysign(0, -1)
		case rng.Intn(4) == 0:
			data[i] = maskedAlphabet[rng.Intn(len(maskedAlphabet))]
		default:
			data[i] = rng.NormFloat64()
		}
	}
	return data
}

// maskedReference is the masked form written an element at a time, the
// layout's definition: the planes bit by bit, the carried elements appended
// under a branch.
func maskedReference(data []float64, f32 bool) (presence, sign, values []byte) {
	plane := (len(data) + 7) / 8
	presence, sign = make([]byte, plane), make([]byte, plane)
	for i, v := range data {
		switch b := math.Float64bits(v); {
		case b == 0:
		case b == bitsNegZero:
			sign[i/8] |= 1 << (uint(i) % 8)
		default:
			presence[i/8] |= 1 << (uint(i) % 8)
			if f32 {
				values = binary.LittleEndian.AppendUint32(values, math.Float32bits(float32(v)))
			} else {
				values = binary.LittleEndian.AppendUint64(values, b)
			}
		}
	}
	return presence, sign, values
}

// expandReference is the inverse, an element at a time.
func expandReference(n int, presence, sign, values []byte, f32 bool) []float64 {
	out := make([]float64, n)
	for i := range out {
		bit := byte(1) << (uint(i) % 8)
		switch {
		case presence[i/8]&bit != 0 && f32:
			out[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(values)))
			values = values[4:]
		case presence[i/8]&bit != 0:
			out[i] = math.Float64frombits(binary.LittleEndian.Uint64(values))
			values = values[8:]
		case sign[i/8]&bit != 0:
			out[i] = math.Copysign(0, -1)
		}
	}
	return out
}

func requireSameFloatBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d elements, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d bits %016x, want %016x", what, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// checkMaskedAgainstReference holds the three entry points to the
// element-at-a-time definition for one input: the counts, the packed bytes
// and the expansion, float64 and float32.
func checkMaskedAgainstReference(t *testing.T, data []float64) {
	t.Helper()
	n := len(data)
	posZero, zero, one := countZeroClassesGeneric(data)
	got := CountZeroClasses(data)
	if got != (ZeroClasses{PosZero: posZero, Zero: zero, One: one}) {
		t.Fatalf("n=%d: CountZeroClasses %+v, the Go loop counts %d/%d/%d", n, got, posZero, zero, one)
	}
	for _, f32 := range []bool{false, true} {
		presence, sign, values := maskedReference(data, f32)
		want := bytes.Join([][]byte{presence, sign, values}, nil)
		prefix := []byte("prefix")
		elem := 8
		if f32 {
			elem = 4
		}
		packed := AppendMasked(append([]byte(nil), prefix...), data, got.Zero, elem)
		if !bytes.HasPrefix(packed, prefix) || !bytes.Equal(packed[len(prefix):], want) {
			t.Fatalf("n=%d f32=%v: AppendMasked wrote\n% x, the definition is\n% x", n, f32, packed[len(prefix):], want)
		}
		present, err := MaskedPresent(n, presence, sign)
		if err != nil || present != n-zero {
			t.Fatalf("n=%d: MaskedPresent = %d, %v; want %d", n, present, err, n-zero)
		}
		m := NewPooledMasked(1, n, presence, sign, values, elem)
		requireSameFloatBits(t, fmt.Sprintf("n=%d f32=%v expansion", n, f32), m.data, expandReference(n, presence, sign, values, f32))
		if !f32 {
			requireSameFloatBits(t, fmt.Sprintf("n=%d round trip", n), m.data, data)
		}
		m.Release()
	}
}

// TestMaskedFormMatchesDefinition: lengths around every word and vector
// boundary, densities from all-zero to no zero, on both kernel paths.
func TestMaskedFormMatchesDefinition(t *testing.T) {
	EachKernelPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(31))
		for _, n := range []int{0, 1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 63, 64, 65, 127, 128, 129, 200, 1000, 4099} {
			for _, zeroFrac := range []float64{0, 0.1, 0.5, 0.9, 1} {
				checkMaskedAgainstReference(t, maskedData(rng, n, zeroFrac))
			}
		}
		// A recycled, dirty buffer must not show through the absent elements.
		dirty := NewPooled(1, 130)
		for i := range dirty.data {
			dirty.data[i] = math.NaN()
		}
		dirty.Release()
		checkMaskedAgainstReference(t, maskedData(rng, 130, 0.5))
	})
}

// TestAppendMaskedRejectsWrongZeroCount: the count sizes the buffer the pack
// writes through without a bounds check on the vector path, so a wrong one
// must end in a panic on both paths, never in a write past the buffer.
func TestAppendMaskedRejectsWrongZeroCount(t *testing.T) {
	EachKernelPath(t, func(t *testing.T) {
		data := maskedData(rand.New(rand.NewSource(32)), 1000, 0.5)
		zeros := CountZeroClasses(data).Zero
		for _, wrong := range []int{0, zeros - 1, zeros + 1, zeros + 40, len(data)} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("AppendMasked accepted %d zeros for data with %d", wrong, zeros)
					}
				}()
				// A buffer with no spare capacity, so an overrun has nowhere to hide.
				AppendMasked(make([]byte, 0), data, wrong, 8)
			}()
		}
	})
}

// TestMaskedPresentRejectsMalformed: what the expander refuses to touch.
func TestMaskedPresentRejectsMalformed(t *testing.T) {
	for _, tc := range []struct {
		name           string
		n              int
		presence, sign []byte
	}{
		{"short presence plane", 9, []byte{1}, []byte{0, 0}},
		{"long sign plane", 8, []byte{1}, []byte{0, 0}},
		{"presence pad bit", 3, []byte{0x08}, []byte{0}},
		{"sign pad bit", 3, []byte{0}, []byte{0x80}},
		{"pad bit past a full word", 67, []byte{0, 0, 0, 0, 0, 0, 0, 0, 0x08}, make([]byte, 9)},
		{"sign under presence", 8, []byte{0x10}, []byte{0x10}},
		{"sign under presence in the first word", 130, append([]byte{0x01}, make([]byte, 16)...), append([]byte{0x01}, make([]byte, 16)...)},
		{"negative count", -1, nil, nil},
	} {
		if _, err := MaskedPresent(tc.n, tc.presence, tc.sign); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if present, err := MaskedPresent(0, nil, nil); err != nil || present != 0 {
		t.Errorf("empty form: %d, %v", present, err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("NewPooledMasked expanded a value section one byte short")
			}
		}()
		NewPooledMasked(1, 2, []byte{0x03}, []byte{0}, make([]byte, 15), 8)
	}()
}

// FuzzMaskedPackUnpack: the input picks the length, the zero density and the
// element stream; the properties are the ones of
// TestMaskedFormMatchesDefinition, on both kernel paths.
func FuzzMaskedPackUnpack(f *testing.F) {
	f.Add(int64(1), 85, uint8(128), []byte{})
	f.Add(int64(2), 64, uint8(255), []byte{0, 0, 0, 0, 0, 0, 0, 0x80})
	f.Add(int64(3), 4099, uint8(0), []byte{0, 0, 0, 0, 0, 0, 0xF0, 0x3F, 1, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, seed int64, n int, zeroByte uint8, raw []byte) {
		n = abs(n) % 5000
		data := maskedData(rand.New(rand.NewSource(seed)), n, float64(zeroByte)/255)
		// Arbitrary bit patterns from the input overwrite a prefix.
		for i := 0; i < n && 8*i+8 <= len(raw); i++ {
			data[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		for _, path := range KernelPaths() {
			UseKernelPath(t, path)
			checkMaskedAgainstReference(t, data)
		}
	})
}

// The zero-class scan and the two directions of the masked form at the
// shape of the wire-4c full-pass reply: 5000 x 17 critic logits through
// LeakyReLU and Dropout(0.5), a quarter +0, a quarter -0, half values.
func dropoutLogits(rows, cols int) *Dense {
	rng := rand.New(rand.NewSource(1))
	act := LeakyReLU(Randn(rng, rows, cols, 0, 1), 0.2)
	out, mask := Dropout(rng, act, 0.5)
	mask.Release()
	act.Release()
	return out
}

func BenchmarkCountZeroClasses(b *testing.B) {
	x := dropoutLogits(5000, 17)
	for _, path := range KernelPaths() {
		b.Run("5000x17/"+path, func(b *testing.B) {
			UseKernelPath(b, path)
			b.SetBytes(int64(8 * len(x.data)))
			for i := 0; i < b.N; i++ {
				if zc := CountZeroClasses(x.data); zc.Zero == 0 {
					b.Fatal("no zeros counted")
				}
			}
		})
	}
}

func BenchmarkMaskedPack(b *testing.B) {
	x := dropoutLogits(5000, 17)
	zeros := CountZeroClasses(x.data).Zero
	for _, path := range KernelPaths() {
		b.Run("5000x17/"+path, func(b *testing.B) {
			UseKernelPath(b, path)
			b.SetBytes(int64(8 * len(x.data)))
			var buf []byte
			for i := 0; i < b.N; i++ {
				buf = AppendMasked(buf[:0], x.data, zeros, 8)
			}
		})
	}
}

func BenchmarkMaskedUnpack(b *testing.B) {
	x := dropoutLogits(5000, 17)
	n := len(x.data)
	plane := (n + 7) / 8
	buf := AppendMasked(nil, x.data, CountZeroClasses(x.data).Zero, 8)
	for _, path := range KernelPaths() {
		b.Run("5000x17/"+path, func(b *testing.B) {
			UseKernelPath(b, path)
			b.SetBytes(int64(8 * n))
			for i := 0; i < b.N; i++ {
				NewPooledMasked(x.rows, x.cols, buf[:plane], buf[plane:2*plane], buf[2*plane:], 8).Release()
			}
		})
	}
}
