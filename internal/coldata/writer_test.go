package coldata

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/binfmt"
	"repro/internal/tensor"
)

// encodedLike builds a rows x cols matrix shaped like an encoded training
// table: column 0 a tanh-range scalar, the rest one-hot groups of varying
// width (the last group takes whatever columns remain).
func encodedLike(rows, cols int, seed int64) *tensor.Dense {
	rng := rand.New(rand.NewSource(seed))
	m := tensor.New(rows, cols)
	widths := []int{10, 4, 5, 3, 6, 4}
	for i := 0; i < rows; i++ {
		row := m.RawRow(i)
		row[0] = 2*rng.Float64() - 1
		for off, g := 1, 0; off < cols; g++ {
			w := min(widths[g%len(widths)], cols-off)
			row[off+rng.Intn(w)] = 1
			off += w
		}
	}
	return m
}

// TestWriterMatchesPerColumnBlocks compares whole files with what the format
// says they hold — the header, then stripe by stripe each column's rows
// through appendBlock — over stripe heights from one row to the default,
// one column and many, and a final stripe that is partial.
func TestWriterMatchesPerColumnBlocks(t *testing.T) {
	for _, blockRows := range []int{1, 3, DefaultBlockRows} {
		for _, cols := range []int{1, 33} {
			t.Run(fmt.Sprintf("blockRows=%d/cols=%d", blockRows, cols), func(t *testing.T) {
				rows := 2*blockRows + (blockRows+1)/2 // two full stripes and a partial one
				if blockRows == 1 {
					rows = 5
				}
				m := encodedLike(rows, cols, int64(blockRows+cols))
				raw, err := os.ReadFile(writeFile(t, t.TempDir(), m, blockRows, nil))
				if err != nil {
					t.Fatal(err)
				}

				want := append(append([]byte(nil), headMagic[:]...), Version)
				for first := 0; first < rows; first += blockRows {
					n := min(blockRows, rows-first)
					for j := 0; j < cols; j++ {
						col := make([]float64, n)
						for i := range col {
							col[i] = m.At(first+i, j)
						}
						want = appendBlock(want, col)
					}
				}
				if len(raw) < len(want)+trailerSize || !bytes.Equal(raw[:len(want)], want) {
					t.Fatalf("file's header and blocks differ from per-column appendBlock output (%d bytes of blocks expected, file has %d)", len(want), len(raw))
				}
				// No metadata was set, so the footer starts where the blocks end.
				if off := binary.LittleEndian.Uint64(raw[len(raw)-trailerSize:]); off != uint64(len(want)) {
					t.Fatalf("footer at offset %d, blocks end at %d", off, len(want))
				}
				r, err := NewReader(bytes.NewReader(raw), int64(len(raw)), 0)
				if err != nil {
					t.Fatalf("NewReader: %v", err)
				}
				for j := 0; j < cols; j++ {
					col, err := r.Column(j)
					if err != nil {
						t.Fatalf("Column(%d): %v", j, err)
					}
					for i := range col {
						sameBits(t, "read back", col[i], m.At(i, j))
					}
				}
			})
		}
	}
}

// TestWriterRejectsUseAfterClose: a closed writer refuses rows and metadata
// instead of buffering them (a stripe's worth used to run past the buffer
// or vanish), and the file it closed stays as it was.
func TestWriterRejectsUseAfterClose(t *testing.T) {
	m := encodedLike(10, 4, 1)
	path := filepath.Join(t.TempDir(), "t.gtvcol")
	w, err := Create(path, m.Cols(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendRows(m); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ { // more than two stripes' worth
		if err := w.AppendRow(m.RawRow(i)); err == nil {
			t.Fatal("AppendRow after Close accepted")
		}
	}
	if err := w.AppendRows(m); err == nil {
		t.Fatal("AppendRows after Close accepted")
	}
	if err := w.SetMeta("late", []byte("x")); err == nil {
		t.Fatal("SetMeta after Close accepted")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("calls after Close changed the file")
	}
}

// TestWriterAllocatesForItsRows: a writer told its row count costs memory
// in proportion to its rows, where a DefaultBlockRows-row stripe per column
// would be about 13 times this 5 000 x 40 table. Its bytes are those of a
// writer sized for full stripes, and a row past the count is refused.
func TestWriterAllocatesForItsRows(t *testing.T) {
	const rows, cols = 5000, 40
	m := encodedLike(rows, cols, 4)
	var img bytes.Buffer
	var before, after runtime.MemStats
	// Two collections empty the slab pool, so the stripe is allocated here.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	w, err := NewWriter(&img, cols, 0, rows)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		if err := w.AppendRow(m.RawRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	// Twice the table: the stripe and a generous allowance for the image
	// and the block encoder, against a default stripe's 20 MiB.
	table := uint64(rows * cols * 8)
	if got := after.TotalAlloc - before.TotalAlloc; got > 2*table {
		t.Errorf("buffering a %d x %d table allocated %d bytes, want at most %d", rows, cols, got, 2*table)
	}
	if err := w.AppendRow(m.RawRow(0)); err == nil {
		t.Error("a row past the count the writer was sized for was accepted")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	file, err := os.ReadFile(writeFile(t, t.TempDir(), m, 0, nil))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(img.Bytes(), file) {
		t.Fatalf("image of %d bytes differs from the %d-byte file of the same rows", img.Len(), len(file))
	}
}

// failingWriter is a file that takes no bytes.
type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

// TestWriterFailsAfterFlushError: when a stripe cannot be written, the row
// that filled it reports the error and the writer is finished — the rows
// after it used to be scattered past the still-full stripe, into the next
// column's stream and then off the end of the buffer.
func TestWriterFailsAfterFlushError(t *testing.T) {
	m := encodedLike(40, 4, 2)
	w, err := Create(filepath.Join(t.TempDir(), "t.gtvcol"), m.Cols(), 3)
	if err != nil {
		t.Fatal(err)
	}
	w.f = bufio.NewWriterSize(failingWriter{}, 16)
	for i := 0; i < 2; i++ {
		if err := w.AppendRow(m.RawRow(i)); err != nil {
			t.Fatalf("row %d, before the stripe is full: %v", i, err)
		}
	}
	if err := w.AppendRow(m.RawRow(2)); err == nil || errors.Is(err, errClosed) {
		t.Fatalf("the row that fills the stripe returned %v, want the write error", err)
	}
	for i := 3; i < m.Rows(); i++ { // far more than the padding absorbs
		if err := w.AppendRow(m.RawRow(i)); !errors.Is(err, errClosed) {
			t.Fatalf("row %d after the failed flush returned %v, want errClosed", i, err)
		}
	}
	if err := w.Close(); !errors.Is(err, errClosed) {
		t.Fatalf("Close after the failed flush returned %v, want errClosed", err)
	}
}

// The block encoder one block at a time, as the tests call it: each call
// classifies into words of its own.

func scanBlock(vals []float64) blockStats {
	e := newBlockEncoder(len(vals))
	return e.scan(vals)
}

func chooseLayout(vals []float64) (byte, blockStats) {
	s := scanBlock(vals)
	layout, _ := cheapestLayout(s)
	return layout, s
}

func appendBlock(dst []byte, vals []float64) []byte {
	e := newBlockEncoder(len(vals))
	return e.appendBlock(dst, vals)
}

// appendFrame frames an arbitrary payload as appendBlock frames its own.
func appendFrame(dst []byte, layout byte, count int, payload []byte) []byte {
	start := len(dst)
	dst = append(appendFrameHead(dst, layout, count, len(payload)), payload...)
	return appendCRC(dst, start)
}

// scanBlockReference is scanBlock before the one-hot fast path: every value
// goes through math.Trunc. The two must fill blockStats identically, which
// is what keeps the layout choice, and so the file bytes, unchanged.
func scanBlockReference(vals []float64) blockStats {
	s := blockStats{
		n: len(vals), allSame: true, allZeroOne: true, allIntegral: true,
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
				s.allZeroOne = false
			}
		}
		if s.allIntegral {
			if v != math.Trunc(v) || v < float64(-maxExactInt) || v > float64(maxExactInt) || b == 1<<63 {
				s.allIntegral = false
			} else {
				iv := int64(v)
				if i == 0 || iv < s.minI {
					s.minI = iv
				}
				if i == 0 || iv > s.maxI {
					s.maxI = iv
				}
			}
		}
	}
	return s
}

// TestScanBlockMatchesReference holds the encoder's scan to the reference
// scan, and the block it frames from its classification words to the
// reference block: random short blocks, then the classifier's own cases.
func TestScanBlockMatchesReference(t *testing.T) {
	palette := []float64{
		0, 1, 0, 1, 0, 0, // mostly the fast path
		math.Copysign(0, -1), -1, 2, 7, -300, 1 << 40, 0.5, -2.25,
		float64(maxExactInt), float64(maxExactInt) * 2, math.Inf(1), math.NaN(),
		math.Float64frombits(oneBits + 1), math.SmallestNonzeroFloat64,
	}
	check := func(vals []float64) {
		t.Helper()
		if got, want := scanBlock(vals), scanBlockReference(vals); got != want {
			t.Fatalf("scanBlock(%v)\n got %+v\nwant %+v", vals, got, want)
		}
		if got, want := appendBlock(nil, vals), appendBlockReference(nil, vals); !bytes.Equal(got, want) {
			t.Fatalf("n=%d: appendBlock framed % x, want % x", len(vals), got, want)
		}
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 4000; trial++ {
		// Draw from a prefix of the palette so many blocks stay all-0/1 or
		// all-integral to their end.
		reach := 1 + rng.Intn(len(palette))
		vals := make([]float64, rng.Intn(40))
		for i := range vals {
			vals[i] = palette[rng.Intn(reach)]
		}
		check(vals)
	}

	// Every length to 260 (four 64-value words and a partial one) at
	// densities from all-zero to no zero, one value in three a 1.0 (the
	// other bit pattern the words name), the rest a zero of either sign
	// with probability zeroFrac, else a palette value or a normal deviate.
	draw := func(n int, zeroFrac float64) []float64 {
		vals := make([]float64, n)
		for i := range vals {
			switch u := rng.Float64(); {
			case rng.Intn(3) == 0:
				vals[i] = 1
			case u < zeroFrac/2:
				vals[i] = 0
			case u < zeroFrac:
				vals[i] = math.Copysign(0, -1)
			case rng.Intn(4) == 0:
				vals[i] = palette[rng.Intn(len(palette))]
			default:
				vals[i] = rng.NormFloat64()
			}
		}
		return vals
	}
	for n := 0; n <= 260; n++ {
		for _, zeroFrac := range []float64{0, 0.5, 0.9, 1} {
			check(draw(n, zeroFrac))
		}
	}
	// Starts off a 32-byte alignment.
	backing := draw(300, 0.5)
	for start := 1; start < 4; start++ {
		check(backing[start : start+260])
	}
	// A block of one value, then the same block with one value changed in
	// its last bit: first, last or between.
	for _, v := range palette {
		for _, n := range []int{1, 4, 63, 64, 65, 128, 200} {
			vals := make([]float64, n)
			for i := range vals {
				vals[i] = v
			}
			check(vals)
			for _, at := range []int{0, n / 2, n - 1} {
				vals[at] = math.Float64frombits(math.Float64bits(v) ^ 1)
				check(vals)
				vals[at] = v
			}
		}
	}
}

// classifyReference is blockEncoder.classify a value at a time, under
// branches: the classifier's definition.
func classifyReference(vals []float64) (nz, one []uint64, same bool) {
	words := (len(vals) + 63) / 64
	nz, one, same = make([]uint64, words), make([]uint64, words), true
	for i, v := range vals {
		b := math.Float64bits(v)
		if b != 0 {
			nz[i/64] |= 1 << (uint(i) % 64)
		}
		if b == oneBits {
			one[i/64] |= 1 << (uint(i) % 64)
		}
		if b != math.Float64bits(vals[0]) {
			same = false
		}
	}
	return nz, one, same
}

// checkClassify holds blockEncoder.classify to the reference for one block,
// and requires the word past the last one the block owns to be left as it
// was.
func checkClassify(t *testing.T, vals []float64) {
	t.Helper()
	wantNZ, wantOne, wantSame := classifyReference(vals)
	const sentinel = 0x5a5a5a5a5a5a5a5a
	e := newBlockEncoder(len(vals) + 64)
	e.nz, e.one = e.nz[:len(wantNZ)+1], e.one[:len(wantOne)+1]
	for i := range e.nz {
		e.nz[i], e.one[i] = sentinel, sentinel
	}
	var first uint64
	if len(vals) > 0 {
		first = math.Float64bits(vals[0])
	}
	if same := e.classify(vals, first); same != wantSame {
		t.Fatalf("n=%d: classify reports allSame %v, want %v", len(vals), same, wantSame)
	}
	for w := range wantNZ {
		if e.nz[w] != wantNZ[w] || e.one[w] != wantOne[w] {
			t.Fatalf("n=%d word %d: nonzero %016x ones %016x, want %016x %016x", len(vals), w, e.nz[w], e.one[w], wantNZ[w], wantOne[w])
		}
	}
	if e.nz[len(wantNZ)] != sentinel || e.one[len(wantOne)] != sentinel {
		t.Fatalf("n=%d: classify wrote past its %d words", len(vals), len(wantNZ))
	}
}

// TestClassifyBitsMatchesDefinition holds the block encoder's classification
// words to their definition: every length to 260 at densities from all-zero
// to no zero, one value in three a 1.0; starts off a 32-byte alignment; and a
// block of one value, then the same block with one value changed, first,
// last or between.
func TestClassifyBitsMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for n := 0; n <= 260; n++ {
		for _, density := range []float64{0, 0.1, 0.5, 1} {
			vals := paletteBlock(rng, n, density, len(blockPalette))
			for i := range vals {
				if rng.Intn(3) == 0 {
					vals[i] = 1 // the other bit pattern the words name
				}
			}
			checkClassify(t, vals)
		}
	}
	backing := paletteBlock(rng, 300, 0.5, len(blockPalette))
	for start := 1; start < 4; start++ {
		checkClassify(t, backing[start:start+260])
	}
	for _, v := range append([]float64{0}, blockPalette...) {
		for _, n := range []int{1, 4, 63, 64, 65, 128, 200} {
			vals := make([]float64, n)
			for i := range vals {
				vals[i] = v
			}
			checkClassify(t, vals)
			for _, at := range []int{0, n / 2, n - 1} {
				vals[at] = math.Float64frombits(math.Float64bits(v) ^ 1)
				checkClassify(t, vals)
				vals[at] = v
			}
		}
	}
}

// BenchmarkWriterStripe writes one default-height stripe of a 33-column
// one-hot-heavy matrix (an encoded adult client): Create, AppendRows and
// Close, the file landing in the test's temp directory.
func BenchmarkWriterStripe(b *testing.B) {
	m := encodedLike(DefaultBlockRows, 33, 9)
	path := filepath.Join(b.TempDir(), "stripe.gtvcol")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, err := Create(path, m.Cols(), 0)
		if err != nil {
			b.Fatal(err)
		}
		if err := w.AppendRows(m); err != nil {
			b.Fatal(err)
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
	}
	mib := float64(m.Rows()*m.Cols()*8) / (1 << 20)
	b.ReportMetric(mib*float64(b.N)/b.Elapsed().Seconds(), "MiB/s")
}

// BenchmarkAppendBlock encodes one default-height block per layout an
// encoded store is made of: a narrow one-hot group's indicator column (one
// row in three is 1.0, a bitmap), a wide group's (one in twelve, sparse
// ones), a mode-specific scalar that is nonzero in one row in twelve
// (sparse), and a continuous column's tanh-range scalars (dense).
func BenchmarkAppendBlock(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	block := func(every int, nonzero func() float64) []float64 {
		vals := make([]float64, DefaultBlockRows)
		for i := range vals {
			if rng.Intn(every) == 0 {
				vals[i] = nonzero()
			}
		}
		return vals
	}
	one := func() float64 { return 1 }
	scalar := func() float64 { return math.Tanh(rng.NormFloat64()) }
	for _, tc := range []struct {
		name   string
		layout byte
		vals   []float64
	}{
		{"bitmap", layoutBitmap, block(3, one)},
		{"sparseOnes", layoutSparseOnes, block(12, one)},
		{"sparse", layoutSparse, block(12, scalar)},
		{"dense", layoutDense, block(1, scalar)},
	} {
		b.Run(tc.name, func(b *testing.B) {
			enc := newBlockEncoder(DefaultBlockRows)
			buf := enc.appendBlock(nil, tc.vals)
			if buf[0] != tc.layout {
				b.Fatalf("block encoded as layout %d, want %d", buf[0], tc.layout)
			}
			b.SetBytes(int64(8 * len(tc.vals)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = enc.appendBlock(buf[:0], tc.vals)
			}
		})
	}
}
