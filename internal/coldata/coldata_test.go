package coldata

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/tensor"
)

// writeFile encodes m into a gtvcol file under dir and returns its path.
func writeFile(t *testing.T, dir string, m *tensor.Dense, blockRows int, metas map[string][]byte) string {
	t.Helper()
	path := filepath.Join(dir, "t.gtvcol")
	w, err := Create(path, m.Cols(), blockRows)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	for name, blob := range map[string][]byte(metas) {
		if err := w.SetMeta(name, blob); err != nil {
			t.Fatalf("SetMeta(%q): %v", name, err)
		}
	}
	if err := w.AppendRows(m); err != nil {
		t.Fatalf("AppendRows: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return path
}

// layoutMix builds a rows x 8 matrix whose columns exercise every block
// layout: const, bitmap, one-hot sparse, arbitrary sparse, integral FOR,
// dense noise, and bit-pattern specials (-0.0, NaN payloads, ±Inf).
func layoutMix(rows int, seed int64) *tensor.Dense {
	rng := rand.New(rand.NewSource(seed))
	m := tensor.New(rows, 8)
	for i := 0; i < rows; i++ {
		row := m.RawRow(i)
		row[0] = 3.25 // const
		if rng.Intn(2) == 0 {
			row[1] = 1 // bitmap
		}
		if rng.Intn(50) == 0 {
			row[2] = 1 // sparse ones
		}
		if rng.Intn(40) == 0 {
			row[3] = rng.NormFloat64() // sparse values
		}
		row[4] = float64(18 + rng.Intn(60)) // FOR (small range)
		row[5] = rng.NormFloat64()          // dense
		row[6] = float64(rng.Int63n(1<<40) - 1<<39)
		switch rng.Intn(100) {
		case 0:
			row[7] = math.Copysign(0, -1)
		case 1:
			row[7] = math.Inf(1)
		case 2:
			row[7] = math.Float64frombits(0x7ff8000000000123) // NaN payload
		default:
			row[7] = rng.NormFloat64()
		}
	}
	return m
}

// sameBits fails unless got and want carry identical float64 bit patterns.
func sameBits(t *testing.T, what string, got, want float64) {
	t.Helper()
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: got %v (%#x), want %v (%#x)", what,
			got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

func TestRoundTripBitExact(t *testing.T) {
	const rows = 1500 // several stripes of 512 plus a short tail
	m := layoutMix(rows, 1)
	path := writeFile(t, t.TempDir(), m, 512, map[string][]byte{"k": []byte("v")})

	r, err := Open(path, 1<<20)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer func() {
		if err := r.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	}()
	if r.Rows() != rows || r.Cols() != m.Cols() {
		t.Fatalf("shape %dx%d, want %dx%d", r.Rows(), r.Cols(), rows, m.Cols())
	}
	if got := r.Meta("k"); !bytes.Equal(got, []byte("v")) {
		t.Fatalf("Meta = %q", got)
	}
	if r.Meta("missing") != nil {
		t.Fatal("missing meta should be nil")
	}

	// Column access.
	for j := 0; j < m.Cols(); j++ {
		col, err := r.Column(j)
		if err != nil {
			t.Fatalf("Column(%d): %v", j, err)
		}
		for i := range col {
			sameBits(t, "column", col[i], m.At(i, j))
		}
	}

	// Sequential scan.
	seen := 0
	err = r.ScanStripes(func(first int, block *tensor.Dense) error {
		for i := 0; i < block.Rows(); i++ {
			for j := 0; j < block.Cols(); j++ {
				sameBits(t, "scan", block.At(i, j), m.At(first+i, j))
			}
		}
		seen += block.Rows()
		return nil
	})
	if err != nil {
		t.Fatalf("ScanStripes: %v", err)
	}
	if seen != rows {
		t.Fatalf("scanned %d rows, want %d", seen, rows)
	}

	// Random gather, repeated so the cache serves hits.
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		idx := make([]int32, 64)
		for k := range idx {
			idx[k] = int32(rng.Intn(rows))
		}
		dst := tensor.NewPooledUninit(len(idx), m.Cols())
		if err := r.GatherRowsInto(idx, dst); err != nil {
			t.Fatalf("GatherRowsInto: %v", err)
		}
		for k, row := range idx {
			for j := 0; j < m.Cols(); j++ {
				sameBits(t, "gather", dst.At(k, j), m.At(int(row), j))
			}
		}
		dst.Release()
	}
}

func TestChooserPicksCheapestLayout(t *testing.T) {
	block := func(f func(i int) float64) []float64 {
		vals := make([]float64, 1000)
		for i := range vals {
			vals[i] = f(i)
		}
		return vals
	}
	cases := []struct {
		name string
		vals []float64
		want byte
	}{
		{"const", block(func(int) float64 { return 7 }), layoutConst},
		{"bitmap", block(func(i int) float64 { return float64(i % 2) }), layoutBitmap},
		{"onehot", block(func(i int) float64 {
			if i%100 == 0 {
				return 1
			}
			return 0
		}), layoutSparseOnes},
		{"sparse", block(func(i int) float64 {
			if i%100 == 0 {
				return 2.5
			}
			return 0
		}), layoutSparse},
		{"for", block(func(i int) float64 { return float64(20 + i%50) }), layoutFOR},
		{"dense", block(func(i int) float64 { return 0.5 + 1/float64(i+1) }), layoutDense},
		{"neg-zero-not-const-zero", block(func(i int) float64 { return math.Copysign(0, -1) }), layoutConst},
	}
	for _, tc := range cases {
		got, _ := chooseLayout(tc.vals)
		if got != tc.want {
			t.Errorf("%s: layout %d, want %d", tc.name, got, tc.want)
		}
		// Whatever was chosen must be the byte-minimal eligible encoding:
		// re-encode under the generic framing and check it round-trips.
		var h blockHandle
		if err := parseBlock(&h, appendBlock(nil, tc.vals), len(tc.vals)); err != nil {
			t.Fatalf("%s: parseBlock: %v", tc.name, err)
		}
		for i, want := range tc.vals {
			if math.Float64bits(h.at(i)) != math.Float64bits(want) {
				t.Fatalf("%s: row %d: %v != %v", tc.name, i, h.at(i), want)
			}
		}
	}
}

func TestEmptyAndSingleRow(t *testing.T) {
	for _, rows := range []int{0, 1} {
		m := tensor.New(rows, 3)
		for i := 0; i < rows; i++ {
			m.Set(i, 1, 4.5)
		}
		path := writeFile(t, t.TempDir(), m, 0, nil)
		r, err := Open(path, 0)
		if err != nil {
			t.Fatalf("rows=%d Open: %v", rows, err)
		}
		if r.Rows() != rows || r.Cols() != 3 {
			t.Fatalf("rows=%d shape %dx%d", rows, r.Rows(), r.Cols())
		}
		if rows == 1 {
			col, err := r.Column(1)
			if err != nil || col[0] != 4.5 {
				t.Fatalf("Column: %v %v", col, err)
			}
		}
		if err := r.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	}
}

func TestCacheStaysBounded(t *testing.T) {
	m := layoutMix(4000, 3)
	path := writeFile(t, t.TempDir(), m, 256, nil)
	r, err := Open(path, 4096) // tiny budget: a handful of blocks
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer r.Close()
	rng := rand.New(rand.NewSource(4))
	dst := tensor.NewPooledUninit(32, m.Cols())
	defer dst.Release()
	for trial := 0; trial < 50; trial++ {
		idx := make([]int32, 32)
		for k := range idx {
			idx[k] = int32(rng.Intn(4000))
		}
		if err := r.GatherRowsInto(idx, dst); err != nil {
			t.Fatalf("gather: %v", err)
		}
		for k, row := range idx {
			sameBits(t, "bounded-cache gather", dst.At(k, 5), m.At(int(row), 5))
		}
	}
	st := r.CacheStats()
	if st.BudgetBytes != 4096 || st.ResidentBytes > st.BudgetBytes {
		t.Fatalf("cache holds %d bytes, budget %d", st.ResidentBytes, st.BudgetBytes)
	}
	if st.ResidentBytes == 0 || st.Hits == 0 || st.TransientLoads == 0 {
		t.Fatalf("a budget of a handful of blocks should hold some and pass on others: %+v", st)
	}
}

func TestTruncationEveryCutPoint(t *testing.T) {
	m := layoutMix(300, 5)
	path := writeFile(t, t.TempDir(), m, 128, map[string][]byte{"meta": []byte("blob")})
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(raw); cut++ {
		if _, err := NewReader(bytes.NewReader(raw[:cut]), int64(cut), 0); err == nil {
			t.Fatalf("truncation at %d/%d bytes accepted", cut, len(raw))
		}
	}
	// Trailing garbage after a valid trailer must also be rejected.
	grown := append(append([]byte(nil), raw...), 0)
	if _, err := NewReader(bytes.NewReader(grown), int64(len(grown)), 0); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

// TestCorruptionEveryByte flips every byte of a file in turn and requires
// that opening plus fully reading it either fails or was a no-op flip
// (impossible: every byte is covered by the header, a block CRC, the
// footer CRC, a meta CRC recorded in the footer, or the trailer fields).
func TestCorruptionEveryByte(t *testing.T) {
	m := layoutMix(300, 6)
	path := writeFile(t, t.TempDir(), m, 128, map[string][]byte{"meta": []byte("blob-under-crc")})
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	readAll := func(b []byte) error {
		r, err := NewReader(bytes.NewReader(b), int64(len(b)), 0)
		if err != nil {
			return err
		}
		for j := 0; j < r.Cols(); j++ {
			if _, err := r.Column(j); err != nil {
				return err
			}
		}
		return r.ScanStripes(func(int, *tensor.Dense) error { return nil })
	}
	if err := readAll(raw); err != nil {
		t.Fatalf("pristine file: %v", err)
	}
	for i := range raw {
		mut := append([]byte(nil), raw...)
		mut[i] ^= 0x40
		if err := readAll(mut); err == nil {
			t.Fatalf("flip of byte %d/%d not detected", i, len(raw))
		}
	}
}

// TestGoldenFixture pins the exact bytes of the format. Regenerate with
// GTV_UPDATE_COL_FIXTURES=1 after an intentional format change.
func TestGoldenFixture(t *testing.T) {
	m := layoutMix(700, 42)
	dir := t.TempDir()
	path := writeFile(t, dir, m, 256, map[string][]byte{
		"schema": []byte("golden fixture schema blob"),
	})
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "golden.gtvcol")
	if os.Getenv("GTV_UPDATE_COL_FIXTURES") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s (%d bytes)", golden, len(got))
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden fixture (run with GTV_UPDATE_COL_FIXTURES=1 to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("gtvcol encoding drifted from golden fixture: %d vs %d bytes (set GTV_UPDATE_COL_FIXTURES=1 if intentional)", len(got), len(want))
	}
	// The fixture must decode to the exact source matrix.
	r, err := Open(golden, 0)
	if err != nil {
		t.Fatalf("Open(golden): %v", err)
	}
	defer r.Close()
	for j := 0; j < m.Cols(); j++ {
		col, err := r.Column(j)
		if err != nil {
			t.Fatalf("Column(%d): %v", j, err)
		}
		for i := range col {
			sameBits(t, "golden", col[i], m.At(i, j))
		}
	}
}

func TestCompressionBeatsDense(t *testing.T) {
	// A one-hot-heavy matrix (the encoded-table shape) must land well under
	// dense float64 size; the acceptance bar for the full pipeline is 4x.
	rng := rand.New(rand.NewSource(7))
	const rows, cats = 20000, 40
	m := tensor.New(rows, cats+2)
	for i := 0; i < rows; i++ {
		m.Set(i, rng.Intn(cats), 1)
		m.Set(i, cats, rng.NormFloat64())         // one dense column
		m.Set(i, cats+1, float64(rng.Intn(1000))) // one integral column
	}
	path := writeFile(t, t.TempDir(), m, 0, nil)
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	dense := int64(rows * (cats + 2) * 8)
	if st.Size()*4 > dense {
		t.Fatalf("gtvcol %d bytes, dense %d: less than 4x smaller", st.Size(), dense)
	}
}

func TestWriterRejectsBadInput(t *testing.T) {
	dir := t.TempDir()
	if _, err := Create(filepath.Join(dir, "x"), 0, 0); err == nil {
		t.Fatal("Create with 0 cols accepted")
	}
	w, err := Create(filepath.Join(dir, "y"), 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendRow([]float64{1}); err == nil {
		t.Fatal("short row accepted")
	}
	if err := w.SetMeta("", nil); err == nil {
		t.Fatal("empty meta name accepted")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err == nil {
		t.Fatal("double Close accepted")
	}
}

// Column returns a copy of column j, read past the block cache block by
// block: the tests' oracle for one column, against which gathers, scans and
// codes are checked.
func (r *Reader) Column(j int) ([]float64, error) {
	if j < 0 || j >= r.cols {
		return nil, fmt.Errorf("coldata: column %d out of range %d", j, r.cols)
	}
	out := make([]float64, r.rows)
	var h blockHandle
	for s := 0; s < r.stripes; s++ {
		dst := out[s*r.blockRows:]
		if err := r.readPast(&h, s, j, func() error { h.fill(dst, 1); return nil }); err != nil {
			return nil, err
		}
	}
	return out, nil
}
