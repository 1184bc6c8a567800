package encoding

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/binfmt"
	"repro/internal/coldata"
	"repro/internal/gmm"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// imageCodes reads a span-coded image's rows back as one matrix.
func imageCodes(t testing.TB, r *coldata.Reader) *tensor.Dense {
	t.Helper()
	m := tensor.New(r.Rows(), r.Cols())
	err := r.ScanStripes(func(first int, block *tensor.Dense) error {
		copy(m.Data()[first*r.Cols():], block.Data())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// writeCodes writes rows behind the given fingerprint and transformer blobs
// as a gtvcol image of blockRows-row stripes.
func writeCodes(t testing.TB, dst io.Writer, fp, trBlob []byte, rows *tensor.Dense, blockRows int) {
	t.Helper()
	w, err := coldata.NewWriter(dst, rows.Cols(), blockRows, rows.Rows())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.SetMeta(metaFingerprint, fp); err != nil {
		t.Fatal(err)
	}
	if err := w.SetMeta(metaTransformer, trBlob); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendRows(rows); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// writeStore replaces st's encoded file with rows behind fp and trBlob.
func writeStore(t testing.TB, st Storage, fp, trBlob []byte, rows *tensor.Dense) {
	t.Helper()
	f, err := os.Create(st.EncPath())
	if err != nil {
		t.Fatal(err)
	}
	writeCodes(t, f, fp, trBlob, rows, st.BlockRows)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// badCodes are values a CRC-valid image can hold in a one-hot span's column
// that name none of its columns.
func badCodes(width int) []float64 {
	return []float64{-1, float64(width), 0.5, math.Copysign(0, -1), math.NaN(), math.Inf(1), 1e300}
}

// TestStoredCodeOutsideItsSpan reuses, through the fingerprint match, a
// store whose one-hot span column holds a code that names none of the
// span's columns. GatherRows and Dense must fail naming the image column
// and the raw column, and expandRow must stop at the span without writing.
func TestStoredCodeOutsideItsSpan(t *testing.T) {
	tbl := storedBlobTable(t)
	cfg := gmm.DefaultConfig()
	const seed, row = 7, 100
	st := Storage{Dir: t.TempDir(), Name: "party", BlockRows: 64}
	tr, b, err := OpenOrEncode(st, tbl, seed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	codes := imageCodes(t, b.r)
	fp, trBlob := b.r.Meta(metaFingerprint), b.r.Meta(metaTransformer)
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	for s, sp := range tr.Spans() {
		if sp.Type != SpanOneHot {
			continue
		}
		for _, bad := range badCodes(sp.Width) {
			what := fmt.Sprintf("span %d code %v", s, bad)
			crafted := tensor.New(codes.Rows(), codes.Cols())
			copy(crafted.Data(), codes.Data())
			crafted.RawRow(row)[s] = bad

			dst := make([]float64, tr.Width())
			if got := expandRow(tr.Spans(), crafted.RawRow(row), dst); got != s {
				t.Fatalf("%s: expandRow stopped at span %d", what, got)
			}
			for c, v := range dst[sp.Start:] {
				if v != 0 {
					t.Fatalf("%s: expandRow wrote %v at column %d, at or past the bad span", what, v, sp.Start+c)
				}
			}

			writeStore(t, st, fp, trBlob, crafted)
			_, b, err := OpenOrEncode(st, tbl, seed, cfg)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			// The store was reused, not re-encoded over.
			if got := imageCodes(t, b.r).RawRow(row)[s]; math.Float64bits(got) != math.Float64bits(bad) {
				t.Fatalf("%s: the store was re-encoded (code %v)", what, got)
			}
			want := fmt.Sprintf("row %d, encoded column %d (column %q)", row, s, tbl.Specs[sp.Column].Name)
			if m, err := b.GatherRows([]int{0, row, 1}); err == nil || !strings.Contains(err.Error(), want) {
				m.Release()
				t.Fatalf("%s: GatherRows error %v, want one naming %q", what, err, want)
			}
			if m, err := b.Dense(nil); err == nil || !strings.Contains(err.Error(), want) {
				m.Release()
				t.Fatalf("%s: Dense error %v, want one naming %q", what, err, want)
			}
			m, err := b.GatherRows([]int{0, row + 1, 1})
			if err != nil {
				t.Fatalf("%s: rows beside the bad one: %v", what, err)
			}
			m.Release()
			if err := b.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// fingerprintV1 is encodeFingerprint as codec version 1 wrote it.
func fingerprintV1(seed int64, cfg gmm.Config, rows int, specs []ColumnSpec) []byte {
	var w binfmt.Writer
	w.Uvarint(1)
	w.Varint(seed)
	w.Uvarint(uint64(rows))
	w.Uvarint(uint64(cfg.MaxComponents))
	w.F64(cfg.WeightThreshold)
	w.Uvarint(uint64(cfg.MaxIter))
	w.F64(cfg.Tol)
	AppendSpecs(&w, specs)
	sum := sha256.Sum256(w.Buf)
	return sum[:]
}

// TestOneHotStoreReencoded leaves a codec version 1 store where
// OpenOrEncode looks: its fingerprint, its transformer blob (version 2's
// with the version byte 1, TestStoredBlobGolden) and the encoded matrix
// one-hot column by column. It must be encoded over, not reused.
func TestOneHotStoreReencoded(t *testing.T) {
	tbl := storedBlobTable(t)
	cfg := gmm.DefaultConfig()
	const seed = 7
	r := rng.New(EncodeSeed(seed)).Rand
	tr, err := FitTransformer(r, tbl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	oneHot, err := tr.Transform(r, tbl)
	if err != nil {
		t.Fatal(err)
	}
	trBlob := tr.encodeBinary()
	trBlob[0] = 1
	st := Storage{Dir: t.TempDir(), Name: "party", BlockRows: 64}
	writeStore(t, st, fingerprintV1(seed, cfg, tbl.Rows(), tbl.Specs), trBlob, oneHot)

	got, b, err := OpenOrEncode(st, tbl, seed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if b.r.Cols() != len(got.Spans()) || !bytes.Equal(b.r.Meta(metaFingerprint), encodeFingerprint(seed, cfg, tbl.Rows(), tbl.Specs)) {
		t.Fatalf("a version 1 store was reused: %d columns for %d spans", b.r.Cols(), len(got.Spans()))
	}
	dense, err := b.Dense(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer dense.Release()
	requireSameMatrix(t, "re-encoded store", dense, oneHot)
}

// fuzzTable builds a table of up to six columns, one per layout byte (kind
// and size), with rows cells each drawn from seed.
func fuzzTable(t *testing.T, layout []byte, seed int64, rows int) *Table {
	t.Helper()
	if len(layout) == 0 {
		layout = []byte{0}
	}
	layout = layout[:min(len(layout), 6)]
	specials := []float64{0, -1, 1, 2.5, 7}
	specs := make([]ColumnSpec, len(layout))
	for j, b := range layout {
		size := 1 + int(b>>2)%len(specials)
		specs[j].Name = fmt.Sprintf("c%d", j)
		switch b % 3 {
		case 0:
			specs[j].Kind = KindCategorical
			for k := 0; k < size; k++ {
				specs[j].Categories = append(specs[j].Categories, fmt.Sprint(k))
			}
		case 1:
			specs[j].Kind = KindContinuous
		case 2:
			specs[j].Kind = KindMixed
			specs[j].SpecialValues = specials[:size]
		}
	}
	r := rand.New(rand.NewSource(seed))
	data := tensor.New(rows, len(specs))
	for i := 0; i < rows; i++ {
		row := data.RawRow(i)
		for j, spec := range specs {
			switch {
			case spec.Kind == KindCategorical:
				row[j] = float64(r.Intn(len(spec.Categories)))
			case spec.Kind == KindMixed && r.Intn(3) == 0:
				row[j] = spec.SpecialValues[r.Intn(len(spec.SpecialValues))]
			default:
				row[j] = r.NormFloat64()*float64(1+j) + float64(50*r.Intn(3))
			}
		}
	}
	tbl, err := NewTable(specs, data)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// FuzzSpanCodedImage encodes a table the fuzz input lays out into an
// in-memory image. Gathering every row from it, in an order drawn from the
// input, must equal Transform's matrix bit for bit, and the same image
// with one code replaced by a value that names none of its span's columns
// must fail a gather and Dense.
func FuzzSpanCodedImage(f *testing.F) {
	f.Add([]byte{0, 1, 2}, int64(1), uint8(50), uint16(0))
	f.Add([]byte{5, 9, 14, 2, 12, 20}, int64(2), uint8(199), uint16(777))
	f.Add([]byte{}, int64(3), uint8(0), uint16(1))
	cfg := gmm.Config{MaxComponents: 4, WeightThreshold: 0.005, MaxIter: 20, Tol: 1e-4}
	const blockRows = 64
	f.Fuzz(func(t *testing.T, layout []byte, seed int64, nRows uint8, mutate uint16) {
		rows := 1 + int(nRows)
		tbl := fuzzTable(t, layout, seed, rows)
		tr, b, err := OpenOrEncode(Storage{BlockRows: blockRows}, tbl, seed, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer b.Close()
		r := rng.New(EncodeSeed(seed)).Rand
		if _, err := FitTransformer(r, tbl, cfg); err != nil { // advance r past the fits
			t.Fatal(err)
		}
		want, err := tr.Transform(r, tbl)
		if err != nil {
			t.Fatal(err)
		}
		idx := rand.New(rand.NewSource(int64(mutate))).Perm(rows)
		got, err := b.GatherRows(idx)
		if err != nil {
			t.Fatal(err)
		}
		for k, i := range idx {
			g, w := got.RawRow(k), want.RawRow(i)
			for c := range w {
				if math.Float64bits(g[c]) != math.Float64bits(w[c]) {
					t.Fatalf("gathered row %d column %d = %v, Transform %v", i, c, g[c], w[c])
				}
			}
		}
		got.Release()

		var oneHot []int
		for s, sp := range tr.Spans() {
			if sp.Type == SpanOneHot {
				oneHot = append(oneHot, s)
			}
		}
		s := oneHot[int(mutate)%len(oneHot)]
		bad := badCodes(tr.Spans()[s].Width)
		p := int(mutate>>3) % rows
		codes := imageCodes(t, b.r)
		codes.RawRow(p)[s] = bad[int(mutate>>8)%len(bad)]
		var img bytes.Buffer
		writeCodes(t, &img, b.r.Meta(metaFingerprint), b.r.Meta(metaTransformer), codes, blockRows)
		cr, err := coldata.NewReader(bytes.NewReader(img.Bytes()), int64(img.Len()), math.MaxInt64)
		if err != nil {
			t.Fatal(err)
		}
		crafted := Backing{r: cr, tr: tr}
		defer crafted.Close()
		if m, err := crafted.GatherRows(idx); err == nil {
			m.Release()
			t.Fatalf("a gather served code %v in row %d span %d", codes.RawRow(p)[s], p, s)
		}
		if m, err := crafted.Dense(nil); err == nil {
			m.Release()
			t.Fatalf("Dense served code %v in row %d span %d", codes.RawRow(p)[s], p, s)
		}
	})
}
