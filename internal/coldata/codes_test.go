package coldata

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/tensor"
)

// codeColumns is a rows x 5 matrix of category codes, one column per layout
// a code column takes: FOR (16 categories), bitmap (2), sparse-ones (2, a
// rare 1), sparse (9, a rare nonzero) and const (a lone category).
func codeColumns(rows int, seed int64) (*tensor.Dense, []int) {
	rng := rand.New(rand.NewSource(seed))
	m := tensor.New(rows, 5)
	for i := 0; i < rows; i++ {
		row := m.RawRow(i)
		row[0] = float64(rng.Intn(16))
		row[1] = float64(rng.Intn(2))
		if rng.Intn(50) == 0 {
			row[2] = 1
		}
		if rng.Intn(50) == 0 {
			row[3] = float64(1 + rng.Intn(8))
		}
	}
	return m, []int{16, 2, 2, 9, 1}
}

// codesAt is the definition codes is held to: row i's code is at(i), which
// must be an integer in [0, cats) with its own bits (−0 is not 0). It
// returns the codes and −1, or nil and the first row that fails.
func codesAt(h *blockHandle, width, cats int) ([]byte, int) {
	out := make([]byte, width*h.count)
	for i := 0; i < h.count; i++ {
		v := h.at(i)
		k := int(v)
		if k < 0 || k >= cats || math.Float64bits(float64(k)) != math.Float64bits(v) {
			return nil, i
		}
		switch width {
		case 1:
			out[i] = byte(k)
		case 2:
			binary.LittleEndian.PutUint16(out[2*i:], uint16(k))
		default:
			binary.LittleEndian.PutUint32(out[4*i:], uint32(k))
		}
	}
	return out, -1
}

// checkCodes holds the code decode of one parsed block to codesAt, at every
// code width: the same bytes, or an error naming the same first bad row.
func checkCodes(t *testing.T, what string, h *blockHandle, cats int) {
	t.Helper()
	for _, width := range []int{1, 2, 4} {
		if width == 1 && cats > 1<<8 || width == 2 && cats > 1<<16 {
			continue
		}
		want, bad := codesAt(h, width, cats)
		got := make([]byte, width*h.count)
		err := h.codes(got, width, cats, 1000)
		switch {
		case bad >= 0 && err == nil:
			t.Fatalf("%s, width %d, %d categories: row %d holds %v, yet the decode succeeded", what, width, cats, bad, h.at(bad))
		case bad >= 0:
			if want := fmt.Sprintf("row %d holds", 1000+bad); !strings.Contains(err.Error(), want) {
				t.Fatalf("%s, width %d: error %q does not name %q", what, width, err, want)
			}
		case err != nil:
			t.Fatalf("%s, width %d, %d categories: %v", what, width, cats, err)
		case string(got) != string(want):
			t.Fatalf("%s, width %d, %d categories: codes differ from at()", what, width, cats)
		}
	}
}

// TestCodesMatchAt decodes every layout's block as codes, in range and not,
// and reads a file's code columns through Reader.Codes.
func TestCodesMatchAt(t *testing.T) {
	for _, tc := range blockCases() {
		var h blockHandle
		if err := parseBlock(&h, appendBlock(nil, tc.vals), len(tc.vals)); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, cats := range []int{1, 2, 3, 17, 600, 70000} {
			checkCodes(t, tc.name, &h, cats)
		}
	}
	m, cats := codeColumns(5000, 1)
	r := openBytes(t, writeMatrix(t, m, 1024), 0)
	for j, n := range cats {
		got := make([]byte, r.Rows())
		if err := r.Codes(j, n, 1, got); err != nil {
			t.Fatalf("column %d: %v", j, err)
		}
		for i, c := range got {
			if float64(c) != m.At(i, j) {
				t.Fatalf("column %d row %d: code %d, cell %v", j, i, c, m.At(i, j))
			}
		}
		if n > 1 {
			err := r.Codes(j, n-1, 1, got)
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("coldata: column %d: row ", j)) {
				t.Fatalf("column %d with one category too few: %v", j, err)
			}
		}
	}
	if err := r.Codes(0, 16, 3, make([]byte, 3*r.Rows())); err == nil {
		t.Fatal("a 3-byte code width was accepted")
	}
	if err := r.Codes(0, 16, 1, make([]byte, r.Rows()-1)); err == nil {
		t.Fatal("a short destination was accepted")
	}
}

// writeMatrix writes m as one gtvcol file of the given stripe height and
// returns its bytes.
func writeMatrix(t testing.TB, m *tensor.Dense, blockRows int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, m.Cols(), blockRows, m.Rows())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendRows(m); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzBlockCodes holds the code decode to at() on fuzzed payloads of every
// layout (the frame around them always valid, as in FuzzBlockParse), at
// every code width, with category counts that make some codes invalid.
func FuzzBlockCodes(f *testing.F) {
	for _, tc := range blockCases() {
		layout, count, payload := splitFrame(f, appendBlock(nil, tc.vals))
		f.Add(layout, uint16(count), payload, uint32(3))
	}
	m, cats := codeColumns(300, 2)
	for j, n := range cats {
		layout, count, payload := splitFrame(f, appendBlock(nil, m.Col(j)))
		f.Add(layout, uint16(count), payload, uint32(n))
	}
	f.Fuzz(func(t *testing.T, layout byte, count uint16, payload []byte, cats uint32) {
		n := int(count) % 4097
		var h blockHandle
		if parseBlock(&h, appendFrame(nil, layout, n, payload), n) != nil {
			return
		}
		checkCodes(t, fmt.Sprintf("layout %d", layout), &h, 1+int(cats%(1<<17)))
	})
}

// BenchmarkCodes decodes 500 k-row code columns of each layout a span code
// column takes, as codes (Reader.Codes, what the sampler's index is built
// from) and as float64s (the tests' Reader.Column, the same per-layout decode).
func BenchmarkCodes(b *testing.B) {
	const rows = 500_000
	m, cats := codeColumns(rows, 3)
	r := openBytes(b, writeMatrix(b, m, 0), 0)
	dst := make([]byte, rows)
	for j, name := range []string{"FOR", "bitmap", "sparse-ones", "sparse", "const"} {
		b.Run(name+"/codes", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := r.Codes(j, cats[j], 1, dst); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/rows, "ns/row")
		})
		b.Run(name+"/column", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := r.Column(j); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/rows, "ns/row")
		})
	}
}
