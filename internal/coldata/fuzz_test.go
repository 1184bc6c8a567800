package coldata

import (
	"bytes"
	"math"
	"os"
	"testing"

	"repro/internal/tensor"
)

// FuzzColFileDecode hammers the container and block decoders with
// arbitrary bytes. The decoder must never panic, never allocate
// unboundedly, and any file it accepts must be self-consistent: column
// reads, stripe scans and row gathers all agree bit for bit.
func FuzzColFileDecode(f *testing.F) {
	// Seed with a small valid file, a few prefixes of it, and mutants.
	m := tensor.New(70, 3)
	for i := 0; i < 70; i++ {
		m.Set(i, 0, float64(i%2))
		m.Set(i, 1, float64(i))
		if i%7 == 0 {
			m.Set(i, 2, 1.5)
		}
	}
	w, err := Create(f.TempDir()+"/seed.gtvcol", 3, 32)
	if err != nil {
		f.Fatal(err)
	}
	if err := w.SetMeta("m", []byte("blob")); err != nil {
		f.Fatal(err)
	}
	if err := w.AppendRows(m); err != nil {
		f.Fatal(err)
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	seed, err := readAllFile(f.TempDir() + "/seed.gtvcol")
	if err == nil {
		f.Add(seed)
		for _, cut := range []int{0, 8, len(seed) / 2, len(seed) - 5} {
			if cut >= 0 && cut < len(seed) {
				f.Add(seed[:cut])
			}
		}
		mut := append([]byte(nil), seed...)
		if len(mut) > 40 {
			mut[40] ^= 0xff
		}
		f.Add(mut)
	}
	f.Add([]byte("gtvcol\x00\x01"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data), int64(len(data)), 1<<16)
		if err != nil {
			return
		}
		if r.Rows()*r.Cols() > 1<<20 || r.Rows() == 0 {
			return // cap work on absurd (but structurally valid) headers
		}
		cols := make([][]float64, r.Cols())
		for j := range cols {
			c, err := r.Column(j)
			if err != nil {
				return // block-level corruption surfaces here; fine
			}
			cols[j] = c
		}
		// Scan must agree with Column.
		err = r.ScanStripes(func(first int, block *tensor.Dense) error {
			for i := 0; i < block.Rows(); i++ {
				for j := 0; j < block.Cols(); j++ {
					if math.Float64bits(block.At(i, j)) != math.Float64bits(cols[j][first+i]) {
						t.Fatalf("scan disagrees with column at (%d,%d)", first+i, j)
					}
				}
			}
			return nil
		})
		if err != nil {
			return
		}
		// Gather must agree with Column.
		idx := make([]int32, 0, 16)
		for i := 0; i < r.Rows() && len(idx) < 16; i += 1 + r.Rows()/16 {
			idx = append(idx, int32(i))
		}
		dst := tensor.NewPooledUninit(len(idx), r.Cols())
		defer dst.Release()
		if err := r.GatherRowsInto(idx, dst); err != nil {
			return
		}
		for k, row := range idx {
			for j := 0; j < r.Cols(); j++ {
				if math.Float64bits(dst.At(k, j)) != math.Float64bits(cols[j][row]) {
					t.Fatalf("gather disagrees with column at (%d,%d)", row, j)
				}
			}
		}
	})
}

// FuzzColRoundTrip drives the full encode+decode cycle over fuzzed
// values: whatever bit patterns go in must come back out exactly.
func FuzzColRoundTrip(f *testing.F) {
	f.Add(uint64(0x3ff0000000000000), uint64(0), 17)
	f.Add(uint64(0x7ff8000000000001), uint64(1<<63), 64)
	f.Fuzz(func(t *testing.T, a, b uint64, n int) {
		if n <= 0 || n > 300 {
			return
		}
		vals := make([]float64, n)
		x := a
		for i := range vals {
			// xorshift over the two seeds: cheap deterministic variety that
			// still lands interesting patterns (zeros, ones, NaNs).
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			switch x % 5 {
			case 0:
				vals[i] = 0
			case 1:
				vals[i] = 1
			case 2:
				vals[i] = float64(int64(x%2000) - 1000)
			case 3:
				vals[i] = math.Float64frombits(b ^ x)
			default:
				vals[i] = math.Float64frombits(a + x)
			}
		}
		var h blockHandle
		if err := parseBlock(&h, appendBlock(nil, vals), n); err != nil {
			t.Fatalf("own encoding rejected: %v", err)
		}
		for i, want := range vals {
			if math.Float64bits(h.at(i)) != math.Float64bits(want) {
				t.Fatalf("row %d: %#x != %#x", i, math.Float64bits(h.at(i)), math.Float64bits(want))
			}
		}
	})
}

// FuzzBlockParse reaches the payload parser, which FuzzColFileDecode cannot:
// a mutated file dies at the block's CRC, so here the fuzzed bytes are the
// payload and the frame around them is always valid. parseBlock must not
// panic, and must agree with the previous parser (reference_test.go) on
// whether the block is acceptable and on every bit read out of it.
func FuzzBlockParse(f *testing.F) {
	for _, tc := range blockCases() {
		layout, count, payload := splitFrame(f, appendBlock(nil, tc.vals))
		f.Add(layout, uint16(count), payload)
	}
	f.Add(layoutSparseOnes, uint16(16), []byte{2, 5, 0x80, 0x80, 0x80, 0x80, 0x88, 0x80, 0x80, 0x80, 0x80, 0x01}) // delta 2^63+2^31
	f.Add(numLayouts, uint16(3), []byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, layout byte, count uint16, payload []byte) {
		checkBlockAgainstReference(t, layout, int(count)%4097, payload)
	})
}

func readAllFile(path string) ([]byte, error) {
	return os.ReadFile(path)
}
