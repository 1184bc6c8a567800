package condvec

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/datasets"
	"repro/internal/encoding"
	"repro/internal/gmm"
)

// adult returns rows rows of the adult stand-in, every column (what
// gtv-train -centralized samples from), and a transformer fitted on the
// first 5 000 of them: the sampler reads only its categorical spans, which
// the specs fix.
func adult(b *testing.B, rows int) (*encoding.Table, *encoding.Transformer) {
	b.Helper()
	d, err := datasets.Generate("adult", datasets.Config{Rows: rows, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	tr, err := encoding.FitTransformer(rand.New(rand.NewSource(2)), d.Table.SliceRows(0, min(rows, 5000)), gmm.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	return d.Table, tr
}

// BenchmarkNewSampler builds the training-by-sampling index over 500 k adult
// rows from the table in memory and from the code columns of its encoded
// image, and reports the index's size in
// bytes per row per categorical span.
func BenchmarkNewSampler(b *testing.B) {
	const rows = 500_000
	table, tr := adult(b, rows)
	// The image a party trains on: the table's encoded store, whose span
	// code columns NewImageSampler decodes.
	enc := encoding.Storage{Dir: b.TempDir(), Name: "central"}
	imageTr, image, err := encoding.OpenOrEncode(enc, table, 1, gmm.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		if err := image.Close(); err != nil {
			b.Error(err)
		}
	})
	for _, c := range []struct {
		name  string
		build func() (*Sampler, error)
	}{
		{"memory", func() (*Sampler, error) { return NewSampler(table, tr) }},
		{"image", func() (*Sampler, error) { return NewImageSampler(&image, imageTr) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var s *Sampler
			for i := 0; i < b.N; i++ {
				if s, err = c.build(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/rows, "ns/row")
			var size int
			for _, x := range s.index {
				size += len(x.codes) + 4*len(x.rank)
			}
			b.ReportMetric(float64(size)/rows/float64(len(s.index)), "B/row/span")
		})
	}
}

// BenchmarkSample draws training batches at two workload shapes of
// bench/: batch 64 over 500 k rows (rows-cold, rows-warm) and batch 500
// over 5 000 rows (wire-4c). A draw is one CV with its matching row.
func BenchmarkSample(b *testing.B) {
	for _, c := range []struct{ rows, batch int }{{500_000, 64}, {5_000, 500}} {
		b.Run(fmt.Sprintf("rows=%d/batch=%d", c.rows, c.batch), func(b *testing.B) {
			s, err := NewSampler(adult(b, c.rows))
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(3))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Sample(rng, c.batch); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(c.batch), "ns/draw")
		})
	}
}
