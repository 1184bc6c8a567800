package condvec_test

import (
	"math/rand"
	"testing"

	"repro/internal/condvec"
	"repro/internal/datasets"
	"repro/internal/encoding"
	"repro/internal/gmm"
)

// BenchmarkNewSampler builds the training-by-sampling index over 500 k adult
// rows, every column of the table (what gtv-train -centralized builds), from
// the table in memory and from its gtvcol file (-data-dir). The transformer
// is fitted on the first 5 000 rows outside the timer: the sampler reads
// only its categorical spans, which the specs fix.
func BenchmarkNewSampler(b *testing.B) {
	const rows = 500_000
	d, err := datasets.Generate("adult", datasets.Config{Rows: rows, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	tr, err := encoding.FitTransformer(rand.New(rand.NewSource(2)), d.Table.SliceRows(0, 5000), gmm.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	st := encoding.Storage{Dir: b.TempDir(), Name: "train"}
	if err := encoding.WriteRawTable(st, d.Table, "bench"); err != nil {
		b.Fatal(err)
	}
	stored, _, err := encoding.OpenRawTable(st)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		if err := stored.Close(); err != nil {
			b.Error(err)
		}
	})
	for _, c := range []struct {
		name  string
		table *encoding.Table
	}{{"memory", d.Table}, {"stored", stored}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := condvec.NewSampler(c.table, tr); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/rows, "ns/row")
		})
	}
}
