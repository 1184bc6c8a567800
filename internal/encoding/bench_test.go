package encoding_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/datasets"
	"repro/internal/encoding"
	"repro/internal/gmm"
)

// BenchmarkTransformTo streams the encode of the columns the second of two
// adult clients holds — a categorical, two mixed, a continuous and the
// categorical target — into a sink that drops the rows: mode sampling and
// row assembly without a writer behind them. The fit is outside the timer.
func BenchmarkTransformTo(b *testing.B) {
	const rows = 100_000
	d, err := datasets.Generate("adult", datasets.Config{Rows: rows, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	t, err := d.Table.SelectColumns([]int{6, 7, 8, 9, 10})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	tr, err := encoding.FitTransformer(rng, t, gmm.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.TransformTo(rng, t, func([]float64) error { return nil }); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/rows, "ns/row")
}

// BenchmarkFitTransformer fits the transformer of the columns the first of
// two adult clients holds at 500 k rows — the fit half of a rows-cold
// party's cold set-up: a GMM per continuous and mixed column, nothing for
// the categorical ones.
func BenchmarkFitTransformer(b *testing.B) {
	const rows = 500_000
	d, err := datasets.Generate("adult", datasets.Config{Rows: rows, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	t, err := d.Table.SelectColumns([]int{0, 1, 2, 3, 4, 5})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := encoding.FitTransformer(rand.New(rand.NewSource(2)), t, gmm.DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/rows, "ns/row")
}

// BenchmarkVerticalSplit splits 500 k adult rows between two parties the way
// core.NewFromAssignment does, contiguous runs of columns: the copy every
// federation's set-up starts with.
func BenchmarkVerticalSplit(b *testing.B) {
	const rows = 500_000
	d, err := datasets.Generate("adult", datasets.Config{Rows: rows, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	assignment := make([]int, d.Table.Cols())
	for j := range assignment {
		assignment[j] = 2 * j / len(assignment)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Table.VerticalSplit(assignment, 2); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/rows, "ns/row")
}

// BenchmarkBackingGatherRows gathers 64 uniform rows from each party of a
// two-client adult split at 500 k rows, the batch a rows-warm round draws:
// each party's store on disk behind an 8 MiB block cache, which holds the
// whole file, warmed before the timer. The span codes are gathered and
// expanded to encoded rows.
func BenchmarkBackingGatherRows(b *testing.B) {
	const rows, batch = 500_000, 64
	d, err := datasets.Generate("adult", datasets.Config{Rows: rows, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	for i, cols := range [][]int{{0, 1, 2, 3, 4, 5}, {6, 7, 8, 9, 10}} {
		t, err := d.Table.SelectColumns(cols)
		if err != nil {
			b.Fatal(err)
		}
		st := encoding.Storage{Dir: dir, Name: fmt.Sprintf("client-%d", i), CacheBytes: 8 << 20}
		_, backing, err := encoding.OpenOrEncode(st, t, int64(1+1000*i), gmm.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.Run(st.Name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(3))
			idx := make([]int, batch)
			gather := func() {
				for k := range idx {
					idx[k] = rng.Intn(rows)
				}
				m, err := backing.GatherRows(idx)
				if err != nil {
					b.Fatal(err)
				}
				m.Release()
			}
			for w := 0; w < 64; w++ {
				gather()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				gather()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/batch, "ns/row")
		})
		if err := backing.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
