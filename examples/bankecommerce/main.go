// The paper's motivating scenario: a bank and an e-commerce company hold
// different features for the same customers and want a joint synthetic
// dataset without sharing raw data. The bank holds income/credit features
// and the loan-default target; the e-commerce company holds purchasing
// behaviour. After GTV training, the published synthetic table preserves
// the cross-organization correlation (purchases vs income) that neither
// party could synthesize alone.
package main

import (
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"

	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/stats"
	"repro/internal/tensor"
)

// buildCustomers fabricates the shared customer base: a latent "wealth"
// factor drives both the bank's and the shop's columns, so real
// cross-party correlation exists for GTV to learn.
func buildCustomers(n int, seed int64) (bank, shop *encoding.Table, err error) {
	rng := rand.New(rand.NewSource(seed))
	bankData := tensor.New(n, 3)
	shopData := tensor.New(n, 3)
	for i := 0; i < n; i++ {
		wealth := rng.NormFloat64()
		// Bank: income, credit score band, default flag.
		income := 50 + float64(25*wealth) + float64(rng.NormFloat64()*8)
		band := 0.0
		if wealth > 0.4 {
			band = 2
		} else if wealth > -0.4 {
			band = 1
		}
		deflt := 0.0
		if wealth+float64(rng.NormFloat64()*0.7) < -1.1 {
			deflt = 1
		}
		bankData.Set(i, 0, income)
		bankData.Set(i, 1, band)
		bankData.Set(i, 2, deflt)
		// Shop: monthly spend, premium membership, returns count.
		spend := 120 + float64(80*wealth) + float64(rng.NormFloat64()*30)
		premium := 0.0
		if wealth+float64(rng.NormFloat64()*0.5) > 0.6 {
			premium = 1
		}
		returns := float64(rng.Intn(3))
		shopData.Set(i, 0, spend)
		shopData.Set(i, 1, premium)
		shopData.Set(i, 2, returns)
	}
	bank, err = encoding.NewTable([]encoding.ColumnSpec{
		{Name: "income", Kind: encoding.KindContinuous},
		{Name: "credit_band", Kind: encoding.KindCategorical, Categories: []string{"low", "mid", "high"}},
		{Name: "default", Kind: encoding.KindCategorical, Categories: []string{"no", "yes"}},
	}, bankData)
	if err != nil {
		return nil, nil, err
	}
	shop, err = encoding.NewTable([]encoding.ColumnSpec{
		{Name: "monthly_spend", Kind: encoding.KindContinuous},
		{Name: "premium", Kind: encoding.KindCategorical, Categories: []string{"no", "yes"}},
		{Name: "returns", Kind: encoding.KindCategorical, Categories: []string{"0", "1", "2"}},
	}, shopData)
	return bank, shop, err
}

func main() {
	if err := run(os.Stdout, 400); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer, rounds int) error {
	bank, shop, err := buildCustomers(800, 11)
	if err != nil {
		return err
	}

	// Each organization is one GTV client; neither ever ships a raw row.
	opts := core.DefaultOptions()
	opts.Rounds = rounds
	opts.Plan.GenServer, opts.Plan.GenClient = 0, 2 // D2_0 G2_0: scalable default
	g, err := core.New([]*encoding.Table{bank, shop}, opts)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "training joint bank + e-commerce synthesizer ...")
	if err := g.Train(nil); err != nil {
		return err
	}

	joined, parts, err := g.SynthesizeParts(800)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "synthetic table: %d rows x %d columns (bank %d + shop %d)\n",
		joined.Rows(), joined.Cols(), parts[0].Cols(), parts[1].Cols())

	// The pay-off: the cross-party association between the bank's income
	// and the shop's spend survives in the synthetic data.
	realJoined, err := encoding.ConcatColumns(bank, shop)
	if err != nil {
		return err
	}
	realCorr := stats.Pearson(realJoined.Data.Col(0), realJoined.Data.Col(3))
	synthCorr := stats.Pearson(joined.Data.Col(0), joined.Data.Col(3))
	fmt.Fprintf(w, "income vs monthly_spend correlation: real %.3f, synthetic %.3f\n", realCorr, synthCorr)

	across, err := stats.AcrossClientDiff(bank, shop, parts[0], parts[1])
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "across-client Diff.Corr (lower is better): %.3f\n", across)
	return nil
}
