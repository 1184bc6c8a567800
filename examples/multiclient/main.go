// Multi-client example: four organizations with unequal feature counts
// train one GTV system. Demonstrates the ratio vector P_r, an imbalanced
// column assignment, and the paper's "enlarged generator" remedy for
// quality degradation at higher client counts.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/stats"
)

func main() {
	if err := run(os.Stdout, 250); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer, rounds int) error {
	d, err := datasets.Generate("intrusion", datasets.Config{Rows: 600, Seed: 3})
	if err != nil {
		return err
	}
	// Imbalanced ownership: client 0 gets 5 columns, client 1 gets 3,
	// clients 2 and 3 get the rest.
	cols := d.Table.Cols()
	assignment := make([]int, cols)
	for j := range assignment {
		switch {
		case j < 5:
			assignment[j] = 0
		case j < 8:
			assignment[j] = 1
		case j < 10:
			assignment[j] = 2
		default:
			assignment[j] = 3
		}
	}

	// Each party's columns, split once: the federation trains on them and
	// the avg-client metric compares the synthetic parts against them.
	realParts, err := d.Table.VerticalSplit(assignment, 4)
	if err != nil {
		return err
	}

	for _, enlarged := range []bool{false, true} {
		opts := core.DefaultOptions()
		opts.Rounds = rounds
		if enlarged {
			opts.GenBlockDim = 3 * opts.BlockDim
		}
		g, err := core.New(realParts, opts)
		if err != nil {
			return err
		}
		label := "default generator"
		if enlarged {
			label = "enlarged generator (3x block width)"
		}
		fmt.Fprintf(w, "%s: P_r = %.2f\n", label, g.Ratios())
		if err := g.Train(nil); err != nil {
			return err
		}
		_, parts, err := g.SynthesizeParts(600)
		if err != nil {
			return err
		}
		avg, err := stats.AvgClientDiff(realParts, parts)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  avg-client Diff.Corr: %.3f\n", avg)
	}
	return nil
}
