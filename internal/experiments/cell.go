package experiments

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/encoding"
	"repro/internal/ml"
	"repro/internal/stats"
	"repro/internal/vfl"
)

// CellResult holds every metric the paper reports for one (dataset,
// configuration) cell. All values are real-vs-synthetic differences: lower
// is better.
type CellResult struct {
	// Utility is the absolute difference of the average classifier scores
	// (accuracy, macro-F1, macro-AUC) between models trained on real and on
	// synthetic data, both evaluated on the real test set.
	Utility ml.Scores
	// JSD and WD are the average statistical-similarity distances.
	JSD, WD float64
	// DiffCorr is the joint-table association-matrix difference.
	DiffCorr float64
	// AvgClient and AcrossClient decompose DiffCorr for the 2-client
	// partition experiment (zero when not applicable).
	AvgClient, AcrossClient float64
}

// add accumulates o into r (for averaging repeats).
func (r *CellResult) add(o CellResult) {
	r.Utility = r.Utility.Add(o.Utility)
	r.JSD += o.JSD
	r.WD += o.WD
	r.DiffCorr += o.DiffCorr
	r.AvgClient += o.AvgClient
	r.AcrossClient += o.AcrossClient
}

func (r *CellResult) scale(k float64) {
	r.Utility = r.Utility.Scale(k)
	r.JSD *= k
	r.WD *= k
	r.DiffCorr *= k
	r.AvgClient *= k
	r.AcrossClient *= k
}

// averageCells returns the element-wise mean of the results.
func averageCells(cells []CellResult) CellResult {
	var out CellResult
	for _, c := range cells {
		out.add(c)
	}
	out.scale(1 / float64(len(cells)))
	return out
}

// options builds core.Options from the scale for a given plan and seed.
func (s *Scale) options(plan vfl.Plan, enlargedGen bool, seed int64) core.Options {
	o := core.DefaultOptions()
	o.Plan = plan
	o.Rounds = s.Rounds
	o.DiscSteps = s.DiscSteps
	o.BatchSize = s.BatchSize
	o.NoiseDim = s.NoiseDim
	o.BlockDim = s.BlockDim
	o.LR = s.LR
	o.Seed = seed
	if enlargedGen {
		o.GenBlockDim = 3 * s.BlockDim
	}
	return o
}

// splitDataset builds the train/test tables for one repeat.
func splitDataset(name string, s *Scale, seed int64) (*datasets.Dataset, *encoding.Table, *encoding.Table, error) {
	d, err := datasets.Generate(name, datasets.Config{Rows: s.Rows, Seed: seed})
	if err != nil {
		return nil, nil, nil, err
	}
	rng := rand.New(rand.NewSource(seed + 17))
	train, test, err := d.TrainTestSplit(rng, 0.2)
	if err != nil {
		return nil, nil, nil, err
	}
	return d, train, test, nil
}

// runGTVCell trains a GTV system on the train split under the given column
// assignment and returns the full metric set.
func runGTVCell(dsName string, assignment []int, numClients int, opts core.Options, s *Scale, seed int64) (CellResult, error) {
	d, train, test, err := splitDataset(dsName, s, seed)
	if err != nil {
		return CellResult{}, fmt.Errorf("experiments: dataset %s: %w", dsName, err)
	}
	order := core.ColumnOrder(assignment, numClients)
	newTarget := slices.Index(order, d.Target)

	gtv, err := core.NewFromAssignment(train, assignment, numClients, opts)
	if err != nil {
		return CellResult{}, fmt.Errorf("experiments: building GTV on %s: %w", dsName, err)
	}
	//lint:ignore errdrop teardown of a finished in-memory federation
	defer func() { _ = gtv.Close() }()
	if err := gtv.Train(nil); err != nil {
		return CellResult{}, fmt.Errorf("experiments: training GTV on %s: %w", dsName, err)
	}
	synth, synthParts, err := gtv.SynthesizeParts(train.Rows())
	if err != nil {
		return CellResult{}, fmt.Errorf("experiments: synthesizing on %s: %w", dsName, err)
	}

	// Real train/test reordered to the synthetic column layout.
	trainOrdered, err := train.SelectColumns(order)
	if err != nil {
		return CellResult{}, err
	}
	testOrdered, err := test.SelectColumns(order)
	if err != nil {
		return CellResult{}, err
	}
	realParts, err := train.VerticalSplit(assignment, numClients)
	if err != nil {
		return CellResult{}, err
	}

	return computeMetrics(trainOrdered, testOrdered, synth, realParts, synthParts, newTarget, seed)
}

// runCentralizedCell trains the baseline on the unsplit train table.
func runCentralizedCell(dsName string, opts core.Options, s *Scale, seed int64) (CellResult, error) {
	d, train, test, err := splitDataset(dsName, s, seed)
	if err != nil {
		return CellResult{}, fmt.Errorf("experiments: dataset %s: %w", dsName, err)
	}
	c, err := core.NewCentralized(train, opts)
	if err != nil {
		return CellResult{}, fmt.Errorf("experiments: building baseline on %s: %w", dsName, err)
	}
	//lint:ignore errdrop teardown of a finished in-memory baseline
	defer func() { _ = c.Close() }()
	if err := c.Train(nil); err != nil {
		return CellResult{}, fmt.Errorf("experiments: training baseline on %s: %w", dsName, err)
	}
	synth, err := c.Synthesize(train.Rows())
	if err != nil {
		return CellResult{}, fmt.Errorf("experiments: synthesizing baseline on %s: %w", dsName, err)
	}
	return computeMetrics(train, test, synth, nil, nil, d.Target, seed)
}

// computeMetrics evaluates all paper metrics for one synthetic table.
func computeMetrics(train, test, synth *encoding.Table, realParts, synthParts []*encoding.Table, target int, seed int64) (CellResult, error) {
	var out CellResult
	var err error
	if out.Utility, err = ml.UtilityDifference(train, synth, test, target, seed); err != nil {
		return CellResult{}, fmt.Errorf("experiments: utility: %w", err)
	}
	sim, err := stats.Similarity(train, synth)
	if err != nil {
		return CellResult{}, fmt.Errorf("experiments: similarity: %w", err)
	}
	out.JSD, out.WD, out.DiffCorr = sim.AvgJSD, sim.AvgWD, sim.DiffCorr

	if len(realParts) > 0 {
		if out.AvgClient, err = stats.AvgClientDiff(realParts, synthParts); err != nil {
			return CellResult{}, fmt.Errorf("experiments: avg-client: %w", err)
		}
		if len(realParts) == 2 {
			out.AcrossClient, err = stats.AcrossClientDiff(realParts[0], realParts[1], synthParts[0], synthParts[1])
			if err != nil {
				return CellResult{}, fmt.Errorf("experiments: across-client: %w", err)
			}
		}
	}
	return out, nil
}

// repeatCell averages a cell runner over the scale's repeats.
func repeatCell(s *Scale, run func(seed int64) (CellResult, error)) (CellResult, error) {
	cells := make([]CellResult, 0, s.Repeats)
	for r := 0; r < s.Repeats; r++ {
		c, err := run(s.Seed + int64(r)*7919)
		if err != nil {
			return CellResult{}, err
		}
		cells = append(cells, c)
	}
	return averageCells(cells), nil
}
