// Package experiments regenerates every table and figure of the GTV
// paper's evaluation (§4): the motivation case study (Fig. 3), the
// neural-network partition study (Fig. 8), the training-data partition
// study (Figs. 10-11, Table 2) and the client-count study (Figs. 12-13,
// Table 3).
//
// Experiments run at a configurable Scale. The default scale is sized for a
// laptop CPU (hundreds of rows, hundreds of rounds, width-64 blocks); the
// paper's absolute numbers used 50k rows, width-256 blocks and GPU-scale
// training, so only the *shape* of results — orderings, trends,
// crossovers — is expected to match. See EXPERIMENTS.md for the recorded
// comparison.
package experiments

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/datasets"
)

// Scale controls the compute budget of every experiment.
type Scale struct {
	// Rows is the per-dataset row count (the paper samples 50k).
	Rows int
	// Rounds, DiscSteps, BatchSize, BlockDim, NoiseDim and LR configure
	// GAN training for every cell.
	Rounds, DiscSteps, BatchSize, BlockDim, NoiseDim int
	LR                                               float64
	// Repeats averages every cell over this many seeds (the paper uses 3).
	Repeats int
	// Parallelism bounds concurrently-running cells (0 = NumCPU).
	Parallelism int
	// ClientParallelism bounds how many clients each GTV server drives
	// concurrently per round (0 = all, 1 = sequential); results are
	// bit-identical across settings, so it is purely a throughput knob.
	ClientParallelism int
	// Datasets selects the datasets to run on (default: all five).
	Datasets []string
	// Seed is the base random seed.
	Seed int64
}

// DefaultScale returns the laptop-scale configuration used by the recorded
// EXPERIMENTS.md results.
func DefaultScale() Scale {
	return Scale{
		Rows:      500,
		Rounds:    300,
		DiscSteps: 3,
		BatchSize: 64,
		BlockDim:  64,
		NoiseDim:  24,
		LR:        5e-4,
		Repeats:   1,
		Datasets:  datasets.Names(),
		Seed:      1,
	}
}

func (s *Scale) validate() error {
	if s.Rows < 50 {
		return fmt.Errorf("experiments: %d rows is too few", s.Rows)
	}
	if s.Rounds <= 0 || s.BatchSize <= 0 {
		return fmt.Errorf("experiments: rounds %d and batch %d must be positive", s.Rounds, s.BatchSize)
	}
	if s.Repeats <= 0 {
		s.Repeats = 1
	}
	if s.Parallelism <= 0 {
		s.Parallelism = runtime.NumCPU()
	}
	if len(s.Datasets) == 0 {
		s.Datasets = datasets.Names()
	}
	if s.LR <= 0 {
		s.LR = 5e-4
	}
	return nil
}

// forEach runs fn(i) for i in [0, n) across at most parallelism goroutines
// and returns the first error.
func forEach(n, parallelism int, fn func(i int) error) error {
	if parallelism > n {
		parallelism = n
	}
	if parallelism < 1 {
		parallelism = 1
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	next := make(chan int)
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if err := fn(i); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return firstErr
}
