package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/encoding"
	"repro/internal/vfl"
)

// workload is one set of inputs. Every size that decides how much work a
// run does is here, so the self-test can shrink a copy through testSizes.
type workload struct {
	name string
	why  string

	dataset string
	rows    int
	clients int
	// options returns the product options for a seed; DataDir and
	// BlockCacheMB are filled in by the runner from store and cacheMB.
	options func(seed int64) core.Options
	// store says where the encoded matrices live: "" in memory, "cold" a
	// fresh empty DataDir every construction, "warm" a DataDir that already
	// holds the matching gtvcol files.
	store   string
	cacheMB int

	setupReps int
	warmup    int
	// fixedRounds is the number of timed rounds the traced run makes and the
	// prefix of the untraced run's timed rounds over which the byte counts
	// and the trajectory digest are taken, so both are the same rounds of
	// the same trajectory however long the untraced run goes on.
	fixedRounds int
	// minRounds is the least number of timed rounds whatever -seconds says.
	minRounds int
	// synthN is the number of rows of each Synthesize call.
	synthN int
	// kernelIters scales the fixed iteration counts of the kernel probes.
	kernelIters int
}

func paperFedOptions(seed int64) core.Options {
	o := core.PaperOptions()
	// Half the paper's batch of 500: the same widths, depths and step counts
	// at a round short enough for 24 of them to fit a run.
	o.BatchSize = 250
	o.Seed = seed
	return o
}

func wire4cOptions(seed int64) core.Options {
	o := core.DefaultOptions()
	o.Plan = vfl.Plan{DiscServer: 0, DiscClient: 2, GenServer: 0, GenClient: 2}
	o.BatchSize = 500
	o.Pac = 10
	o.FaithfulRealPass = true
	o.Transport = "binary"
	o.Seed = seed
	return o
}

func rowsOptions(seed int64) core.Options {
	o := core.DefaultOptions()
	o.Seed = seed
	return o
}

// workloads is the fixed order the suite runs them in: rows-warm reads the
// store rows-cold has just written.
func workloads() []workload {
	return []workload{
		{
			name:    "paper-fed",
			why:     "paper-scale compute (block 256, pac 10, 5 critic steps, batch 250), local transport: kernels, autograd and Adam own the round; set-up, wire and data plane are bypassed",
			dataset: "adult", rows: 40000, clients: 2, options: paperFedOptions,
			setupReps: 8, warmup: 2, fixedRounds: 8, minRounds: 24, synthN: 7000, kernelIters: 20,
		},
		{
			name:    "wire-4c",
			why:     "4 clients over gtvwire on TCP loopback with the full-table real pass: codec, framing and server fan-out are on the critical path, which the other three bypass",
			dataset: "adult", rows: 5000, clients: 4, options: wire4cOptions,
			setupReps: 64, warmup: 10, fixedRounds: 40, minRounds: 60, synthN: 32000, kernelIters: 200,
		},
		{
			name:    "rows-cold",
			why:     "500k rows into an empty DataDir: GMM fit, encode and gtvcol write own set-up, the O(rows) end-of-round shuffle owns the round; kernels are negligible",
			dataset: "adult", rows: 500000, clients: 2, options: rowsOptions, store: "cold",
			setupReps: 3, warmup: 5, fixedRounds: 40, minRounds: 40, synthN: 27000, kernelIters: 2000,
		},
		{
			name:    "rows-warm",
			why:     "same 500k rows but the gtvcol store already exists and the block cache is 8 MiB: open replaces fit+encode, and block decode sits inside every round",
			dataset: "adult", rows: 500000, clients: 2, options: rowsOptions, store: "warm", cacheMB: 8,
			setupReps: 18, warmup: 5, fixedRounds: 40, minRounds: 40, synthN: 27000, kernelIters: 2000,
		},
	}
}

// testSizes, when set by the self-test, shrinks a workload before it runs.
var testSizes func(*workload)

func findWorkload(name string) (workload, error) {
	for _, w := range workloads() {
		if w.name == name {
			if testSizes != nil {
				testSizes(&w)
			}
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// input is what a workload trains on, made from the seed alone.
type input struct {
	table      *encoding.Table
	assignment []int
	genSeconds float64
}

func (w workload) generate(seed int64) (input, error) {
	start := time.Now()
	d, err := datasets.Generate(w.dataset, datasets.Config{Rows: w.rows, Seed: seed})
	if err != nil {
		return input{}, err
	}
	assignment, err := core.EvenAssignment(d.Table.Cols(), w.clients)
	if err != nil {
		return input{}, err
	}
	return input{table: d.Table, assignment: assignment, genSeconds: time.Since(start).Seconds()}, nil
}

// storeFiles lists the encoded gtvcol files a federation of this workload
// keeps under dir.
func (w workload) storeFiles(dir string) []string {
	out := make([]string, w.clients)
	for i := range out {
		out[i] = filepath.Join(dir, fmt.Sprintf("client-%d.enc.gtvcol", i))
	}
	return out
}

// fileStamp is what must not change about a store file while rows-warm
// runs: a silent re-encode would rewrite it.
type fileStamp struct {
	size  int64
	mtime time.Time
}

func stampFiles(paths []string) ([]fileStamp, error) {
	out := make([]fileStamp, len(paths))
	for i, p := range paths {
		fi, err := os.Stat(p)
		if err != nil {
			return nil, err
		}
		out[i] = fileStamp{size: fi.Size(), mtime: fi.ModTime()}
	}
	return out, nil
}
