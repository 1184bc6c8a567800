// Command gtv-train trains a GTV system (or the centralized baseline) on
// one of the built-in synthetic datasets, reports quality metrics, and
// optionally writes the synthetic table to CSV.
//
// Usage:
//
//	gtv-train -dataset adult -clients 2 -plan D2_0G2_0 -rounds 400 -synth-out synth.csv
//	gtv-train -dataset loan -centralized
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/encoding"
	"repro/internal/ml"
	"repro/internal/stats"
	"repro/internal/vfl"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gtv-train:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("gtv-train", flag.ContinueOnError)
	var (
		dataset     = fs.String("dataset", "adult", "dataset: loan|adult|covtype|intrusion|credit")
		rows        = fs.Int("rows", 1000, "dataset rows")
		clients     = fs.Int("clients", 2, "number of VFL clients")
		planArg     = fs.String("plan", "D2_0G2_0", "partition plan, e.g. D2_0G0_2")
		centralized = fs.Bool("centralized", false, "train the centralized baseline instead of GTV")
		rounds      = fs.Int("rounds", 400, "training rounds")
		discSteps   = fs.Int("disc-steps", 3, "critic steps per round")
		batch       = fs.Int("batch", 64, "batch size")
		block       = fs.Int("block", 64, "block width")
		noise       = fs.Int("noise", 32, "noise width")
		lr          = fs.Float64("lr", 5e-4, "learning rate")
		pac         = fs.Int("pac", 1, "PacGAN packing degree (batch must divide)")
		dpNoise     = fs.Float64("dp-noise", 0, "Gaussian DP noise std on exchanged logits (GTV only)")
		seed        = fs.Int64("seed", 1, "random seed")
		parallel    = fs.Int("parallel-clients", 0, "max clients driven concurrently per round (0 = all, 1 = sequential; results are identical)")
		wire        = fs.String("wire", "local", "client transport (GTV only): local (in-process) | binary (gtvwire frames over TCP loopback)")
		wireF32     = fs.Bool("wire-f32", false, "send activations/gradients as float32 on the binary wire (halves boundary traffic, breaks exact cross-transport reproducibility)")
		wireTopK    = fs.Float64("wire-topk", 0, "keep only this fraction of each outbound gradient (top-k with error feedback; lossy, 0 = off)")
		wireDelta   = fs.Bool("wire-delta", false, "fetch client checkpoints as deltas against the previous fetch (binary wire only, lossless)")
		faithful    = fs.Bool("faithful-real-pass", false, "use the paper's full-local-pass index privacy mode")
		synthOut    = fs.String("synth-out", "", "write synthetic data to this CSV file")
		every       = fs.Int("log-every", 50, "print losses every N rounds")
		cpuProfile  = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProfile  = fs.String("memprofile", "", "write a heap profile (taken after training) to this file")
		ckptDir     = fs.String("checkpoint-dir", "", "write atomic gtvsnap checkpoints into this directory")
		ckptEvery   = fs.Int("checkpoint-every", 1, "rounds between checkpoints when -checkpoint-dir is set")
		resume      = fs.Bool("resume", false, "restore the newest checkpoint in -checkpoint-dir before training")
		dataDir     = fs.String("data-dir", "", "keep each party's encoded matrix in a gtvcol columnar file under this directory (flat-memory out-of-core training; a rerun with the same seed, GMM config, row count and schema reuses the files and trains on the stored rows)")
		blockCache  = fs.Int("block-cache", 0, "block cache budget per party in MiB (0 = 256): bounds the bytes held, about as many bytes of the party's gtvcol file; only with -data-dir")
		skipEval    = fs.Bool("skip-eval", false, "skip the similarity/utility evaluation after training")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("creating %s: %w", *cpuProfile, err)
		}
		defer func() {
			if cerr := f.Close(); cerr != nil {
				fmt.Fprintln(os.Stderr, "gtv-train: closing CPU profile:", cerr)
			}
		}()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("starting CPU profile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "gtv-train: creating heap profile:", err)
				return
			}
			runtime.GC() // flush dead objects so the profile shows live retention
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "gtv-train: writing heap profile:", err)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "gtv-train: closing heap profile:", err)
			}
		}()
	}

	// The raw train split is identified by everything that determines its
	// rows; with -data-dir, a centralized -skip-eval rerun whose stored
	// split carries the same tag skips dataset generation entirely (the
	// flat-memory path: on an encoded-store hit, no row is ever read).
	sourceTag := fmt.Sprintf("%s:rows=%d:seed=%d:split=0.2", *dataset, *rows, *seed)
	rawStore := encoding.Storage{Dir: *dataDir, Name: "train", CacheBytes: int64(*blockCache) << 20}
	var (
		// train is the stored split on a hit, else split.
		train       encoding.Source
		split, test *encoding.Table
		target      int
	)
	if *dataDir != "" && *centralized && *skipEval {
		if src, tag, err := encoding.OpenRawTable(rawStore); err == nil && tag == sourceTag {
			train = src
			fmt.Fprintf(stdout, "dataset %s: %d train rows, %d columns (stored, %s)\n",
				*dataset, src.Rows(), len(src.Schema()), rawStore.RawPath())
		}
	}
	if train == nil {
		d, err := datasets.Generate(*dataset, datasets.Config{Rows: *rows, Seed: *seed})
		if err != nil {
			return err
		}
		rng := rand.New(rand.NewSource(*seed))
		if split, test, err = d.TrainTestSplit(rng, 0.2); err != nil {
			return err
		}
		train, target = split, d.Target
		fmt.Fprintf(stdout, "dataset %s: %d train rows, %d test rows, %d columns\n",
			*dataset, split.Rows(), test.Rows(), split.Cols())
		if *dataDir != "" && *centralized {
			if err := encoding.WriteRawTable(rawStore, split, sourceTag); err != nil {
				return err
			}
		}
	}

	opts := core.DefaultOptions()
	opts.Rounds = *rounds
	opts.DiscSteps = *discSteps
	opts.BatchSize = *batch
	opts.BlockDim = *block
	opts.NoiseDim = *noise
	opts.LR = *lr
	opts.Pac = *pac
	opts.DPLogitNoise = *dpNoise
	opts.Seed = *seed
	opts.Parallelism = *parallel
	opts.Transport = *wire
	opts.WireFloat32 = *wireF32
	opts.WireTopK = *wireTopK
	opts.WireDelta = *wireDelta
	opts.FaithfulRealPass = *faithful
	opts.CheckpointDir = *ckptDir
	opts.CheckpointEvery = *ckptEvery
	opts.Resume = *resume
	opts.DataDir = *dataDir
	opts.BlockCacheMB = *blockCache

	progress := func(round int, dLoss, gLoss float64) {
		if *every > 0 && (round+1)%*every == 0 {
			fmt.Fprintf(stdout, "round %4d  critic %.4f  generator %.4f\n", round+1, dLoss, gLoss)
		}
	}

	// With evaluation skipped and no output file, the synthesized table
	// would be discarded unread; skipping the full-table generator pass
	// keeps -skip-eval runs' peak memory bounded by training, not by an
	// n-row synthesis no one looks at.
	wantSynth := !*skipEval || *synthOut != ""
	// Construction (split, GMM fit, encode, gtvcol write or open, sampler) is
	// billed as set-up; the training clock starts once it is done.
	setupStart := time.Now()
	var (
		m      model
		kind   = "centralized"
		banner string // printed after the set-up line
		// inverse puts federated synthesis back in the table's column order.
		inverse []int
	)
	err := phase("setup", func() error {
		if *centralized {
			c, err := core.NewCentralized(train, opts)
			if err != nil {
				return err
			}
			m = c
			return nil
		}
		plan, err := vfl.ParsePlan(*planArg)
		if err != nil {
			return err
		}
		opts.Plan = plan
		assignment, err := core.EvenAssignment(split.Cols(), *clients)
		if err != nil {
			return err
		}
		g, err := core.NewFromAssignment(split, assignment, *clients, opts)
		if err != nil {
			return err
		}
		m, kind = g, "federated"
		banner = fmt.Sprintf("GTV %s with %d clients over %q transport, P_r=%v\n", plan.Name(), *clients, *wire, g.Ratios())
		inverse = make([]int, len(assignment))
		for pos, col := range core.ColumnOrder(assignment, *clients) {
			inverse[col] = pos
		}
		return nil
	})
	if err != nil {
		return err
	}
	//lint:ignore errdrop teardown of the data plane and finished loopback transports at exit
	defer func() { _ = m.Close() }()
	fmt.Fprintf(stdout, "setup: %s\n%s", time.Since(setupStart), banner)
	if m.Rounds() > 0 {
		fmt.Fprintf(stdout, "resumed %s training at round %d\n", kind, m.Rounds())
	}
	trainStart := time.Now()
	if err := phase("train", func() error { return m.Train(progress) }); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "training: %d rounds in %s\n", *rounds, time.Since(trainStart))
	if g, ok := m.(*core.GTV); ok {
		// Estimate (8 B/element payload model) and, on a network transport,
		// the measured framed bytes side by side.
		fmt.Fprintf(stdout, "communication: %s\n", g.CommStats())
	}
	var synth *encoding.Table
	if wantSynth {
		err := phase("synth", func() error {
			var err error
			if synth, err = m.Synthesize(train.Rows()); err != nil {
				return err
			}
			if inverse != nil {
				synth, err = synth.SelectColumns(inverse)
			}
			return err
		})
		if err != nil {
			return err
		}
	}

	if !*skipEval {
		sim, err := stats.Similarity(split, synth)
		if err != nil {
			return err
		}
		util, err := ml.UtilityDifference(split, synth, test, target, *seed)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "statistical similarity: avg JSD %.4f, avg WD %.4f, Diff.Corr %.3f\n",
			sim.AvgJSD, sim.AvgWD, sim.DiffCorr)
		fmt.Fprintf(stdout, "ML utility difference (real - synthetic): %s\n", util)
	}

	if *synthOut != "" {
		if err := encoding.WriteCSVFile(*synthOut, synth); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "synthetic data written to %s\n", *synthOut)
	}
	return nil
}

// phase runs f under the pprof label phase=name, so that a -cpuprofile
// splits into set-up, training and synthesis (`go tool pprof
// -tagfocus=phase=train`). Goroutines f starts carry the label too: the
// loopback clients of -wire binary, started during set-up, stay labelled
// setup while they serve the rounds.
func phase(name string, f func() error) error {
	var err error
	pprof.Do(context.Background(), pprof.Labels("phase", name), func(context.Context) { err = f() })
	return err
}

// model is what run drives once set-up is done: *core.GTV or
// *core.Centralized.
type model interface {
	Train(progress func(round int, dLoss, gLoss float64)) error
	Rounds() int
	Synthesize(n int) (*encoding.Table, error)
	Close() error
}
