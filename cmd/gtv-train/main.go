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
	"repro/internal/snap"
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
		dataDir     = fs.String("data-dir", "", "keep each party's encoded matrix in a gtvcol columnar file under this directory (flat-memory out-of-core training; reruns reuse the files)")
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
	// table carries the same tag skips dataset generation entirely (the
	// flat-memory path: nothing row-scaled is ever materialized).
	sourceTag := fmt.Sprintf("%s:rows=%d:seed=%d:split=0.2", *dataset, *rows, *seed)
	rawStore := encoding.Storage{Dir: *dataDir, Name: "train", CacheBytes: int64(*blockCache) << 20}
	var (
		train, test *encoding.Table
		target      int
	)
	if *dataDir != "" && *centralized && *skipEval {
		if t, tag, err := encoding.OpenRawTable(rawStore); err == nil {
			if tag == sourceTag {
				train = t
				defer func() {
					//lint:ignore errdrop teardown of a read-only store at exit
					_ = t.Close()
				}()
				fmt.Fprintf(stdout, "dataset %s: %d train rows, %d columns (stored, %s)\n",
					*dataset, train.Rows(), train.Cols(), rawStore.RawPath())
			} else {
				//lint:ignore errdrop the stale store is simply regenerated
				_ = t.Close()
			}
		}
	}
	if train == nil {
		d, err := datasets.Generate(*dataset, datasets.Config{Rows: *rows, Seed: *seed})
		if err != nil {
			return err
		}
		rng := rand.New(rand.NewSource(*seed))
		if train, test, err = d.TrainTestSplit(rng, 0.2); err != nil {
			return err
		}
		target = d.Target
		fmt.Fprintf(stdout, "dataset %s: %d train rows, %d test rows, %d columns\n",
			*dataset, train.Rows(), test.Rows(), train.Cols())
		if *dataDir != "" && *centralized {
			if err := encoding.WriteRawTable(rawStore, train, sourceTag); err != nil {
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
	var synth *encoding.Table
	// Construction (split, GMM fit, encode, gtvcol write or open, sampler) is
	// billed as set-up; the training clock starts once it is done.
	setupStart := time.Now()
	var trainStart time.Time
	setupDone := func() {
		fmt.Fprintf(stdout, "setup: %s\n", time.Since(setupStart))
		trainStart = time.Now()
	}
	if *centralized {
		c, err := core.NewCentralized(train, opts)
		if err != nil {
			return err
		}
		setupDone()
		//lint:ignore errdrop teardown of the data plane at exit
		defer func() { _ = c.Close() }()
		if *ckptDir != "" {
			if err := os.MkdirAll(*ckptDir, 0o755); err != nil {
				return fmt.Errorf("checkpoint dir: %w", err)
			}
			if *resume {
				r, ok, err := c.RestoreLatestCheckpoint(*ckptDir)
				if err != nil {
					return err
				}
				if ok {
					fmt.Fprintf(stdout, "resumed centralized training at round %d\n", r)
				}
			}
		}
		err = snap.TrainWithCheckpoints(*ckptDir, *ckptEvery, c.Train, progress, c.SaveCheckpoint, c.Round)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "training: %d rounds in %s\n", *rounds, time.Since(trainStart))
		if wantSynth {
			if synth, err = c.Synthesize(train.Rows()); err != nil {
				return err
			}
		}
	} else {
		plan, err := vfl.ParsePlan(*planArg)
		if err != nil {
			return err
		}
		opts.Plan = plan
		assignment, err := core.EvenAssignment(train.Cols(), *clients)
		if err != nil {
			return err
		}
		g, err := core.NewFromAssignment(train, assignment, *clients, opts)
		if err != nil {
			return err
		}
		setupDone()
		//lint:ignore errdrop teardown of finished loopback transports, nothing left to lose
		defer func() { _ = g.Close() }()
		fmt.Fprintf(stdout, "GTV %s with %d clients over %q transport, P_r=%v\n", plan.Name(), *clients, *wire, g.Ratios())
		if *resume && g.Rounds() > 0 {
			fmt.Fprintf(stdout, "resumed federated training at round %d\n", g.Rounds())
		}
		if err := g.Train(progress); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "training: %d rounds in %s\n", *rounds, time.Since(trainStart))
		// Estimate (8 B/element payload model) and, on a network transport,
		// the measured framed bytes side by side.
		fmt.Fprintf(stdout, "communication: %s\n", g.CommStats())
		if wantSynth {
			if synth, err = g.Synthesize(train.Rows()); err != nil {
				return err
			}
			// The synthetic column order follows the assignment; restore the
			// original order for evaluation and output.
			order := make([]int, 0, train.Cols())
			for p := 0; p < *clients; p++ {
				for j, owner := range assignment {
					if owner == p {
						order = append(order, j)
					}
				}
			}
			inverse := make([]int, len(order))
			for pos, col := range order {
				inverse[col] = pos
			}
			if synth, err = synth.SelectColumns(inverse); err != nil {
				return err
			}
		}
	}

	if !*skipEval {
		sim, err := stats.Similarity(train, synth)
		if err != nil {
			return err
		}
		util, err := ml.UtilityDifference(train, synth, test, target, *seed)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "statistical similarity: avg JSD %.4f, avg WD %.4f, Diff.Corr %.3f\n",
			sim.AvgJSD, sim.AvgWD, sim.DiffCorr)
		fmt.Fprintf(stdout, "ML utility difference (real - synthetic): %s\n", util)
	}

	if *synthOut != "" {
		f, err := os.Create(*synthOut)
		if err != nil {
			return fmt.Errorf("creating %s: %w", *synthOut, err)
		}
		if err := encoding.WriteCSV(f, synth); err != nil {
			_ = f.Close() //lint:ignore errdrop the write error is the one worth reporting
			return err
		}
		// A failed Close on a written file can mean the synthetic data never
		// reached disk, so it is propagated rather than deferred away.
		if err := f.Close(); err != nil {
			return fmt.Errorf("closing %s: %w", *synthOut, err)
		}
		fmt.Fprintf(stdout, "synthetic data written to %s\n", *synthOut)
	}
	return nil
}
