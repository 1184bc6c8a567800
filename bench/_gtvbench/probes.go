package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	ag "repro/internal/autograd"
	"repro/internal/coldata"
	"repro/internal/condvec"
	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/gan"
	"repro/internal/gmm"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// timeIt times fn like any timed operation (a collection first, wall time).
func timeIt(fn func() error) (time.Duration, error) {
	s, err := measure(fn)
	return s.wall, err
}

// medianOf times fn reps times and returns the median in milliseconds.
func medianOf(reps int, fn func() error) (float64, error) {
	xs := make([]float64, reps)
	for i := range xs {
		d, err := timeIt(fn)
		if err != nil {
			return 0, err
		}
		xs[i] = ms(d)
	}
	return median(xs), nil
}

// runProbes times single layers from outside, through their public calls,
// at the workload's rows, batch, backing kind and cache budget. t0 is
// client 0's table. Results are discarded; nothing here touches the
// federations the run measured.
func runProbes(out *outcome, w workload, in input, t0 *encoding.Table, opts core.Options, dirs runDirs) error {
	if err := dataProbes(out, w, t0, opts, dirs); err != nil {
		return fmt.Errorf("data probes: %w", err)
	}
	kernelProbes(out, w, opts)
	if w.name != "paper-fed" {
		out.absent("gan.centralized_round_ms_p50", "ms")
		return nil
	}
	return centralizedProbe(out, w, in, opts)
}

func dataProbes(out *outcome, w workload, t0 *encoding.Table, opts core.Options, dirs runDirs) error {
	rng := rand.New(rand.NewSource(opts.Seed))
	cfg := gmm.DefaultConfig()
	rows := t0.Rows()
	perm := rng.Perm(rows)
	mb := func(r, c int) float64 { return float64(r) * float64(c) * 8 / (1 << 20) }

	// Fit and encode: bypassed when the store is opened warm.
	var enc *tensor.Dense
	if w.store == "warm" {
		for _, name := range []string{"gmm.fit_ms", "encoding.fit_transformer_ms", "encoding.transform_ms"} {
			out.absent(name, "ms")
		}
	} else {
		col := -1
		for j, s := range t0.Specs {
			if s.Kind == encoding.KindContinuous {
				col = j
				break
			}
		}
		if col < 0 {
			return fmt.Errorf("client 0 has no continuous column to fit")
		}
		d, err := timeIt(func() error { _, err := gmm.Fit(rng, t0.Column(col), cfg); return err })
		if err != nil {
			return err
		}
		out.add("gmm.fit_ms", "ms", ms(d), fmt.Sprintf("one column, %d rows", rows))
		var tr *encoding.Transformer
		d, err = timeIt(func() (err error) { tr, err = encoding.FitTransformer(rng, t0, cfg); return err })
		if err != nil {
			return err
		}
		out.add("encoding.fit_transformer_ms", "ms", ms(d), fmt.Sprintf("client 0, %d columns", t0.Cols()))
		d, err = timeIt(func() (err error) { enc, err = tr.Transform(rng, t0); return err })
		if err != nil {
			return err
		}
		out.add("encoding.transform_ms", "ms", ms(d), fmt.Sprintf("%d x %d encoded", enc.Rows(), enc.Cols()))
	}

	// The public constructor of the party's data plane, as the client calls
	// it: in memory, into an empty scratch directory, or on the warm store.
	st := encoding.Storage{Name: "client-0", CacheBytes: int64(opts.BlockCacheMB) << 20}
	switch w.store {
	case "cold":
		st.Dir = dirs.sub("probe-store")
		if err := emptyDir(st.Dir); err != nil {
			return err
		}
	case "warm":
		st.Dir = opts.DataDir
	}
	var (
		tr      *encoding.Transformer
		backing encoding.Backing
	)
	d, err := timeIt(func() (err error) {
		tr, backing, err = encoding.OpenOrEncode(st, t0, opts.Seed, cfg)
		return err
	})
	if err != nil {
		return err
	}
	defer backing.Close()
	out.add("encoding.open_or_encode_ms", "ms", ms(d), "client 0, store "+storeKind(w))

	var sampler *condvec.Sampler
	d, err = timeIt(func() (err error) { sampler, err = condvec.NewSampler(t0, tr); return err })
	if err != nil {
		return err
	}
	out.add("condvec.new_sampler_ms", "ms", ms(d), "")

	batch := opts.BatchSize
	iters := 20 * w.kernelIters
	var cvb *condvec.Batch
	d, err = timeIt(func() (err error) {
		for i := 0; i < iters && err == nil; i++ {
			cvb, err = sampler.Sample(rng, batch)
		}
		return err
	})
	if err != nil {
		return err
	}
	out.add("condvec.sample_us_per_batch", "us", float64(d.Microseconds())/float64(iters), fmt.Sprintf("batch %d, %d iterations", batch, iters))

	v, err := medianOf(5, func() error { return sampler.Reindex(perm) })
	if err != nil {
		return err
	}
	out.add("condvec.reindex_ms", "ms", v, "median of 5")
	v, err = medianOf(5, func() error { _ = t0.ShuffleRows(perm); return nil })
	if err != nil {
		return err
	}
	out.add("encoding.table_shuffle_ms", "ms", v, fmt.Sprintf("median of 5, raw table %d x %d", rows, t0.Cols()))

	// A gather through an 8 MiB cache costs tens of microseconds a row, so
	// the gathers get a fixed, smaller count than the sampler.
	const gathers = 200
	d, err = timeIt(func() error {
		for i := 0; i < gathers; i++ {
			m, err := backing.GatherRows(cvb.Rows)
			if err != nil {
				return err
			}
			m.Release()
		}
		return nil
	})
	if err != nil {
		return err
	}
	out.add("encoding.gather_us_per_row", "us", float64(d.Microseconds())/float64(gathers*batch), fmt.Sprintf("Backing.GatherRows, %d batches of %d, store %s", gathers, batch, storeKind(w)))
	v, err = medianOf(5, func() error { return backing.Shuffle(perm) })
	if err != nil {
		return err
	}
	out.add("encoding.shuffle_ms", "ms", v, "median of 5, Backing.Shuffle")

	if w.store == "" {
		for _, m := range [][2]string{{"coldata.gather_us_per_row", "us"}, {"coldata.scan_mb_per_s", "MiB/s"}, {"coldata.write_mb_per_s", "MiB/s"}, {"coldata.store_mb", "MiB"}} {
			out.absent(m[0], m[1])
		}
		return nil
	}

	// The gtvcol file itself, below the Backing.
	file := st.EncPath()
	r, err := coldata.Open(file, st.CacheBytes)
	if err != nil {
		return err
	}
	defer r.Close()
	idx := make([]int32, batch)
	dst := tensor.New(batch, r.Cols())
	d, err = timeIt(func() error {
		for i := 0; i < gathers; i++ {
			for k := range idx {
				idx[k] = int32(rng.Intn(rows))
			}
			if err := r.GatherRowsInto(idx, dst); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	out.add("coldata.gather_us_per_row", "us", float64(d.Microseconds())/float64(gathers*batch), fmt.Sprintf("Reader.GatherRowsInto, %d batches of %d uniform rows, cache %d MiB (0 = default)", gathers, batch, opts.BlockCacheMB))
	d, err = timeIt(func() error { return r.ScanStripes(func(int, *tensor.Dense) error { return nil }) })
	if err != nil {
		return err
	}
	out.add("coldata.scan_mb_per_s", "MiB/s", mb(rows, r.Cols())/d.Seconds(), "decoded bytes, Reader.ScanStripes")

	if enc == nil {
		out.absent("coldata.write_mb_per_s", "MiB/s")
	} else {
		path := filepath.Join(dirs.sub("probe-store"), "probe-write.gtvcol")
		d, err = timeIt(func() error {
			cw, err := coldata.Create(path, enc.Cols(), 0)
			if err != nil {
				return err
			}
			if err := cw.AppendRows(enc); err != nil {
				_ = cw.Close() // the append error is the one to report
				return err
			}
			return cw.Close()
		})
		if err != nil {
			return err
		}
		out.add("coldata.write_mb_per_s", "MiB/s", mb(enc.Rows(), enc.Cols())/d.Seconds(), "decoded bytes, Writer.AppendRows + Close")
	}
	var storeBytes int64
	for _, p := range w.storeFiles(opts.DataDir) {
		fi, err := os.Stat(p)
		if err != nil {
			return err
		}
		storeBytes += fi.Size()
	}
	out.add("coldata.store_mb", "MiB", float64(storeBytes)/(1<<20), "exact, all clients' .enc.gtvcol")
	return nil
}

func storeKind(w workload) string {
	if w.store == "" {
		return "memory"
	}
	return w.store
}

// kernelProbes time the compute layers at the workload's batch x block
// shapes with fixed iteration counts.
func kernelProbes(out *outcome, w workload, opts core.Options) {
	rng := rand.New(rand.NewSource(opts.Seed))
	batch, block := opts.BatchSize, opts.BlockDim
	iters := w.kernelIters
	shape := fmt.Sprintf("batch %d, block %d, %d iterations", batch, block, iters)

	a := tensor.Randn(rng, batch, block, 0, 1)
	b := tensor.Randn(rng, block, block, 0, 1)
	dst := tensor.New(batch, block)
	d, _ := timeIt(func() error {
		for i := 0; i < 10*iters; i++ {
			tensor.MatMulInto(dst, a, b)
		}
		return nil
	})
	flops := 2 * float64(batch) * float64(block) * float64(block) * float64(10*iters)
	out.add("tensor.matmul_gflops", "GFLOP/s", flops/d.Seconds()/1e9, fmt.Sprintf("MatMulInto %dx%d by %dx%d", batch, block, block, block))

	mlp := nn.NewSequential(nn.NewLinear(rng, block, block), nn.LeakyReLU{Slope: 0.2}, nn.NewLinear(rng, block, block))
	x := ag.Const(a)
	d, _ = timeIt(func() error {
		for i := 0; i < iters; i++ {
			loss := ag.SumAll(ag.Square(mlp.Forward(x, true)))
			grads := nn.Grads(loss, mlp)
			var tape ag.Tape
			tape.Track(loss)
			tape.Track(grads...)
			tape.Release()
		}
		return nil
	})
	out.add("autograd.mlp_fwdbwd_ms", "ms", ms(d)/float64(iters), "2-layer MLP forward + backward, "+shape)

	pac := opts.Pac
	if pac < 1 {
		pac = 1
	}
	critic := gan.NewDiscriminator(rng, block*pac, block, 2)
	realIn := tensor.Randn(rng, batch/pac, block*pac, 0, 1)
	fakeIn := tensor.Randn(rng, batch/pac, block*pac, 0, 1)
	var grads []*ag.Value
	d, _ = timeIt(func() error {
		for i := 0; i < iters; i++ {
			gp := gan.GradientPenalty(rng, realIn, fakeIn, func(v *ag.Value) *ag.Value { return critic.Forward(v, true) })
			g := nn.Grads(gp, critic)
			if i == 0 {
				// Kept for the Adam probe below.
				for _, v := range g {
					grads = append(grads, ag.Const(v.Data().Clone()))
				}
			}
			var tape ag.Tape
			tape.Track(gp)
			tape.Track(g...)
			tape.Release()
		}
		return nil
	})
	out.add("gan.gradient_penalty_ms", "ms", ms(d)/float64(iters), "penalty + double backward through a 2-block critic, "+shape)

	adam := nn.NewAdam(opts.LR)
	params := critic.Params()
	d, _ = timeIt(func() error {
		for i := 0; i < 10*iters; i++ {
			adam.Step(params, grads)
		}
		return nil
	})
	out.add("nn.adam_step_ms", "ms", ms(d)/float64(10*iters), fmt.Sprintf("the same critic's %d parameter tensors", len(params)))
}

// centralizedProbe trains the single-worker baseline with the same options:
// the federated round_ms_p50 over this is the federation overhead.
func centralizedProbe(out *outcome, w workload, in input, opts core.Options) error {
	opts.Rounds = w.warmup + w.fixedRounds
	c, err := core.NewCentralized(in.table, opts)
	if err != nil {
		return err
	}
	defer c.Close()
	var roundMS []float64
	runtime.GC()
	last := time.Now()
	err = c.Train(func(round int, _, _ float64) {
		now := time.Now()
		if round >= w.warmup {
			roundMS = append(roundMS, ms(now.Sub(last)))
		}
		last = now
	})
	if err != nil {
		return err
	}
	out.add("gan.centralized_round_ms_p50", "ms", median(roundMS), fmt.Sprintf("core.NewCentralized, same options, %d rounds", len(roundMS)))
	return nil
}
