package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/vfl"
)

// federation is what the runner drives: core.GTV in the untraced run, the
// hand-built tracedFederation in the traced one.
type federation interface {
	TrainRound() (dLoss, gLoss float64, err error)
	Synthesize(n int) (*encoding.Table, error)
	Checkpoint(dir string) (string, error)
	CommStats() vfl.CommStats
}

// ops counts operations: every construction, round, Synthesize and
// Checkpoint is one.
type ops struct{ total, failed int }

func (o *ops) done(err error) error {
	o.total++
	if err != nil {
		o.failed++
	}
	return err
}

// driven is what driving a built federation measured.
type driven struct {
	rounds     []sample // one per timed round
	commPerRnd float64
	wirePerRnd float64
	// fixedComm is the CommStats after the first fixedRounds timed rounds,
	// with WireBytesByMethod reduced to those rounds alone.
	fixedComm vfl.CommStats
	digest    string
	snaps     []sample
	snapBytes int64
	synth     []sample
	dLoss     float64
	gLoss     float64
	// Per round, over the first fixedRounds timed rounds.
	allocMB, gcCycles, gcPauseMS float64
	// liveHeapMB is the heap in use after the last timed round, collected
	// twice so that the tensor pool's victim cache is gone too.
	liveHeapMB float64
}

// median returns the middle value (mean of the two middle ones).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile, p in (0,100].
func percentile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p/100*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// synthReps is the number of Synthesize calls synth_rows_per_s is the median
// of: many short calls, because a step of the machine's speed inside a call
// is not what the calibration around it sees.
const synthReps = 9

// drivePlan says how far to drive a built federation.
type drivePlan struct {
	// Timed rounds go on until both minRounds and budget are met.
	minRounds int
	budget    time.Duration
	// checkpoints is the number of Checkpoint calls after the first
	// fixedRounds timed rounds (each gives the trajectory digest).
	checkpoints int
	synthCalls  int
}

// drive runs warm-up rounds, timed rounds, the checkpoint(s) that give the
// trajectory digest, and the Synthesize calls. The byte counts and the
// digest come from the first w.fixedRounds timed rounds. rec, when non-nil,
// gets one span per round, checkpoint and Synthesize call.
func drive(w workload, in input, fed federation, rec *recorder, plan drivePlan, scratch string, o *ops) (driven, error) {
	var d driven
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return d, err
	}
	// spanned times one operation and, in the traced run, records it.
	spanned := func(name string, round int, fn func() error) (sample, error) {
		s, err := measure(func() error {
			if rec != nil {
				defer rec.enter(name, round)()
			}
			return fn()
		})
		return s, o.done(err)
	}
	round := 0
	trainRound := func() (sample, error) {
		s, err := spanned("round", round, func() error {
			dl, gl, err := fed.TrainRound()
			if err == nil && (math.IsNaN(dl) || math.IsInf(dl, 0) || math.IsNaN(gl) || math.IsInf(gl, 0)) {
				err = fmt.Errorf("loss not finite (critic %v, generator %v)", dl, gl)
			}
			d.dLoss, d.gLoss = dl, gl
			return err
		})
		if err != nil {
			err = fmt.Errorf("round %d: %w", round, err)
		}
		round++
		return s, err
	}
	for i := 0; i < w.warmup; i++ {
		if _, err := trainRound(); err != nil {
			return d, err
		}
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	base := fed.CommStats()
	regionStart := time.Now()
	for n := 0; n < plan.minRounds || time.Since(regionStart) < plan.budget; n++ {
		s, err := trainRound()
		if err != nil {
			return d, err
		}
		d.rounds = append(d.rounds, s)
		if n+1 != w.fixedRounds {
			continue
		}
		runtime.ReadMemStats(&after)
		d.fixedComm = fed.CommStats()
		d.commPerRnd = float64(d.fixedComm.Total()-base.Total()) / float64(w.fixedRounds)
		d.wirePerRnd = float64(d.fixedComm.WireBytes-base.WireBytes) / float64(w.fixedRounds)
		if d.fixedComm.WireBytes == 0 {
			// The local transport frames nothing: the model is the traffic.
			d.wirePerRnd = d.commPerRnd
		}
		for m, v := range d.fixedComm.WireBytesByMethod {
			d.fixedComm.WireBytesByMethod[m] = v - base.WireBytesByMethod[m]
		}
		for k := 0; k < plan.checkpoints; k++ {
			var path string
			s, err := spanned("checkpoint", -1, func() (err error) {
				path, err = fed.Checkpoint(scratch)
				return err
			})
			if err != nil {
				return d, fmt.Errorf("checkpoint: %w", err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				return d, err
			}
			h := sha256.Sum256(data)
			digest := hex.EncodeToString(h[:])
			if d.digest != "" && digest != d.digest {
				return d, fmt.Errorf("checkpoint %d of the same state differs: %s vs %s", k, digest, d.digest)
			}
			d.digest = digest
			d.snaps = append(d.snaps, s)
			d.snapBytes = int64(len(data))
		}
	}
	if len(d.rounds) < w.fixedRounds {
		return d, fmt.Errorf("%d timed rounds, fewer than the %d the byte counts need", len(d.rounds), w.fixedRounds)
	}
	fixed := float64(w.fixedRounds)
	d.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20) / fixed
	// The harness forces one collection before every round; they are not the program's.
	d.gcCycles = float64((after.NumGC-after.NumForcedGC)-(before.NumGC-before.NumForcedGC)) / fixed
	d.gcPauseMS = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6 / fixed

	var live runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&live)
	d.liveHeapMB = float64(live.HeapAlloc) / (1 << 20)

	if plan.synthCalls == 0 {
		return d, nil
	}
	var synth *encoding.Table
	for i := 0; i < plan.synthCalls; i++ {
		s, err := spanned("synthesize", -1, func() (err error) {
			synth, err = fed.Synthesize(w.synthN)
			return err
		})
		if err != nil {
			return d, fmt.Errorf("synthesize: %w", err)
		}
		d.synth = append(d.synth, s)
	}
	if err := checkSynthetic(synth, in.table, w.synthN); err != nil {
		o.failed++
		return d, err
	}
	return d, nil
}

// checkSynthetic verifies the published table: row count, the training
// schema in the training column order, finite cells and category codes
// inside their column's range.
func checkSynthetic(synth, train *encoding.Table, want int) error {
	if synth.Rows() != want {
		return fmt.Errorf("synthetic table has %d rows, want %d", synth.Rows(), want)
	}
	if len(synth.Specs) != len(train.Specs) {
		return fmt.Errorf("synthetic table has %d columns, want %d", len(synth.Specs), len(train.Specs))
	}
	for j, s := range synth.Specs {
		t := train.Specs[j]
		if s.Name != t.Name || s.Kind != t.Kind || len(s.Categories) != len(t.Categories) {
			return fmt.Errorf("synthetic column %d is %s/%v, want %s/%v", j, s.Name, s.Kind, t.Name, t.Kind)
		}
	}
	// NewTable rejects non-finite cells and out-of-range category codes.
	if _, err := encoding.NewTable(synth.Specs, synth.Data); err != nil {
		return fmt.Errorf("synthetic table: %w", err)
	}
	return nil
}

// metric is one named number with its unit.
type metric struct {
	name  string
	unit  string
	value float64
	// na marks a per-layer metric the workload does not exercise: the
	// table prints "-" and the machine line, which must carry every
	// declared name, carries 0.
	na   bool
	note string
}

// outcome is everything one run of one workload reports.
type outcome struct {
	workload string
	metrics  []metric
	ops      ops
	digest   string
	info     []string
}

func (o *outcome) add(name, unit string, value float64, note string) {
	o.metrics = append(o.metrics, metric{name: name, unit: unit, value: value, note: note})
}

func (o *outcome) absent(name, unit string) {
	o.metrics = append(o.metrics, metric{name: name, unit: unit, na: true})
}

func (o *outcome) infof(format string, args ...any) {
	o.info = append(o.info, fmt.Sprintf(format, args...))
}

// peakRSSMiB reads this process's high-water resident set from /proc.
func peakRSSMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM line in /proc/self/status")
}

// withStorage fills in the data-plane options of a workload.
func (w workload) withStorage(seed int64, dataDir string) core.Options {
	opts := w.options(seed)
	if w.store != "" {
		opts.DataDir = dataDir
		opts.BlockCacheMB = w.cacheMB
	}
	return opts
}

// emptyDir makes dir exist and hold nothing.
func emptyDir(dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	return os.MkdirAll(dir, 0o755)
}

// runUntraced measures the end-to-end metrics of one workload through the
// product API: NewFromAssignment, TrainRound, Synthesize, Checkpoint, Close.
func runUntraced(w workload, seed int64, seconds float64, dirs runDirs) (*outcome, error) {
	out := &outcome{workload: w.name}
	in, err := w.generate(seed)
	if err != nil {
		return out, err
	}
	out.infof("datagen_s %.3f (untimed: %s, %d rows)", in.genSeconds, w.dataset, w.rows)
	opts := w.withStorage(seed, dirs.store)

	var stamps []fileStamp
	if w.store == "warm" {
		if err := ensureStore(w, seed, dirs.store); err != nil {
			return out, err
		}
		if stamps, err = stampFiles(w.storeFiles(dirs.store)); err != nil {
			return out, err
		}
	}

	var g *core.GTV
	setups := make([]sample, 0, w.setupReps)
	for rep := 0; rep < w.setupReps; rep++ {
		if w.store == "cold" {
			if err := emptyDir(dirs.store); err != nil {
				return out, err
			}
		}
		var fed *core.GTV
		s, err := measure(func() (err error) {
			fed, err = core.NewFromAssignment(in.table, in.assignment, w.clients, opts)
			return err
		})
		if out.ops.done(err) != nil {
			return out, fmt.Errorf("construction %d: %w", rep, err)
		}
		setups = append(setups, s)
		if rep < w.setupReps-1 {
			if err := fed.Close(); err != nil {
				return out, fmt.Errorf("closing construction %d: %w", rep, err)
			}
			continue
		}
		g = fed
	}
	if w.store == "cold" {
		if err := writeMarker(w, seed, dirs.store); err != nil {
			return out, err
		}
	}

	plan := drivePlan{minRounds: w.minRounds, budget: time.Duration(seconds * float64(time.Second)), checkpoints: 1, synthCalls: synthReps}
	d, err := drive(w, in, g, nil, plan, dirs.scratch, &out.ops)
	if cerr := g.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("closing the federation: %w", cerr)
	}
	if err != nil {
		return out, err
	}
	if stamps != nil {
		now, err := stampFiles(w.storeFiles(dirs.store))
		if err != nil {
			return out, err
		}
		for i := range stamps {
			if now[i] != stamps[i] {
				out.ops.failed++
				return out, fmt.Errorf("store file %d changed during %s (a re-encode): %+v -> %+v", i, w.name, stamps[i], now[i])
			}
		}
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return out, err
	}

	n := len(d.rounds)
	samplesPerRound := float64(opts.BatchSize * (opts.DiscSteps + 1))
	roundMS, synthMS, setupMS := refMS(d.rounds), refMS(d.synth), refMS(setups)
	out.add("setup_s", "s", median(setupMS)/1000, fmt.Sprintf("median of %d constructions, %.2f s together", len(setups), sum(setupMS)/1000))
	out.add("round_ms_p50", "ms", median(roundMS), fmt.Sprintf("%d rounds, %.1f s", n, sum(roundMS)/1000))
	out.add("train_samples_per_s", "rows/s", float64(n)*samplesPerRound/(sum(roundMS)/1000), "mean over the timed rounds")
	out.add("synth_rows_per_s", "rows/s", float64(w.synthN)/(median(synthMS)/1000),
		fmt.Sprintf("median of %d x %d rows, %.2f s together", len(d.synth), w.synthN, sum(synthMS)/1000))
	out.add("live_heap_mb", "MiB", d.liveHeapMB, "HeapAlloc after the last timed round and two collections, federation open")
	out.add("comm_bytes_per_round", "B", d.commPerRnd, fmt.Sprintf("first %d timed rounds", w.fixedRounds))
	out.add("wire_bytes_per_round", "B", d.wirePerRnd, fmt.Sprintf("first %d timed rounds", w.fixedRounds))
	out.digest = d.digest
	out.infof("peak_rss_mb %.1f (VmHWM at exit; not gated: it follows the moments the runtime returns memory, not the program)", rss)
	out.infof("raw wall time: setup_s %.4f round_ms_p50 %.3f synth_rows_per_s %.1f",
		median(wallMS(setups))/1000, median(wallMS(d.rounds)), float64(w.synthN)/(median(wallMS(d.synth))/1000))
	var cpu, wall time.Duration
	var speeds []float64
	for _, s := range slices.Concat(setups, d.rounds, d.synth) {
		cpu, wall = cpu+s.cpu, wall+s.wall
		speeds = append(speeds, s.speed)
	}
	out.infof("speed_index p50 %.3f min %.3f max %.3f (calibration / reference; the four timing metrics are wall time / index)", median(speeds), slices.Min(speeds), slices.Max(speeds))
	out.infof("cpu_share %.4f (CPU time / wall time over the timed operations; well below 1 = the virtual CPU was taken away or the operations waited)",
		float64(cpu)/float64(wall))
	if n >= 20 {
		// The highest percentile with at least ten samples beyond it.
		p := 100 * (1 - 10/float64(n))
		out.infof("round_ms_p%.0f %.3f ms (%d rounds, 10 beyond)", p, percentile(roundMS, p), n)
	}
	out.infof("final_critic_loss %.6g", d.dLoss)
	out.infof("final_generator_loss %.6g", d.gLoss)
	return out, nil
}

// runDirs are the directories a run may write to, all inside the checkout.
type runDirs struct {
	// store is the DataDir of the rows-* workloads.
	store string
	// scratch takes checkpoints, probe files and span files.
	scratch string
}

func (d runDirs) sub(name string) string { return filepath.Join(d.scratch, name) }
