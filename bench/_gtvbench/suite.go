package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// metricDef declares a metric of BENCHMARK.json. The self-test checks that
// the two lists agree.
type metricDef struct {
	name, unit, better string
	bound              float64
}

// endToEnd are the gated metrics, reported by the untraced run of every
// workload. bound is the share of the parent's median by which a metric may
// get worse before a change counts as a regression.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"round_ms_p50", "ms", "lower", 0.25},
	{"train_samples_per_s", "rows/s", "higher", 0.25},
	{"synth_rows_per_s", "rows/s", "higher", 0.25},
	{"live_heap_mb", "MiB", "lower", 0.05},
	{"comm_bytes_per_round", "B", "lower", 0.02},
	{"wire_bytes_per_round", "B", "lower", 0.02},
}

// exactForSeed are the metrics that must not differ at all between runs of
// the same tree on the same seed.
var exactForSeed = []string{"comm_bytes_per_round", "wire_bytes_per_round"}

var bounds = func() map[string]float64 {
	m := make(map[string]float64)
	for _, d := range endToEnd {
		m[d.name] = d.bound
	}
	return m
}()

// childResult is what the parent keeps of one child run.
type childResult struct {
	metrics map[string]float64
	digest  string
	failed  int
}

// runChild runs one workload in a process of its own, so that its memory
// figures are its own and nothing is shared but the store directory. The
// child's report is copied to stdout as it comes.
func runChild(cfg config, workload string, seed int64, trace int, stdout, stderr io.Writer) (childResult, error) {
	var res childResult
	self, err := os.Executable()
	if err != nil {
		return res, err
	}
	args := []string{
		"-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(trace), "-work", cfg.work,
	}
	if cfg.out != "" {
		args = append(args, "-out", cfg.out)
	}
	cmd := exec.Command(self, args...)
	var buf bytes.Buffer
	cmd.Stdout = io.MultiWriter(stdout, &buf)
	cmd.Stderr = stderr
	if err := cmd.Run(); err != nil {
		return res, fmt.Errorf("%s (trace %d): %w", workload, trace, err)
	}
	var last string
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if d, ok := strings.CutPrefix(line, "trajectory_digest "); ok {
			res.digest = d
		}
		if line != "" {
			last = line
		}
	}
	var parsed struct {
		Failed  int `json:"failed"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(last), &parsed); err != nil {
		return res, fmt.Errorf("%s: last line is not the result: %w", workload, err)
	}
	res.failed = parsed.Failed
	res.metrics = make(map[string]float64)
	for k, v := range parsed.Metrics {
		res.metrics[k] = v.Value
	}
	return res, nil
}

// runSuite runs the four workloads in their fixed order, each in a child,
// and with -trace 1 each workload's traced run after its untraced one.
func runSuite(cfg config, stdout, stderr io.Writer) error {
	stamp(stdout, cfg)
	_, err := suiteOnce(cfg, cfg.seed, stdout, stderr)
	return err
}

func suiteOnce(cfg config, seed int64, stdout, stderr io.Writer) (map[string]childResult, error) {
	out := make(map[string]childResult)
	for _, w := range workloads() {
		res, err := runChild(cfg, w.name, seed, 0, stdout, stderr)
		if err != nil {
			return out, err
		}
		if res.failed != 0 {
			return out, fmt.Errorf("%s: %d operations failed", w.name, res.failed)
		}
		out[w.name] = res
		if cfg.trace != 1 {
			continue
		}
		traced, err := runChild(cfg, w.name, seed, 1, stdout, stderr)
		if err != nil {
			return out, err
		}
		if traced.digest != res.digest {
			return out, fmt.Errorf("%s: trajectory digest %s traced, %s untraced", w.name, traced.digest, res.digest)
		}
	}
	return out, nil
}

// quartileSpread is the distance between the first and the third quartile
// as a share of the median, quartiles as Python's statistics.quantiles
// (n=4, exclusive) gives them.
func quartileSpread(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return (q(3) - q(1)) / median(s)
}

// runAA runs the whole set cfg.aa times on the same tree and prints, per
// workload and end-to-end metric, the median, the largest relative
// deviation from it and the quartile spread, and fails if a spread is over
// the metric's bound. With -vary-seed each run takes the next seed, which is
// what an acceptance run of the benchmark does; without it the seed stays
// and the exact counts and the trajectory digest must not move at all.
func runAA(cfg config, stdout, stderr io.Writer) error {
	if cfg.aa < 2 {
		return errors.New("-aa needs at least 2 runs")
	}
	stamp(stdout, cfg)
	runs := make([]map[string]childResult, 0, cfg.aa)
	for i := 0; i < cfg.aa; i++ {
		seed := cfg.seed
		if cfg.varySeed {
			seed += int64(i)
		}
		fmt.Fprintf(stdout, "# A/A run %d of %d, seed %d\n", i+1, cfg.aa, seed)
		res, err := suiteOnce(cfg, seed, stdout, stderr)
		if err != nil {
			return err
		}
		runs = append(runs, res)
	}
	fmt.Fprintf(stdout, "\n# A/A over %d runs (vary-seed=%v): median, largest relative deviation from it, quartile spread\n", cfg.aa, cfg.varySeed)
	fmt.Fprintln(stdout, "| workload | metric | median | max dev | q-spread | bound |")
	fmt.Fprintln(stdout, "|---|---|---|---|---|---|")
	var problems []string
	for _, w := range workloads() {
		for _, d := range endToEnd {
			vals := make([]float64, len(runs))
			for i, r := range runs {
				vals[i] = r[w.name].metrics[d.name]
			}
			med := median(vals)
			var dev float64
			for _, v := range vals {
				dev = math.Max(dev, math.Abs(v-med)/med)
			}
			spread := math.NaN()
			if len(vals) >= 4 {
				spread = quartileSpread(vals)
			}
			fmt.Fprintf(stdout, "| %s | %s | %.6g %s | %.4f | %.4f | %.2f |\n", w.name, d.name, med, d.unit, dev, spread, d.bound)
			if !cfg.varySeed && dev != 0 && slices.Contains(exactForSeed, d.name) {
				problems = append(problems, fmt.Sprintf("%s/%s differs between runs of one seed", w.name, d.name))
			}
			// Across seeds setup_s moves with the data (how many iterations
			// the GMM fits take), so there, as in an acceptance run, its
			// spread is not held to the bound; on one seed it is.
			if spread > d.bound && !(cfg.varySeed && d.name == "setup_s") {
				problems = append(problems, fmt.Sprintf("%s/%s: quartile spread %.3f over its bound %.2f", w.name, d.name, spread, d.bound))
			}
		}
		if !cfg.varySeed {
			for _, r := range runs[1:] {
				if r[w.name].digest != runs[0][w.name].digest {
					problems = append(problems, fmt.Sprintf("%s: trajectory digest differs between runs of one seed", w.name))
					break
				}
			}
		}
	}
	if len(problems) > 0 {
		return errors.New(strings.Join(problems, "; "))
	}
	return nil
}
