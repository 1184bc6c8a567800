// Command gtvbench is the repository's benchmark: four federation workloads
// driven through the product API, seven end-to-end metrics, and a traced
// run that splits a round into server, client-method and wire time. See
// bench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

type config struct {
	workload   string
	seed       int64
	seconds    float64
	trace      int
	aa         int
	out        string
	work       string
	buildStore bool
	varySeed   bool
}

func realMain(args []string, stdout, stderr io.Writer) int {
	var cfg config
	fs := flag.NewFlagSet("gtvbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&cfg.workload, "workload", "", "run one workload in this process (default: all four, each in a child)")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed of the generated data and of training")
	fs.Float64Var(&cfg.seconds, "seconds", defaultSeconds, "how long the timed rounds of a run go on")
	fs.IntVar(&cfg.trace, "trace", 0, "1 = the traced run (per-layer metrics), 0 = the untraced run (end-to-end metrics)")
	fs.IntVar(&cfg.aa, "aa", 0, "run the whole set this many times on the same tree and print the spread")
	fs.StringVar(&cfg.out, "out", "", "directory the traced run writes its span file to (default: the work directory)")
	fs.StringVar(&cfg.work, "work", filepath.Join(".bench_build", "work"), "directory for stores, checkpoints and scratch files")
	fs.BoolVar(&cfg.varySeed, "vary-seed", false, "with -aa: give each run the next seed, as an acceptance run of the benchmark does")
	fs.BoolVar(&cfg.buildStore, "build-store", false, "internal: write the workload's gtvcol store and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "gtvbench: unexpected arguments %v\n", fs.Args())
		return 2
	}
	if cfg.trace != 0 && cfg.trace != 1 {
		fmt.Fprintf(stderr, "gtvbench: -trace %d, want 0 or 1\n", cfg.trace)
		return 2
	}
	runtime.GOMAXPROCS(maxProcs)

	var err error
	switch {
	case cfg.buildStore:
		err = buildStore(cfg)
	case cfg.workload != "":
		err = runOne(cfg, stdout)
	case cfg.aa > 0:
		err = runAA(cfg, stdout, stderr)
	default:
		err = runSuite(cfg, stdout, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "gtvbench:", err)
		return 1
	}
	return 0
}

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 10

// maxProcs is the GOMAXPROCS of every run: set, not inherited, and printed
// in the header. One, because the calibration in clock.go is one thread: with
// more, the operations it brackets run under a contention it does not see
// (quartile spreads over ten seeds about twice as wide, bench/README.md).
const maxProcs = 1

// stamp prints the environment a run's numbers belong to.
func stamp(w io.Writer, cfg config) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					commit += "+dirty"
				}
			}
		}
	}
	fmt.Fprintf(w, "# gtvbench commit=%s go=%s cpu=%q nproc=%d GOMAXPROCS=%d seed=%d seconds=%g\n",
		commit, runtime.Version(), cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), cfg.seed, cfg.seconds)
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// dirsFor makes the directories of one run under the work directory; the
// caller removes the scratch directory.
func dirsFor(cfg config) (runDirs, error) {
	d := runDirs{
		store:   storeDir(cfg.work),
		scratch: filepath.Join(cfg.work, fmt.Sprintf("run-%d", os.Getpid())),
	}
	if err := os.MkdirAll(d.scratch, 0o755); err != nil {
		return d, err
	}
	return d, nil
}

// runOne runs one workload in this process, prints its metrics by name and
// unit, and ends with the one-line JSON result.
func runOne(cfg config, stdout io.Writer) error {
	w, err := findWorkload(cfg.workload)
	if err != nil {
		return err
	}
	dirs, err := dirsFor(cfg)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dirs.scratch)
	stamp(stdout, cfg)
	var out *outcome
	if cfg.trace == 1 {
		spanDir := cfg.out
		if spanDir == "" {
			spanDir = cfg.work
		}
		out, err = runTraced(w, cfg.seed, dirs, spanDir)
	} else {
		out, err = runUntraced(w, cfg.seed, cfg.seconds, dirs)
	}
	printOutcome(stdout, out, cfg.trace == 1)
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	return printResult(stdout, out)
}

// printOutcome prints the human-readable part: notes, then one line per
// metric with its unit (and, for gated ones, the bound).
func printOutcome(w io.Writer, out *outcome, traced bool) {
	kind := "untraced"
	if traced {
		kind = "traced"
	}
	fmt.Fprintf(w, "## %s (%s run)\n", out.workload, kind)
	for _, line := range out.info {
		fmt.Fprintf(w, "info %s\n", line)
	}
	for _, m := range out.metrics {
		val := fmt.Sprintf("%.6g", m.value)
		if m.na {
			val = "-"
		}
		line := fmt.Sprintf("metric %-42s %14s %-7s", m.name, val, m.unit)
		if b, ok := bounds[m.name]; ok {
			line += fmt.Sprintf(" bound %.2f", b)
		}
		if m.note != "" {
			line += "  (" + m.note + ")"
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
	if out.digest != "" {
		fmt.Fprintf(w, "trajectory_digest %s\n", out.digest)
	}
	fmt.Fprintf(w, "ops_total %d\nops_failed %d\n", out.ops.total, out.ops.failed)
}

// printResult prints the machine line the driver reads.
func printResult(w io.Writer, out *outcome) error {
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{Correct: out.ops.failed == 0, Attempted: out.ops.total, Failed: out.ops.failed, Metrics: make(map[string]jm)}
	for _, m := range out.metrics {
		res.Metrics[m.name] = jm{Value: m.value, Unit: m.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}
