// Command benchjson converts a measurement transcript on stdin into a JSON
// array on stdout: first a stamp saying where the run was measured, then
// one object per result. The input's first header line picks the reader:
//
//   - `goos: …` starts `go test -bench` output, one object per benchmark
//     result. It backs `make bench-layers`, which records the per-package
//     micro-benchmarks in BENCH_layers.json.
//   - `profile: <workload> <phase> <order>` starts a `go tool pprof -top
//     -relative_percentages -unit=ms` table, one object per table. It backs
//     `make profile`, which records BENCH_profile.json.
//   - `cover: tests` starts the coverage census: `go tool covdata func`
//     output per half (`cover: tests`, `cover: workloads`), then the
//     module's import paths (`cover: packages`). One object per function
//     gives the share of its statements each half ran, and one per package
//     neither half counted names it whole. It backs `make cover`, which
//     records COVER.json.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path"
	"runtime"
	"strconv"
	"strings"
)

// stamp is the first record of a run: the commit, toolchain and machine of
// the environment benchjson runs in (the checkout, `go` and host of the
// run it is piped from), and the GOMAXPROCS the run used: benchjson's own
// for the profiles and the census, and for benchmarks the -N `go test`
// appends to every name unless N is 1.
type stamp struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPU        string `json:"cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// result is one parsed benchmark line, e.g.
//
//	BenchmarkMatMul/n=256-4   100   7710000 ns/op   12 B/op   5 allocs/op
type result struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  *int64  `json:"bytes_per_op,omitempty"`
	AllocsPerOp *int64  `json:"allocs_per_op,omitempty"`
	// Extra holds custom b.ReportMetric units (e.g. "wire_bytes/op") and
	// any other per-op/per-second figures the standard fields don't cover.
	Extra map[string]float64 `json:"extra,omitempty"`
}

// profileTop is one pprof table: the top functions of one phase of one
// workload's profile, by flat or by cumulative time, with shares of the
// phase's samples.
type profileTop struct {
	Workload  string       `json:"workload"`
	Phase     string       `json:"phase"`
	Order     string       `json:"order"`
	SamplesMs float64      `json:"samples_ms"`
	Top       []profileRow `json:"top"`
}

// profileRow is one line of a pprof table, e.g.
//
//	910ms 14.20% 14.20%  2290ms 35.73%  repro/internal/vfl.shuffleView
type profileRow struct {
	Func    string  `json:"func"`
	FlatMs  float64 `json:"flat_ms"`
	FlatPct float64 `json:"flat_pct"`
	CumMs   float64 `json:"cum_ms"`
	CumPct  float64 `json:"cum_pct"`
}

// coverFunc is one function of the coverage census: where it is declared
// and the share of its statements the tests and the workloads ran.
type coverFunc struct {
	Pos          string  `json:"pos"`
	Func         string  `json:"func"`
	TestsPct     float64 `json:"tests_pct"`
	WorkloadsPct float64 `json:"workloads_pct"`
}

// coverPackage is a package neither half of the census counted: no
// instrumented binary linked it, so none of its functions has a record.
type coverPackage struct {
	Package string `json:"package"`
}

func main() {
	if err := run(os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run(in io.Reader, out io.Writer) error {
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	records, err := read(sc)
	if err == nil {
		err = sc.Err()
	}
	if err != nil {
		return err
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(records)
}

// read hands the input, from its first header line on, to the reader that
// line names. An input without one has no run to stamp and is the JSON
// null.
func read(sc *bufio.Scanner) ([]any, error) {
	for line, ok := scan(sc); ok; line, ok = scan(sc) {
		switch {
		case strings.HasPrefix(line, "goos: "):
			return readBenchmarks(line, sc), nil
		case strings.HasPrefix(line, "profile: "):
			return readProfiles(line, sc)
		case strings.HasPrefix(line, "cover: "):
			return readCover(line, sc)
		}
	}
	return nil, nil
}

// scan returns sc's next line.
func scan(sc *bufio.Scanner) (string, bool) {
	ok := sc.Scan()
	return sc.Text(), ok
}

// hostStamp describes the checkout, toolchain and machine benchjson runs on.
func hostStamp() stamp {
	return stamp{Commit: commit(), GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		CPU: cpuModel(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
}

// readProfiles parses pprof tables, each after its `profile:` line.
func readProfiles(first string, sc *bufio.Scanner) ([]any, error) {
	records := []any{hostStamp()}
	var cur *profileTop
	inTable := false
	for line, ok := first, true; ok; line, ok = scan(sc) {
		fields := strings.Fields(line)
		if v, ok := strings.CutPrefix(line, "profile: "); ok {
			f := strings.Fields(v)
			if len(f) != 3 {
				return nil, fmt.Errorf("malformed %q", line)
			}
			cur = &profileTop{Workload: f[0], Phase: f[1], Order: f[2], Top: []profileRow{}}
			records = append(records, cur)
			inTable = false
		} else if _, v, ok := strings.Cut(line, "Total samples = "); ok {
			cur.SamplesMs, _ = millis(strings.Fields(v)[0])
		} else if len(fields) >= 5 && fields[0] == "flat" && fields[1] == "flat%" {
			inTable = true
		} else if inTable && len(fields) >= 6 {
			flat, ok1 := millis(fields[0])
			cum, ok2 := millis(fields[3])
			flatPct, err1 := strconv.ParseFloat(strings.TrimSuffix(fields[1], "%"), 64)
			cumPct, err2 := strconv.ParseFloat(strings.TrimSuffix(fields[4], "%"), 64)
			if !ok1 || !ok2 || err1 != nil || err2 != nil {
				return nil, fmt.Errorf("malformed pprof row %q", line)
			}
			cur.Top = append(cur.Top, profileRow{Func: strings.Join(fields[5:], " "), FlatMs: flat, FlatPct: flatPct, CumMs: cum, CumPct: cumPct})
		}
	}
	return records, nil
}

// readCover parses the census: `covdata func` output after `cover: tests`
// and after `cover: workloads`, then the module's import paths after
// `cover: packages`. A function a half's binaries did not link reads 0 %
// there.
func readCover(first string, sc *bufio.Scanner) ([]any, error) {
	records := []any{hostStamp()}
	funcs := map[string]*coverFunc{}
	counted := map[string]bool{}
	half := ""
	for line, ok := first, true; ok; line, ok = scan(sc) {
		f := strings.Fields(line)
		switch {
		case strings.HasPrefix(line, "cover: "):
			half = strings.TrimPrefix(line, "cover: ")
			if half != "tests" && half != "workloads" && half != "packages" {
				return nil, fmt.Errorf("unknown census half %q", line)
			}
		case len(f) == 0 || f[0] == "total":
		case half == "packages":
			if !counted[f[0]] {
				records = append(records, coverPackage{Package: f[0]})
			}
		default:
			pct, err := strconv.ParseFloat(strings.TrimSuffix(f[len(f)-1], "%"), 64)
			if len(f) != 3 || err != nil {
				return nil, fmt.Errorf("malformed covdata row %q", line)
			}
			pos := strings.TrimSuffix(f[0], ":")
			file, _, _ := strings.Cut(pos, ":")
			counted[path.Dir(file)] = true
			cf := funcs[pos]
			if cf == nil {
				cf = &coverFunc{Pos: pos, Func: f[1]}
				funcs[pos] = cf
				records = append(records, cf)
			}
			if half == "tests" {
				cf.TestsPct = pct
			} else {
				cf.WorkloadsPct = pct
			}
		}
	}
	return records, nil
}

// millis parses a pprof -unit=ms duration: "910ms", or "0" for none.
func millis(s string) (float64, bool) {
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "ms"), 64)
	return v, err == nil
}

// cpuModel is the processor's model name where /proc/cpuinfo has one.
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

// readBenchmarks parses go test -bench output.
func readBenchmarks(first string, sc *bufio.Scanner) []any {
	st := hostStamp()
	st.GOMAXPROCS = 1
	var results []result
	for line, ok := first, true; ok; line, ok = scan(sc) {
		fmt.Fprintln(os.Stderr, line) // pass through for the operator
		if r, ok := parse(line); ok {
			results = append(results, r)
		}
	}
	// An input without results has no run to stamp and is the JSON null.
	var records []any
	if len(results) > 0 {
		name := results[0].Name
		if n, err := strconv.Atoi(name[strings.LastIndexByte(name, '-')+1:]); err == nil {
			st.GOMAXPROCS = n
		}
		records = append(records, st)
		for _, r := range results {
			records = append(records, r)
		}
	}
	return records
}

// commit names the checkout's HEAD, marked -dirty when the work tree
// differs from it.
func commit() string {
	out, err := exec.Command("git", "describe", "--always", "--dirty", "--abbrev=12").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func parse(line string) (result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return result{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return result{}, false
	}
	r := result{Name: fields[0], Iterations: iters}
	// The remaining fields come in "<value> <unit>" pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return result{}, false
		}
		switch fields[i+1] {
		case "ns/op":
			r.NsPerOp = v
		case "B/op":
			b := int64(v)
			r.BytesPerOp = &b
		case "allocs/op":
			a := int64(v)
			r.AllocsPerOp = &a
		default:
			if strings.Contains(fields[i+1], "/") {
				if r.Extra == nil {
					r.Extra = make(map[string]float64)
				}
				r.Extra[fields[i+1]] = v
			}
		}
	}
	if r.NsPerOp <= 0 {
		return result{}, false
	}
	return r, true
}
