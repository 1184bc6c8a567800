// Command benchjson converts `go test -bench` output on stdin into a JSON
// array on stdout: first a stamp saying where the run was measured, then
// one object per benchmark result. It backs `make bench-layers`, which
// records the per-package micro-benchmarks in BENCH_layers.json.
//
// With -pprof it reads `go tool pprof -top -relative_percentages -unit=ms`
// tables instead, each after a line `profile: <workload> <phase> <order>`,
// and writes the stamp and one object per table. It backs `make profile`,
// which records BENCH_profile.json.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// stamp is the first record of a run: the commit and toolchain from the
// environment benchjson runs in (the same checkout and `go` as the `go
// test` it is piped from), the goos/goarch/cpu header `go test` prints per
// package, and the GOMAXPROCS the benchmarks ran at, which `go test`
// appends to every name as -N unless N is 1.
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

func main() {
	pprofTables := flag.Bool("pprof", false, "read pprof -top tables, each after a `profile: <workload> <phase> <order>` line, instead of go test -bench output")
	flag.Parse()
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	var records []any
	if *pprofTables {
		records = readProfiles(sc)
	} else {
		records = readBenchmarks(sc)
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(records); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// readProfiles parses the -pprof input. The profiles were taken on this
// machine and toolchain, at the GOMAXPROCS benchjson runs at, which the
// stamp reports.
func readProfiles(sc *bufio.Scanner) []any {
	st := stamp{Commit: commit(), GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		CPU: cpuModel(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	records := []any{st}
	var cur *profileTop
	inTable := false
	for sc.Scan() {
		line := sc.Text()
		fields := strings.Fields(line)
		if v, ok := strings.CutPrefix(line, "profile: "); ok {
			f := strings.Fields(v)
			if len(f) != 3 {
				fmt.Fprintf(os.Stderr, "benchjson: malformed %q\n", line)
				os.Exit(1)
			}
			cur = &profileTop{Workload: f[0], Phase: f[1], Order: f[2], Top: []profileRow{}}
			records = append(records, cur)
			inTable = false
		} else if cur == nil {
			continue
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
				fmt.Fprintf(os.Stderr, "benchjson: malformed pprof row %q\n", line)
				os.Exit(1)
			}
			cur.Top = append(cur.Top, profileRow{Func: strings.Join(fields[5:], " "), FlatMs: flat, FlatPct: flatPct, CumMs: cum, CumPct: cumPct})
		}
	}
	return records
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
func readBenchmarks(sc *bufio.Scanner) []any {
	st := stamp{Commit: commit(), GoVersion: runtime.Version(), GOMAXPROCS: 1}
	var results []result
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(os.Stderr, line) // pass through for the operator
		if v, ok := strings.CutPrefix(line, "goos: "); ok {
			st.GOOS = v
		} else if v, ok := strings.CutPrefix(line, "goarch: "); ok {
			st.GOARCH = v
		} else if v, ok := strings.CutPrefix(line, "cpu: "); ok {
			st.CPU = v
		} else if r, ok := parse(line); ok {
			results = append(results, r)
		}
	}
	// An input without results has no run to stamp and stays the JSON null
	// it always was.
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
