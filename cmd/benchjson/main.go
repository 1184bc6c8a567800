// Command benchjson converts `go test -bench` output on stdin into a JSON
// array on stdout: first a stamp saying where the run was measured, then
// one object per benchmark result. It backs `make bench-layers`, which
// records the per-package micro-benchmarks in BENCH_layers.json.
package main

import (
	"bufio"
	"encoding/json"
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

func main() {
	st := stamp{Commit: commit(), GoVersion: runtime.Version(), GOMAXPROCS: 1}
	var results []result
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
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
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
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
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(records); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
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
