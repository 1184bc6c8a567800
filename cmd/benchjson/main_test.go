package main

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// TestReaders feeds each reader a short transcript of the tool it parses
// and checks the records after the stamp, and that the first header line,
// not a flag, picks the reader.
func TestReaders(t *testing.T) {
	for _, tc := range []struct {
		name, in string
		// stamp holds the stamp fields the transcript itself fixes; the
		// others describe the machine the test runs on.
		stamp map[string]any
		want  string
	}{{
		name: "go test -bench",
		in: `goos: linux
goarch: amd64
pkg: repro/internal/tensor
cpu: Test CPU @ 2.00GHz
BenchmarkMatMul/n=256-4   	     100	   7710000 ns/op	      12 B/op	       5 allocs/op
BenchmarkWire-4   	      50	      2000 ns/op	       3.5 wire_bytes/op
PASS
ok  	repro/internal/tensor	1.234s
`,
		stamp: map[string]any{"gomaxprocs": 4.0},
		want: `[
			{"name": "BenchmarkMatMul/n=256-4", "iterations": 100, "ns_per_op": 7710000, "bytes_per_op": 12, "allocs_per_op": 5},
			{"name": "BenchmarkWire-4", "iterations": 50, "ns_per_op": 2000, "extra": {"wire_bytes/op": 3.5}}]`,
	}, {
		name: "pprof -top",
		in: `profile: paper-fed train flat
File: gtv-train
Type: cpu
Duration: 10s, Total samples = 6410ms (64.10%)
Showing nodes accounting for 1410ms, 22.00% of 6410ms total
      flat  flat%   sum%        cum   cum%
     910ms 14.20% 14.20%     2290ms 35.73%  repro/internal/vfl.shuffleView
     500ms  7.80% 22.00%      500ms  7.80%  runtime.memmove
profile: paper-fed serve flat
`,
		want: `[
			{"workload": "paper-fed", "phase": "train", "order": "flat", "samples_ms": 6410, "top": [
				{"func": "repro/internal/vfl.shuffleView", "flat_ms": 910, "flat_pct": 14.2, "cum_ms": 2290, "cum_pct": 35.73},
				{"func": "runtime.memmove", "flat_ms": 500, "flat_pct": 7.8, "cum_ms": 500, "cum_pct": 7.8}]},
			{"workload": "paper-fed", "phase": "serve", "order": "flat", "samples_ms": 0, "top": []}]`,
	}, {
		name: "covdata func",
		in: `go: downloading nothing
cover: tests
repro/cmd/x/main.go:10:			main			0.0%
repro/internal/a/a.go:5:		Both			100.0%
repro/internal/a/a.go:9:		OnlyTests		50.0%
total					(statements)		80.0%
cover: workloads
repro/cmd/x/main.go:10:			main			100.0%
repro/internal/a/a.go:5:		Both			25.0%
repro/internal/a/a.go:9:		OnlyTests		0.0%
repro/internal/b/b.go:3:		Never			0.0%
total					(statements)		40.0%
cover: packages
repro/cmd/x
repro/cmd/y
repro/internal/a
repro/internal/b
`,
		want: `[
			{"pos": "repro/cmd/x/main.go:10", "func": "main", "tests_pct": 0, "workloads_pct": 100},
			{"pos": "repro/internal/a/a.go:5", "func": "Both", "tests_pct": 100, "workloads_pct": 25},
			{"pos": "repro/internal/a/a.go:9", "func": "OnlyTests", "tests_pct": 50, "workloads_pct": 0},
			{"pos": "repro/internal/b/b.go:3", "func": "Never", "tests_pct": 0, "workloads_pct": 0},
			{"package": "repro/cmd/y"}]`,
	}, {
		name: "no header",
		in:   "PASS\nok  \trepro/internal/tensor\t0.1s\n",
		want: `null`,
	}} {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(strings.NewReader(tc.in), &out); err != nil {
				t.Fatal(err)
			}
			var got, want []map[string]any
			if err := json.Unmarshal(out.Bytes(), &got); err != nil {
				t.Fatalf("%v\n%s", err, out.String())
			}
			if err := json.Unmarshal([]byte(tc.want), &want); err != nil {
				t.Fatal(err)
			}
			if want == nil {
				if got != nil {
					t.Fatalf("records %v, want null", got)
				}
				return
			}
			if len(got) == 0 || got[0]["commit"] == nil {
				t.Fatalf("first record %v is not a stamp", got)
			}
			for k, v := range tc.stamp {
				if got[0][k] != v {
					t.Errorf("stamp %s = %v, want %v", k, got[0][k], v)
				}
			}
			if !reflect.DeepEqual(got[1:], want) {
				t.Errorf("records\n%v\nwant\n%v", got[1:], want)
			}
		})
	}
}

// TestReadersRefuseMalformedInput: a header a reader cannot place is an
// error, not a record.
func TestReadersRefuseMalformedInput(t *testing.T) {
	for _, in := range []string{
		"profile: paper-fed train\n",
		"cover: benchmarks\n",
		"cover: tests\nrepro/internal/a/a.go:5:\tBoth\n",
	} {
		if err := run(strings.NewReader(in), &bytes.Buffer{}); err == nil {
			t.Errorf("%q: no error", in)
		}
	}
}
