// Command gtv-lint runs the repo's domain-specific static analyzers (see
// internal/lint and DESIGN.md "Static analysis" / "Privacy boundary")
// over the module and exits non-zero on any finding. ci.sh runs it through
// `make lint-json`, which captures machine-readable findings; `make lint`
// prints them as text. Every run loads the module and runs the selected
// rules through lint.Run, the same call the package's own tests make.
//
// Usage:
//
//	gtv-lint              # analyze the whole module
//	gtv-lint ./...        # same
//	gtv-lint internal/vfl # only report findings under these path prefixes
//	gtv-lint -list        # print the rule catalog
//	gtv-lint -only floateq,errdrop
//	gtv-lint -json        # machine-readable findings on stdout
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"repro/internal/lint"
)

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gtv-lint:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

func run(args []string, stdout *os.File) (int, error) {
	fs := flag.NewFlagSet("gtv-lint", flag.ContinueOnError)
	var (
		root    = fs.String("root", ".", "directory inside the module to lint")
		list    = fs.Bool("list", false, "print the rule catalog and exit")
		only    = fs.String("only", "", "comma-separated rule subset (default: all)")
		jsonOut = fs.Bool("json", false, "emit findings as JSON")
		timing  = fs.Bool("timing", false, "print per-rule wall time on stderr")
	)
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		return 0, nil
	}

	analyzers := lint.Analyzers()
	if *only != "" {
		analyzers = analyzers[:0:0]
		for _, name := range strings.Split(*only, ",") {
			a := lint.AnalyzerByName(strings.TrimSpace(name))
			if a == nil {
				return 2, fmt.Errorf("unknown rule %q (try -list)", name)
			}
			if slices.Contains(analyzers, a) {
				return 2, fmt.Errorf("rule %q named twice in -only", a.Name)
			}
			analyzers = append(analyzers, a)
		}
	}

	names := make([]string, 0, len(analyzers))
	for _, a := range analyzers {
		names = append(names, a.Name)
	}
	var timings *lint.Timings
	if *timing {
		analyzers, timings = lint.Instrument(analyzers)
	}

	loader, err := lint.NewLoader(*root)
	if err != nil {
		return 2, err
	}
	pkgs, err := loader.LoadModule()
	if err != nil {
		return 2, err
	}
	findings, stats := lint.Run(pkgs, analyzers)
	lint.Relativize(findings, loader.ModuleRoot)
	if timings != nil {
		fmt.Fprint(os.Stderr, timings.Summary())
	}

	// Positional arguments filter reported paths; "./..." (or none) means
	// everything.
	var prefixes []string
	for _, arg := range fs.Args() {
		if arg == "./..." || arg == "..." || arg == "." {
			prefixes = nil
			break
		}
		prefixes = append(prefixes, filepath.Clean(strings.TrimPrefix(arg, "./")))
	}
	var shown []lint.Finding
	for _, f := range findings {
		if len(prefixes) > 0 && !matchesAny(f.Pos.Filename, prefixes) {
			continue
		}
		shown = append(shown, f)
	}

	if *jsonOut {
		doc := report{Count: len(shown), Rules: names, Findings: shown, Stats: stats}
		if timings != nil {
			doc.TimingsMs = timings.Milliseconds()
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			return 2, err
		}
		if len(shown) > 0 {
			return 1, nil
		}
		return 0, nil
	}
	for _, f := range shown {
		fmt.Fprintln(stdout, f)
		if p := f.PathString(); p != "" {
			fmt.Fprintln(stdout, p)
		}
	}
	if len(shown) > 0 {
		fmt.Fprintf(stdout, "gtv-lint: %d finding(s)\n", len(shown))
		return 1, nil
	}
	return 0, nil
}

// report is the -json document: the finding count, the rule set that ran
// (so consumers can tell "no findings" from "rule not enabled"), the
// findings — each with rule, position, message, and (for module rules)
// the hop path — rule-namespaced coverage stats (e.g.
// "shapeflow.ops_proved"), and, under -timing, per-rule wall time in
// milliseconds.
type report struct {
	Count     int
	Rules     []string
	Findings  []lint.Finding
	Stats     map[string]int     `json:",omitempty"`
	TimingsMs map[string]float64 `json:",omitempty"`
}

func matchesAny(path string, prefixes []string) bool {
	for _, p := range prefixes {
		if path == p || strings.HasPrefix(path, p+string(filepath.Separator)) {
			return true
		}
	}
	return false
}
