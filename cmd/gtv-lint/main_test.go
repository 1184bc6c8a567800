package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/lint"
)

// pinTestModule lays out a minimal module with one floateq finding, one
// errdrop finding, an errdrop suppression with nothing to suppress and a
// suppression that names no rule, so full and subset runs have observably
// different outputs.
func pinTestModule(t *testing.T) string {
	t.Helper()
	root := t.TempDir()
	files := map[string]string{
		"go.mod": "module example.com/pin\n\ngo 1.21\n",
		"a.go": `package pin

import "os"

// Eq compares floats exactly.
func Eq(a, b float64) bool { return a == b }

// Drop discards an error.
func Drop() { os.Remove("x") }

//lint:ignore errdrop nothing below returns an error
func clean() {}

//lint:ignore
var _ = clean
`,
	}
	for rel, content := range files {
		path := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// runLint invokes the CLI entry point and returns its exit code and
// captured stdout.
func runLint(t *testing.T, args ...string) (int, string) {
	t.Helper()
	out, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	code, err := run(args, out)
	if err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	data, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	return code, string(data)
}

// lintJSON runs `-json` with the given extra arguments and decodes the
// report.
func lintJSON(t *testing.T, root string, args ...string) (string, report) {
	t.Helper()
	code, out := runLint(t, append([]string{"-root", root, "-json"}, args...)...)
	if code != 1 {
		t.Fatalf("gtv-lint -json %v: exit %d, want 1 (the module has findings)", args, code)
	}
	var doc report
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("gtv-lint -json %v: %v\n%s", args, err, out)
	}
	return out, doc
}

// ofRule filters findings to one rule; containing counts the ones whose
// message mentions substr.
func ofRule(findings []lint.Finding, rule string) []lint.Finding {
	var out []lint.Finding
	for _, f := range findings {
		if f.Rule == rule {
			out = append(out, f)
		}
	}
	return out
}

func containing(findings []lint.Finding, substr string) int {
	n := 0
	for _, f := range findings {
		if strings.Contains(f.Msg, substr) {
			n++
		}
	}
	return n
}

// TestRuleSubsetRuns pins what a run owes its caller: the report is a
// function of the tree and the rule set alone, a subset run sees exactly
// the full run's findings for its rules, a suppression counts as unused
// only when its rule ran, and a malformed suppression is reported once
// whatever ran.
func TestRuleSubsetRuns(t *testing.T) {
	root := pinTestModule(t)

	first, full := lintJSON(t, root)
	if second, _ := lintJSON(t, root); second != first {
		t.Errorf("two consecutive -json runs differ:\n%s\n---\n%s", first, second)
	}
	if len(ofRule(full.Findings, "floateq")) != 1 || len(ofRule(full.Findings, "errdrop")) != 1 {
		t.Fatalf("full run: want one floateq and one errdrop finding, got %v", full.Findings)
	}
	if n := containing(full.Findings, "unused //lint:ignore errdrop"); n != 1 {
		t.Errorf("full run reports the unused errdrop suppression %d times, want 1", n)
	}

	for _, only := range []string{"floateq", "errdrop", "floateq,privflow"} {
		_, sub := lintJSON(t, root, "-only", only)
		for _, rule := range strings.Split(only, ",") {
			if got, want := ofRule(sub.Findings, rule), ofRule(full.Findings, rule); !reflect.DeepEqual(got, want) {
				t.Errorf("-only %s: %s findings %v, want the full run's %v", only, rule, got, want)
			}
		}
		wantUnused := 0
		if strings.Contains(only, "errdrop") {
			wantUnused = 1
		}
		if n := containing(sub.Findings, "unused //lint:ignore errdrop"); n != wantUnused {
			t.Errorf("-only %s reports the unused errdrop suppression %d times, want %d", only, n, wantUnused)
		}
		if n := containing(sub.Findings, "malformed suppression"); n != 1 {
			t.Errorf("-only %s reports the malformed suppression %d times, want 1", only, n)
		}
		for _, f := range sub.Findings {
			if f.Rule != "lint" && !strings.Contains(","+only+",", ","+f.Rule+",") {
				t.Errorf("-only %s reports a finding of a rule that did not run: %s", only, f)
			}
		}
	}
}

// TestOnlyRejectsRepeatedRule: a rule named twice in -only is a usage
// error, like an unknown one, not a run that reports its findings twice.
func TestOnlyRejectsRepeatedRule(t *testing.T) {
	root := pinTestModule(t)
	out, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	for _, only := range []string{"floateq,floateq", "floateq,errdrop, floateq"} {
		if code, err := run([]string{"-root", root, "-only", only}, out); code != 2 || err == nil {
			t.Errorf("-only %s: exit %d, error %v; want exit 2 and a usage error", only, code, err)
		}
	}
}
