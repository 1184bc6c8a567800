package lint

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// goldenOnlyDirs are the fixture packages no `// want` comment can
// annotate (their findings land on the directives themselves) plus the two
// loader fixtures; each runs under the rule named, "" meaning the whole
// registry.
var goldenOnlyDirs = []struct{ rule, dir string }{
	{"privflow", "privflowann"},
	{"shapeflow", "shapeflowann"},
	{"floateq", "suppressbad"},
	{"", "archsplit"},
	{"", "exttest"},
}

// TestFixtureFindingsGolden pins what `// want` regexps leave open: the
// exact message text, the position and the hop path of every finding on
// every fixture package. Each fixture runs once under its own rule
// (testdata/golden/<rule>_<dir>.txt) and once under the whole registry
// (all_<dir>.txt, which also pins which suppressions count as unused when
// every rule ran). The files were cut from the driver of PR 20.
func TestFixtureFindingsGolden(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range goldenCases() {
		t.Run(tc.name, func(t *testing.T) {
			pkg, err := loader.LoadDir(tc.dir, tc.importPath)
			if err != nil {
				t.Fatal(err)
			}
			analyzers := Analyzers()
			if tc.rule != "" {
				analyzers = []*Analyzer{AnalyzerByName(tc.rule)}
			}
			findings, _ := Run([]*Package{pkg}, analyzers)
			Relativize(findings, loader.ModuleRoot)
			got := renderFindings(findings)
			want, err := os.ReadFile(filepath.Join("testdata", "golden", tc.name+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("findings differ from testdata/golden/%s.txt\n--- got\n%s--- want\n%s", tc.name, got, want)
			}
		})
	}
}

// goldenCase is one golden file: the fixture package it renders and the
// rule it runs under ("" for the whole registry).
type goldenCase struct{ name, dir, importPath, rule string }

// goldenCases lists the golden files TestFixtureFindingsGolden reads: every
// fixture package under its own rule and once under the whole registry.
func goldenCases() []goldenCase {
	var cases []goldenCase
	seen := make(map[string]bool)
	add := func(rule, dir, importPath string) {
		base := filepath.Base(dir)
		if rule != "" {
			cases = append(cases, goldenCase{rule + "_" + base, dir, importPath, rule})
		}
		if !seen[dir] {
			seen[dir] = true
			cases = append(cases, goldenCase{"all_" + base, dir, importPath, ""})
		}
	}
	for _, tc := range fixtureCases {
		add(tc.rule, tc.dir, tc.importPath)
	}
	for _, tc := range goldenOnlyDirs {
		add(tc.rule, "testdata/src/"+tc.dir, tc.dir)
	}
	return cases
}

// TestEveryFixtureIsRun keeps the fixture tree and the case tables in
// step: every package directory under testdata/src is named by
// fixtureCases or goldenOnlyDirs, and every file under testdata/golden is
// one TestFixtureFindingsGolden reads. A rule deleted without its fixtures,
// or a fixture added without a case, fails here rather than sitting
// unread.
func TestEveryFixtureIsRun(t *testing.T) {
	named := make(map[string]bool)
	read := make(map[string]bool)
	for _, tc := range goldenCases() {
		named[tc.dir] = true
		read[tc.name+".txt"] = true
	}
	err := filepath.WalkDir("testdata/src", func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(path) != ".go" {
			return err
		}
		if dir := filepath.ToSlash(filepath.Dir(path)); !named[dir] {
			named[dir] = true // report each directory once
			t.Errorf("fixture package %s is named by neither fixtureCases nor goldenOnlyDirs", dir)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadDir(filepath.Join("testdata", "golden"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range golden {
		if !read[e.Name()] {
			t.Errorf("testdata/golden/%s is read by no TestFixtureFindingsGolden case", e.Name())
		}
	}
}

// renderFindings renders each finding as its String() line followed by its
// hop path, sorted as whole blocks so ties in the driver's position order
// cannot reorder the file.
func renderFindings(findings []Finding) string {
	blocks := make([]string, len(findings))
	for i, f := range findings {
		blocks[i] = f.String() + "\n"
		if p := f.PathString(); p != "" {
			blocks[i] += p + "\n"
		}
	}
	sort.Strings(blocks)
	return strings.Join(blocks, "")
}
