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
	{"snapstate", "snapstatebad"},
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
	type goldenCase struct{ name, dir, importPath, rule string }
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

	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
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
