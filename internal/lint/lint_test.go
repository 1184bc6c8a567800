package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// fixtureCases maps each analyzer to the fixture packages exercising it.
// Fixture files carry `// want "regexp"` comments on the lines where a
// finding is expected; lines without one must stay clean.
var fixtureCases = []struct {
	rule       string
	dir        string
	importPath string
}{
	{"tapelifetime", "testdata/src/tapelifetime", "tapelifetime"},
	{"globalrand", "testdata/src/globalrand", "globalrand"},
	{"globalrand", "testdata/src/cmd/globalrandcmd", "cmd/globalrandcmd"},
	{"floateq", "testdata/src/floateq", "floateq"},
	{"errdrop", "testdata/src/errdrop", "errdrop"},
	{"floateq", "testdata/src/suppress", "suppress"},
	{"privflow", "testdata/src/privflow", "privflow"},
	{"lockorder", "testdata/src/lockorder", "lockorder"},
	{"goroleak", "testdata/src/goroleak", "goroleak"},
	{"cancelflow", "testdata/src/cancelflow", "cancelflow"},
	{"shapeflow", "testdata/src/shapeflow", "shapeflow"},
	{"deadcode", "testdata/src/deadcode", "deadcode"},
}

func TestAnalyzersOnFixtures(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range fixtureCases {
		name := tc.rule + "/" + filepath.Base(tc.dir)
		t.Run(name, func(t *testing.T) {
			a := AnalyzerByName(tc.rule)
			if a == nil {
				t.Fatalf("unknown rule %q", tc.rule)
			}
			pkg, err := loader.LoadDir(tc.dir, tc.importPath)
			if err != nil {
				t.Fatal(err)
			}
			findings, _ := Run([]*Package{pkg}, []*Analyzer{a})
			checkWants(t, tc.dir, findings)
		})
	}
}

// expectation is one parsed `// want "re"` comment.
type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

// parseWants scans every fixture file in dir for want comments.
func parseWants(t *testing.T, dir string) []*expectation {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var wants []*expectation
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			idx := strings.Index(line, "// want ")
			if idx < 0 {
				continue
			}
			quoted := unquoteAll(line[idx+len("// want "):])
			if len(quoted) == 0 {
				t.Fatalf("%s:%d: want comment with no quoted regexp", path, i+1)
			}
			for _, q := range quoted {
				re, err := regexp.Compile(q)
				if err != nil {
					t.Fatalf("%s:%d: bad want regexp %q: %v", path, i+1, q, err)
				}
				wants = append(wants, &expectation{file: path, line: i + 1, re: re})
			}
		}
	}
	return wants
}

// unquoteAll extracts the unquoted contents of every double-quoted string
// in s (the // want "..." expectations).
func unquoteAll(s string) []string {
	var out []string
	re := regexp.MustCompile(`"(?:[^"\\]|\\.)*"`)
	for _, q := range re.FindAllString(s, -1) {
		u, err := strconv.Unquote(q)
		if err == nil {
			out = append(out, u)
		}
	}
	return out
}

// checkWants verifies findings against the dir's want comments: every
// finding must match exactly one pending expectation on its line, and
// every expectation must be consumed.
func checkWants(t *testing.T, dir string, findings []Finding) {
	t.Helper()
	wants := parseWants(t, dir)
	for _, f := range findings {
		full := fmt.Sprintf("%s (%s)", f.Msg, f.Rule)
		var hit *expectation
		for _, w := range wants {
			if !w.matched && w.file == f.Pos.Filename && w.line == f.Pos.Line && w.re.MatchString(full) {
				hit = w
				break
			}
		}
		if hit == nil {
			t.Errorf("unexpected finding: %s", f)
			continue
		}
		hit.matched = true
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected a finding matching %q, got none", w.file, w.line, w.re)
		}
	}
}

// TestMalformedSuppressions covers the forms a want comment cannot
// annotate inline (the want text would change how the suppression
// parses): a missing reason and an unknown rule name must both surface
// as rule-"lint" findings.
func TestMalformedSuppressions(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir("testdata/src/suppressbad", "suppressbad")
	if err != nil {
		t.Fatal(err)
	}
	findings, _ := Run([]*Package{pkg}, []*Analyzer{AnalyzerFloatEq})
	if len(findings) != 2 {
		t.Fatalf("got %d findings, want 2: %v", len(findings), findings)
	}
	for _, f := range findings {
		if f.Rule != "lint" {
			t.Errorf("finding %s: rule = %q, want \"lint\"", f, f.Rule)
		}
	}
	if !strings.Contains(findings[0].Msg, "malformed suppression") {
		t.Errorf("first finding %q, want a malformed-suppression report", findings[0].Msg)
	}
	if !strings.Contains(findings[1].Msg, `unknown rule "nosuchrule"`) {
		t.Errorf("second finding %q, want an unknown-rule report", findings[1].Msg)
	}
}

// TestPrivFlowAnnotationErrors covers annotation misuse. The findings
// land on the directive comments themselves, where an inline want
// comment would change how the directive parses, so the expected
// messages are checked directly (mirroring TestMalformedSuppressions).
func TestPrivFlowAnnotationErrors(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir("testdata/src/privflowann", "privflowann")
	if err != nil {
		t.Fatal(err)
	}
	findings, _ := Run([]*Package{pkg}, []*Analyzer{AnalyzerPrivFlow})
	wantSubstrings := []string{
		`unknown privacy annotation kind "leak"`,
		"privacy sink annotation needs a description",
		"privacy sink annotation cannot apply to a struct field",
		"conflicting privacy annotations on conflicted",
		"misplaced privacy annotation",
		"misplaced privacy annotation",
	}
	if len(findings) != len(wantSubstrings) {
		t.Fatalf("got %d findings, want %d:\n%v", len(findings), len(wantSubstrings), findings)
	}
	matched := make([]bool, len(findings))
	for _, want := range wantSubstrings {
		hit := false
		for i, f := range findings {
			if !matched[i] && strings.Contains(f.Msg, want) {
				matched[i] = true
				hit = true
				break
			}
		}
		if !hit {
			t.Errorf("no finding contains %q in %v", want, findings)
		}
	}
}

// TestShapeFlowAnnotationErrors covers //shape: misuse. The findings
// land on the directive comments themselves, where an inline want
// comment would change how the directive parses, so the expected
// messages are checked directly (mirroring TestPrivFlowAnnotationErrors).
// Invalid directives are discarded, so each one also re-arms the
// boundary obligation on its declaration.
func TestShapeFlowAnnotationErrors(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir("testdata/src/shapeflowann", "shapeflowann")
	if err != nil {
		t.Fatal(err)
	}
	findings, _ := Run([]*Package{pkg}, []*Analyzer{AnalyzerShapeFlow})
	wantSubstrings := []string{
		"shape annotation on TooManyIns has 2 in(...) clauses for 1 shape-bearing parameters",
		"exported shape-bearing function shapeflowann.TooManyIns needs a //shape: annotation",
		"malformed shape annotation: in(...) clauses must precede out(...) clauses",
		"exported shape-bearing function shapeflowann.OutBeforeIn needs a //shape: annotation",
		`malformed shape annotation: bad dim "B-1"`,
		"exported shape-bearing function shapeflowann.BadToken needs a //shape: annotation",
		`malformed shape annotation: "_" cannot appear inside a sum`,
		"exported shape-bearing function shapeflowann.BlankInSum needs a //shape: annotation",
		"malformed shape annotation: clause needs 1 or 2 dims, got 3",
		"exported shape-bearing function shapeflowann.TooWide needs a //shape: annotation",
		"shape annotation on NoDims, which has no tensor or int dims to declare",
		"duplicate shape annotation on Duplicate",
		"shape annotation on a struct field must be a single (R,C) clause",
		"exported tensor field FieldForms.Wrong needs a //shape: (R,C) annotation",
		"shape annotation on NotTensor, which is not a tensor-typed field",
		"exported shape-bearing function shapeflowann.Misplaced needs a //shape: annotation",
		"misplaced shape annotation: //shape: goes in the doc comment",
	}
	if len(findings) != len(wantSubstrings) {
		t.Fatalf("got %d findings, want %d:\n%v", len(findings), len(wantSubstrings), findings)
	}
	matched := make([]bool, len(findings))
	for _, want := range wantSubstrings {
		hit := false
		for i, f := range findings {
			if !matched[i] && strings.Contains(f.Msg, want) {
				matched[i] = true
				hit = true
				break
			}
		}
		if !hit {
			t.Errorf("no finding contains %q in %v", want, findings)
		}
	}
}

// TestShapeFlowRejectsSpacedDirective: gofmt rewrites "//shape: in(...)"
// into the plain comment "// shape: in(...)", so only the spelling without
// a space is a directive, and the spaced one is a finding instead of a
// contract that silently stops binding.
func TestShapeFlowRejectsSpacedDirective(t *testing.T) {
	for directive, want := range map[string]int{"//shape:in(R,C) out(R,C)": 0, "//shape: in(R,C) out(R,C)": 1} {
		pkgs := loadTempModule(t, map[string]string{
			"go.mod":               "module example.com/m\n\ngo 1.21\n",
			"internal/tensor/t.go": "package tensor\n\ntype Dense struct{}\n",
			"m.go": "package m\n\nimport \"example.com/m/internal/tensor\"\n\n// Id returns x.\n//\n" +
				directive + "\nfunc Id(x *tensor.Dense) *tensor.Dense { return x }\n",
		})
		findings, stats := Run(pkgs, []*Analyzer{AnalyzerShapeFlow})
		if len(findings) != want || (want == 1 && !strings.Contains(findings[0].Msg, "space after")) {
			t.Errorf("%q: findings %v, want %d about the space", directive, findings, want)
		}
		if got := stats["shapeflow.shape_annotations"]; got != 1-want {
			t.Errorf("%q: %d annotations bound, want %d", directive, got, 1-want)
		}
	}
}

// TestShapeFlowPaths checks that an interprocedural shape finding
// carries the call chain: the Chain fixture violates a MatMul inner-dim
// equation exported from helperMM's summary, so the finding must hop
// through helperMM before landing in Chain.
func TestShapeFlowPaths(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir("testdata/src/shapeflow", "shapeflow")
	if err != nil {
		t.Fatal(err)
	}
	findings, _ := Run([]*Package{pkg}, []*Analyzer{AnalyzerShapeFlow})
	var hit *Finding
	for i := range findings {
		if strings.Contains(findings[i].Msg, "MatMul inner dims") && len(findings[i].Path) > 0 && strings.Contains(findings[i].Path[0].Func, "helperMM") {
			hit = &findings[i]
			break
		}
	}
	if hit == nil {
		t.Fatalf("no summary-replay finding hopping through helperMM in %v", findings)
	}
	if len(hit.Path) < 2 {
		t.Fatalf("replay finding path has %d hops, want >= 2: %v", len(hit.Path), hit.Path)
	}
	for i, h := range hit.Path {
		if h.Func == "" {
			t.Errorf("path hop %d has no function name", i)
		}
		if h.Pos.Filename == "" || h.Pos.Line == 0 {
			t.Errorf("path hop %d has no position: %+v", i, h)
		}
	}
	rendered := hit.PathString()
	if !strings.Contains(rendered, "helperMM") || !strings.Contains(rendered, "Chain") {
		t.Errorf("PathString() = %q, want helperMM -> Chain chain", rendered)
	}
}

// TestPrivFlowPaths checks that a taint finding carries the full
// source-to-sink call chain: the SampleCV fixture flow passes through
// pickRows and gather, so its path must span several hops with file
// positions, and PathString must render them for the CLI.
func TestPrivFlowPaths(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir("testdata/src/privflow", "privflow")
	if err != nil {
		t.Fatal(err)
	}
	findings, _ := Run([]*Package{pkg}, []*Analyzer{AnalyzerPrivFlow})
	var hit *Finding
	for i := range findings {
		if strings.Contains(findings[i].Msg, "SampleCV") {
			hit = &findings[i]
			break
		}
	}
	if hit == nil {
		t.Fatalf("no SampleCV finding in %v", findings)
	}
	if len(hit.Path) < 2 {
		t.Fatalf("SampleCV finding path has %d hops, want >= 2: %v", len(hit.Path), hit.Path)
	}
	for i, h := range hit.Path {
		if h.Func == "" {
			t.Errorf("path hop %d has no function name", i)
		}
		if h.Pos.Filename == "" || h.Pos.Line == 0 {
			t.Errorf("path hop %d has no position: %+v", i, h)
		}
	}
	rendered := hit.PathString()
	if !strings.Contains(rendered, "taint path:") {
		t.Errorf("PathString() = %q, want a rendered taint path", rendered)
	}
	for _, h := range hit.Path {
		if !strings.Contains(rendered, h.Func) {
			t.Errorf("PathString() %q is missing hop %q", rendered, h.Func)
		}
	}
}

func TestAnalyzerRegistry(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range Analyzers() {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v needs a name, a doc, and a Run function", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
		if AnalyzerByName(a.Name) != a {
			t.Errorf("AnalyzerByName(%q) does not round-trip", a.Name)
		}
	}
	if AnalyzerByName("lint") != nil {
		t.Error(`"lint" must stay reserved for driver findings`)
	}
}
