package main

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/lint"
)

// The reference check. README.md, DESIGN.md and ROADMAP.md name code, files,
// flags, make targets, metrics and ROADMAP items; each name must exist, so
// a rename or a deletion fails here instead of leaving a doc that describes
// code that is gone. What counts as a reference, and what is left alone:
//
//   - A backticked `pkg.Name`, `pkg.Type.Member` or `Type.Member` (a call's
//     argument list after it is ignored) resolves against the type-checked
//     module: a package's scope, then its _test.go functions; members
//     through types.LookupFieldOrMethod, fields and unexported names
//     included. A qualifier that is a standard-library package (one the
//     module imports, or a top-level one under $GOROOT/src) is not checked.
//   - A bare `TestX`, `FuzzX` or `BenchmarkX` (a sub-benchmark's /suffix
//     dropped) names a function in some _test.go file.
//   - A file name with a source, script, data or doc extension names a file
//     in the tree (a name with a slash matches a path suffix); a path rooted
//     at cmd/, internal/, examples/ or bench/ names a file or directory, and
//     `gtv-x` names cmd/gtv-x.
//   - Every `-flag` token names a flag some cmd/ binary or the benchmark
//     program defines with fs.X("name", …) or fs.XVar(p, "name", …), or a
//     go tool flag; `make t` names a Makefile target.
//   - In a table whose second column is headed "Where", a row whose first
//     cell starts with `-flag` lists in that column exactly the `gtv-x`
//     commands under cmd/ that define the flag.
//   - A metric of BENCHMARK.json or a stats key of LINT_findings.json
//     resolves as itself; any other dotted name whose last part holds an
//     underscore is taken for one and fails.
//   - ROADMAP n and ROADMAP n(x), also in Go comments, name an open item of
//     ROADMAP.md and one of its lettered clauses.
//
// Not references: bare identifiers (a local, a layout, a math symbol); spans
// with a wildcard, a brace list or a <placeholder> (patterns); $GOROOT
// paths; the .gtvcol and .gtvsnap files the programs write; anything inside
// fenced code. ROADMAP.md names proposals, so there only file names,
// file:line and ROADMAP citations are checked.
//
// Two rules keep history and measurements out of DESIGN.md and README.md:
// outside fenced code neither may say "PR n" (CHANGES.md is the history) or
// quote a timing, a rate or a speed-up factor (EXPERIMENTS.md and the
// BENCH_*.json records hold numbers; the docs cite them by section).
// No doc may cite file:line, which goes stale with the next edit above it.
// CHANGES.md and EXPERIMENTS.md are history and are not checked.

// docFinding is one reference that does not resolve, or one banned token.
type docFinding struct {
	doc  string
	line int
	ref  string
	why  string
}

func (f docFinding) String() string {
	return fmt.Sprintf("%s:%d: %s: %s", f.doc, f.line, f.ref, f.why)
}

// refIndex is everything a reference resolves against.
type refIndex struct {
	pkgs     map[string][]*lint.Package // by package name and import alias
	dirOf    map[*lint.Package]string   // slash path from the module root
	std      map[string]bool            // names standard-library packages are imported under
	named    map[string][]*types.TypeName
	testDecl map[string]map[string]bool // dir → Func and Type.Method of its _test.go files
	tests    map[string]bool            // Test, Fuzz and Benchmark functions anywhere
	files    []string                   // slash paths from the module root
	flags    map[string]bool
	flagCmds map[string]map[string]bool // flag → the cmd/ binaries defining it
	targets  map[string]bool
	items    map[string]bool // "12", "1(a)"
	keys     map[string]bool // metric names and lint stats keys
	root     string
}

// goToolFlags are the go command's own flags (build, test, list, tool
// pprof) as the docs show them in command lines.
var goToolFlags = []string{"bench", "benchmem", "count", "cover", "coverpkg", "cpu", "deps", "export", "fuzz",
	"fuzztime", "gcflags", "ldflags", "race", "run", "sample_index", "short", "top", "v"}

var (
	refIndexOnce sync.Once
	refIndexVal  *refIndex
	refIndexErr  error
)

// loadRefIndex builds the index once per test binary: the module load is
// most of the check's cost.
func loadRefIndex(t *testing.T) *refIndex {
	t.Helper()
	refIndexOnce.Do(func() { refIndexVal, refIndexErr = buildRefIndex("../..") })
	if refIndexErr != nil {
		t.Fatal(refIndexErr)
	}
	return refIndexVal
}

func buildRefIndex(dir string) (*refIndex, error) {
	loader, err := lint.NewLoader(dir)
	if err != nil {
		return nil, err
	}
	pkgs, err := loader.LoadModule()
	if err != nil {
		return nil, err
	}
	ix := &refIndex{
		pkgs: map[string][]*lint.Package{}, dirOf: map[*lint.Package]string{},
		std: map[string]bool{}, named: map[string][]*types.TypeName{},
		testDecl: map[string]map[string]bool{}, tests: map[string]bool{},
		flags: map[string]bool{}, flagCmds: map[string]map[string]bool{},
		targets: map[string]bool{}, keys: map[string]bool{},
		root: loader.ModuleRoot,
	}
	byPath := map[string]*lint.Package{}
	for _, p := range pkgs {
		byPath[p.Path] = p
		ix.dirOf[p] = strings.TrimPrefix(strings.TrimPrefix(p.Path, loader.ModulePath), "/")
		if p.Name != "main" {
			ix.pkgs[p.Name] = append(ix.pkgs[p.Name], p)
		}
		for _, name := range p.Types.Scope().Names() {
			if tn, ok := p.Types.Scope().Lookup(name).(*types.TypeName); ok {
				ix.named[name] = append(ix.named[name], tn)
			}
		}
	}
	addImports := func(f *ast.File) {
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			name := path[strings.LastIndex(path, "/")+1:]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			if p := byPath[path]; p != nil {
				if name != p.Name {
					ix.pkgs[name] = append(ix.pkgs[name], p)
				}
			} else if !strings.HasPrefix(path, loader.ModulePath+"/") {
				ix.std[name] = true
			}
		}
	}
	for _, p := range pkgs {
		for _, f := range p.Files {
			addImports(f)
		}
	}
	for _, f := range goToolFlags {
		ix.flags[f] = true
	}

	fset := token.NewFileSet()
	err = filepath.WalkDir(ix.root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != ix.root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		rel := filepath.ToSlash(strings.TrimPrefix(path, ix.root+string(filepath.Separator)))
		ix.files = append(ix.files, rel)
		if !strings.HasSuffix(rel, ".go") || strings.Contains(rel, "testdata/") {
			return nil
		}
		test := strings.HasSuffix(rel, "_test.go")
		definesFlags := !test && (strings.HasPrefix(rel, "cmd/") || strings.HasPrefix(rel, "bench/_gtvbench/"))
		if !test && !definesFlags {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if definesFlags {
			command := ""
			if strings.HasPrefix(rel, "cmd/") {
				command = strings.Split(rel, "/")[1]
			}
			ix.addFlags(f, command)
		} else {
			addImports(f)
			ix.addTestDecls(filepath.ToSlash(filepath.Dir(rel)), f)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	makefile, err := os.ReadFile(filepath.Join(ix.root, "Makefile"))
	if err != nil {
		return nil, err
	}
	for _, m := range regexp.MustCompile(`(?m)^([a-z][a-z0-9-]*):`).FindAllStringSubmatch(string(makefile), -1) {
		ix.targets[m[1]] = true
	}
	roadmap, err := os.ReadFile(filepath.Join(ix.root, "ROADMAP.md"))
	if err != nil {
		return nil, err
	}
	ix.items = roadmapItems(string(roadmap))
	var bench struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	var findings struct{ Stats map[string]float64 }
	for file, v := range map[string]any{"BENCHMARK.json": &bench, "LINT_findings.json": &findings} {
		data, err := os.ReadFile(filepath.Join(ix.root, file))
		if err != nil {
			return nil, err
		}
		if err := json.Unmarshal(data, v); err != nil {
			return nil, fmt.Errorf("%s: %w", file, err)
		}
	}
	for _, m := range append(bench.EndToEnd, bench.PerLayer...) {
		ix.keys[m.Name] = true
	}
	for k := range findings.Stats {
		ix.keys[k] = true
	}
	return ix, nil
}

// addFlags records the name of every fs.X("name", …) and fs.XVar(p,
// "name", …) call in f, and that command (if not "") defines it.
func (ix *refIndex) addFlags(f *ast.File, command string) {
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if recv, ok := sel.X.(*ast.Ident); !ok || recv.Name != "fs" {
			return true
		}
		for i := 0; i < len(call.Args) && i < 2; i++ {
			if lit, ok := call.Args[i].(*ast.BasicLit); ok && lit.Kind == token.STRING {
				name, _ := strconv.Unquote(lit.Value)
				ix.flags[name] = true
				if command != "" {
					if ix.flagCmds[name] == nil {
						ix.flagCmds[name] = map[string]bool{}
					}
					ix.flagCmds[name][command] = true
				}
				break
			}
		}
		return true
	})
}

// addTestDecls records the functions (Name) and methods (Type.Method) a
// _test.go file declares.
func (ix *refIndex) addTestDecls(dir string, f *ast.File) {
	decls := ix.testDecl[dir]
	if decls == nil {
		decls = map[string]bool{}
		ix.testDecl[dir] = decls
	}
	for _, d := range f.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok {
			continue
		}
		name := fn.Name.Name
		if fn.Recv != nil {
			recv := fn.Recv.List[0].Type
			if star, ok := recv.(*ast.StarExpr); ok {
				recv = star.X
			}
			if id, ok := recv.(*ast.Ident); ok {
				name = id.Name + "." + name
			}
		} else if testFuncRE.MatchString(name) {
			ix.tests[name] = true
		}
		decls[name] = true
	}
}

var (
	itemHeadRE = regexp.MustCompile(`^(\d+)\. `)
	subItemRE  = regexp.MustCompile(`^\s+\(([a-z]+)\) `)
)

// roadmapItems returns the open items of a ROADMAP.md ("12") and their
// lettered clauses ("1(a)"), which start a line inside their item.
func roadmapItems(text string) map[string]bool {
	items := map[string]bool{}
	_, open, _ := strings.Cut(text, "\n## Open items")
	open, _, _ = strings.Cut(open, "\n## ")
	item := ""
	for _, line := range strings.Split(open, "\n") {
		if m := itemHeadRE.FindStringSubmatch(line); m != nil {
			item = m[1]
			items[item] = true
		} else if m := subItemRE.FindStringSubmatch(line); m != nil && item != "" {
			items[item+"("+m[1]+")"] = true
		}
	}
	return items
}

var (
	fenceRE     = regexp.MustCompile("(?ms)^\\s*```.*?^\\s*```[^\n]*$")
	spanRE      = regexp.MustCompile("`([^`]+)`")
	fileLineRE  = regexp.MustCompile(`[\w./-]+\.(?:go|s):\d+`)
	citationRE  = regexp.MustCompile(`ROADMAP\s+(?:items?\s+)?(\d+(?:\([a-z]+\))?(?:(?:,\s*|\s+and\s+)\d+(?:\([a-z]+\))?)*)`)
	citedItemRE = regexp.MustCompile(`(\d+)(\([a-z]+\))?`)
	historyRE   = regexp.MustCompile(`\bPRs?\s+\d+`)
	measureRE   = regexp.MustCompile(`\d+(?:[.,]\d+)*(?:\s?(?:ns|µs|us|ms|rows/s|MB/s|MiB/s|GB/s|GFLOP/s)\b|×(?:\D|$))`)
	flagRE      = regexp.MustCompile(`^-([a-z][a-z0-9_-]*)(?:=.*)?$`)
	goRefRE     = regexp.MustCompile(`^([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)(?:\(|$)`)
	testFuncRE  = regexp.MustCompile(`^(?:Test|Fuzz|Benchmark)[A-Z0-9_]\w*$`)
	metricRE    = regexp.MustCompile(`^[A-Za-z]\w*(?:\.\w+)*\.\w*_\w*$`)
	rootedRE    = regexp.MustCompile(`^(?:cmd|internal|examples|bench)(?:/[\w.-]+)*/?$`)
	fileExtRE   = regexp.MustCompile(`^[\w./-]+\.(go|s|json|md|sh|bin|mod)$`)
	writtenRE   = regexp.MustCompile(`\.(?:gtvcol|gtvsnap)$`)
	commandRE   = regexp.MustCompile(`^gtv-[a-z]+$`)
	rowFlagRE   = regexp.MustCompile("^`-([a-z][a-z0-9_-]*)")
	rowCmdRE    = regexp.MustCompile("`(gtv-[a-z]+)`")
)

// checkDoc returns every finding in one doc. proposals is ROADMAP.md's
// mode: only file names, file:line and ROADMAP citations are checked.
func checkDoc(ix *refIndex, doc, text string, proposals bool) []docFinding {
	// Fenced code keeps its newlines, so offsets still give line numbers.
	text = fenceRE.ReplaceAllStringFunc(text, func(s string) string {
		return strings.Repeat("\n", strings.Count(s, "\n"))
	})
	var out []docFinding
	add := func(at int, ref, why string) {
		out = append(out, docFinding{doc, 1 + strings.Count(text[:at], "\n"), ref, why})
	}
	for _, m := range fileLineRE.FindAllStringIndex(text, -1) {
		add(m[0], text[m[0]:m[1]], "cite the function, not a line")
	}
	out = append(out, citations(ix, doc, text)...)
	if !proposals {
		for _, m := range historyRE.FindAllStringIndex(text, -1) {
			add(m[0], text[m[0]:m[1]], "history belongs in CHANGES.md")
		}
		for _, m := range measureRE.FindAllStringIndex(text, -1) {
			tok := text[m[0]:m[1]]
			if i := strings.Index(tok, "×"); i >= 0 {
				tok = tok[:i+len("×")] // a factor; 3×3 is a shape
			}
			add(m[0], tok, "a measurement belongs in EXPERIMENTS.md or a BENCH_*.json")
		}
		out = append(out, whereColumns(ix, doc, text)...)
	}
	for _, m := range spanRE.FindAllStringSubmatchIndex(text, -1) {
		span := strings.Join(strings.Fields(text[m[2]:m[3]]), " ")
		for _, f := range ix.check(span, proposals) {
			add(m[0], f[0], f[1])
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].line < out[j].line })
	return out
}

// whereColumns checks every flag row of a table whose second column is
// headed "Where": the commands that column lists must be exactly the cmd/
// binaries that define the flag.
func whereColumns(ix *refIndex, doc, text string) []docFinding {
	var out []docFinding
	where := false
	for n, line := range strings.Split(text, "\n") {
		cells := strings.Split(strings.ReplaceAll(line, `\|`, ""), "|")
		if !strings.HasPrefix(line, "|") || len(cells) < 3 {
			where = false
			continue
		}
		if strings.TrimSpace(cells[2]) == "Where" {
			where = true
		}
		m := rowFlagRE.FindStringSubmatch(strings.TrimSpace(cells[1]))
		if !where || m == nil {
			continue
		}
		listed := map[string]bool{}
		for _, c := range rowCmdRE.FindAllStringSubmatch(cells[2], -1) {
			listed[c[1]] = true
		}
		defined := ix.flagCmds[m[1]]
		for _, c := range sortedKeys(listed) {
			if !defined[c] {
				out = append(out, docFinding{doc, n + 1, "-" + m[1], c + " does not define this flag"})
			}
		}
		for _, c := range sortedKeys(defined) {
			if !listed[c] {
				out = append(out, docFinding{doc, n + 1, "-" + m[1], "defined by " + c + ", which the Where column does not list"})
			}
		}
	}
	return out
}

func sortedKeys(m map[string]bool) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// citations returns a finding for every ROADMAP citation in text that
// names no open item or clause.
func citations(ix *refIndex, doc, text string) []docFinding {
	var out []docFinding
	for _, m := range citationRE.FindAllStringSubmatchIndex(text, -1) {
		for _, c := range citedItemRE.FindAllString(text[m[2]:m[3]], -1) {
			if !ix.items[c] {
				out = append(out, docFinding{doc, 1 + strings.Count(text[:m[0]], "\n"), "ROADMAP " + c, "no such open item in ROADMAP.md"})
			}
		}
	}
	return out
}

// check resolves one backticked span and returns (reference, reason) for
// each part that does not resolve.
func (ix *refIndex) check(span string, proposals bool) [][2]string {
	fields := strings.Fields(span)
	if strings.ContainsAny(span, "*{}<>…") || strings.HasPrefix(span, "$GOROOT") || writtenRE.MatchString(span) {
		return nil // a pattern, the standard library's source, or a file the programs write
	}
	single := len(fields) == 1
	if m := fileExtRE.FindStringSubmatch(span); single && m != nil {
		if proposals && m[1] != "go" && m[1] != "s" || strings.HasPrefix(span, "_") {
			return nil // a suffix such as _test.go names no file
		}
		if !ix.hasFile(span) {
			return [][2]string{{span, "no such file"}}
		}
		return nil
	}
	if proposals {
		return nil
	}
	var out [][2]string
	for _, f := range fields {
		if m := flagRE.FindStringSubmatch(f); m != nil && !ix.flags[m[1]] {
			out = append(out, [2]string{"-" + m[1], "no command defines this flag"})
		}
	}
	head, _, _ := strings.Cut(span, "/")
	switch {
	case fields[0] == "make" && len(fields) > 1:
		if !ix.targets[fields[1]] {
			out = append(out, [2]string{span, "no such Makefile target"})
		}
	case single && rootedRE.MatchString(span):
		if !ix.hasPath(strings.TrimSuffix(span, "/")) {
			out = append(out, [2]string{span, "no such file or directory"})
		}
	case single && commandRE.MatchString(span):
		if !ix.hasPath("cmd/" + span) {
			out = append(out, [2]string{span, "no such command under cmd/"})
		}
	case single && testFuncRE.MatchString(head):
		if !ix.tests[head] {
			out = append(out, [2]string{head, "no such test, fuzzer or benchmark"})
		}
	case ix.keys[span]:
	case single && metricRE.MatchString(span):
		out = append(out, [2]string{span, "not a metric of BENCHMARK.json or a stats key of LINT_findings.json"})
	default:
		if m := goRefRE.FindStringSubmatch(span); m != nil {
			if why := ix.resolveGo(strings.Split(m[1], ".")); why != "" {
				out = append(out, [2]string{m[1], why})
			}
		}
	}
	return out
}

// resolveGo resolves a dotted Go name and says why it does not resolve.
func (ix *refIndex) resolveGo(chain []string) string {
	head, rest := chain[0], chain[1:]
	if ps := ix.pkgs[head]; len(ps) > 0 {
		for _, p := range ps {
			obj := p.Types.Scope().Lookup(rest[0])
			if obj != nil && hasMembers(obj.Type(), p.Types, rest[1:]) ||
				obj == nil && ix.testDecl[ix.dirOf[p]][strings.Join(rest[:min(2, len(rest))], ".")] {
				return ""
			}
		}
		return "not in package " + head
	}
	if ix.std[head] || isStdPackage(head) {
		return "" // the standard library's
	}
	if tns := ix.named[head]; len(tns) > 0 {
		for _, tn := range tns {
			if hasMembers(tn.Type(), tn.Pkg(), rest) {
				return ""
			}
		}
		return "no such field or method"
	}
	for _, decls := range ix.testDecl {
		if decls[head+"."+rest[0]] {
			return ""
		}
	}
	return "names no module package or type"
}

// isStdPackage reports whether name is a top-level standard-library
// package (context, sync, …); nested ones are known by their imports.
func isStdPackage(name string) bool {
	fi, err := os.Stat(filepath.Join(build.Default.GOROOT, "src", name))
	return err == nil && fi.IsDir() && name == strings.ToLower(name)
}

// hasMembers reports whether each name is a field or method of the type
// the one before it has.
func hasMembers(t types.Type, pkg *types.Package, names []string) bool {
	for _, name := range names {
		obj, _, _ := types.LookupFieldOrMethod(t, true, pkg, name)
		if obj == nil {
			return false
		}
		t = obj.Type()
	}
	return true
}

func (ix *refIndex) hasFile(name string) bool {
	for _, f := range ix.files {
		if f == name || strings.HasSuffix(f, "/"+name) {
			return true
		}
	}
	return false
}

func (ix *refIndex) hasPath(path string) bool {
	for _, f := range ix.files {
		if f == path || strings.HasPrefix(f, path+"/") {
			return true
		}
	}
	return false
}

// TestDocReferences runs the check over the design docs and over the
// ROADMAP citations in Go source.
func TestDocReferences(t *testing.T) {
	ix := loadRefIndex(t)
	for _, doc := range []string{"README.md", "DESIGN.md", "ROADMAP.md"} {
		text, err := os.ReadFile(filepath.Join(ix.root, doc))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range checkDoc(ix, doc, string(text), doc == "ROADMAP.md") {
			t.Error(f)
		}
	}
	fset := token.NewFileSet()
	for _, rel := range ix.files {
		if !strings.HasSuffix(rel, ".go") || strings.Contains(rel, "testdata/") {
			continue
		}
		src, err := os.ReadFile(filepath.Join(ix.root, rel))
		if err != nil {
			t.Fatal(err)
		}
		f, err := parser.ParseFile(fset, rel, src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		// Only the comments, at their offsets, so lines still count.
		text := make([]byte, len(src))
		for i, c := range src {
			text[i] = ' '
			if c == '\n' {
				text[i] = c
			}
		}
		base := fset.File(f.Pos()).Base()
		for _, g := range f.Comments {
			copy(text[int(g.Pos())-base:], src[int(g.Pos())-base:int(g.End())-base])
		}
		for _, f := range citations(ix, rel, string(text)) {
			t.Error(f)
		}
	}
}

// TestDocReferencesFixture holds the check itself to one live and one dead
// reference of each kind, so a kind that silently stops being checked
// fails here. The fixture's ROADMAP citations resolve against its own
// roadmap; everything else against this module.
func TestDocReferencesFixture(t *testing.T) {
	roadmap, err := os.ReadFile(filepath.Join("testdata", "docrefs", "ROADMAP.md"))
	if err != nil {
		t.Fatal(err)
	}
	doc, err := os.ReadFile(filepath.Join("testdata", "docrefs", "doc.md"))
	if err != nil {
		t.Fatal(err)
	}
	ix := *loadRefIndex(t)
	ix.items = roadmapItems(string(roadmap))
	for _, tc := range []struct {
		proposals bool
		want      []string
	}{
		{false, []string{
			"doc.md:7: tensor.CountZeroClassez: not in package tensor",
			"doc.md:8: condvec.Sampler.rowsByCat: not in package condvec",
			"doc.md:9: LocalClient.SampleCVs: no such field or method",
			"doc.md:10: nosuch.Thing: names no module package or type",
			"doc.md:11: TestNoSuchThing: no such test, fuzzer or benchmark",
			"doc.md:12: nosuch.go: no such file",
			"doc.md:13: internal/obs: no such file or directory",
			"doc.md:14: gtv-serve: no such command under cmd/",
			"doc.md:15: -epochs: no command defines this flag",
			"doc.md:16: make nosuch: no such Makefile target",
			"doc.md:17: vfl.server.nosuch_ms: not a metric of BENCHMARK.json or a stats key of LINT_findings.json",
			"doc.md:18: shapeflow.ops_guessed: not a metric of BENCHMARK.json or a stats key of LINT_findings.json",
			"doc.md:19: ROADMAP 13: no such open item in ROADMAP.md",
			"doc.md:19: ROADMAP 1(z): no such open item in ROADMAP.md",
			"doc.md:21: server.go:579: cite the function, not a line",
			"doc.md:22: PR 7: history belongs in CHANGES.md",
			"doc.md:23: 12 ms: a measurement belongs in EXPERIMENTS.md or a BENCH_*.json",
			"doc.md:24: 3×: a measurement belongs in EXPERIMENTS.md or a BENCH_*.json",
			"doc.md:33: -wire-f32: gtv-client does not define this flag",
			"doc.md:34: -data-dir: defined by gtv-client, which the Where column does not list",
		}},
		{true, []string{
			"doc.md:12: nosuch.go: no such file",
			"doc.md:19: ROADMAP 13: no such open item in ROADMAP.md",
			"doc.md:19: ROADMAP 1(z): no such open item in ROADMAP.md",
			"doc.md:21: server.go:579: cite the function, not a line",
		}},
	} {
		var got []string
		for _, f := range checkDoc(&ix, "doc.md", string(doc), tc.proposals) {
			got = append(got, f.String())
		}
		if strings.Join(got, "\n") != strings.Join(tc.want, "\n") {
			t.Errorf("proposals=%v: findings\n%s\nwant\n%s", tc.proposals, strings.Join(got, "\n"), strings.Join(tc.want, "\n"))
		}
	}
}
