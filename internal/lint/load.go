package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// The loader turns a Go module on disk into type-checked Packages without
// golang.org/x/tools: packages inside the module are parsed and checked
// from source (so analyzers see their ASTs), while imports from outside
// the module resolve through the stdlib go/importer chain (compiled export
// data first, source as a fallback). This keeps gtv-lint inside the
// repo's stdlib-only rule.

// Package is one loaded, type-checked package: the unit every analyzer
// runs over.
type Package struct {
	// Path is the package's import path ("repro/internal/vfl"), or a
	// synthetic path for test fixtures ("tapelifetime").
	Path string
	// Name is the package name ("vfl", "main").
	Name string
	// Fset is the file set shared by every package of one Loader.
	Fset *token.FileSet
	// Files are the parsed non-test source files, sorted by file name.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info holds the type-checking results analyzers query.
	Info *types.Info
}

// Loader loads and type-checks module packages on demand.
type Loader struct {
	// ModuleRoot is the absolute directory containing go.mod.
	ModuleRoot string
	// ModulePath is the module path declared in go.mod.
	ModulePath string
	// Fset positions every file loaded by this Loader.
	Fset *token.FileSet

	gcImp   types.Importer
	srcOnce sync.Once
	srcImp  types.Importer

	pkgs    map[string]*Package // by import path
	loading map[string]bool     // import-cycle guard
}

// NewLoader returns a Loader rooted at the module containing dir (dir
// itself or the nearest parent with a go.mod).
func NewLoader(dir string) (*Loader, error) {
	root, err := FindModuleRoot(dir)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		ModuleRoot: root,
		ModulePath: modPath,
		Fset:       fset,
		gcImp:      importer.Default(),
		pkgs:       make(map[string]*Package),
		loading:    make(map[string]bool),
	}, nil
}

// FindModuleRoot walks up from dir to the nearest directory containing a
// go.mod file.
func FindModuleRoot(dir string) (string, error) {
	d, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		d = parent
	}
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}

// hostBuild is the build context whose file set gtv-lint analyzes: the
// machine it runs on, whatever GOOS/GOARCH say in the environment (the sizes
// the type checker uses are the host's too). A package split into
// kernels_amd64.go and a `//go:build !amd64` twin is one package with one
// of the two files, exactly as the compiler sees it.
var hostBuild = func() build.Context {
	ctx := build.Default
	ctx.GOOS, ctx.GOARCH = runtime.GOOS, runtime.GOARCH
	return ctx
}()

// isSourceFile reports whether dir/name is a Go file the analyzers look at:
// not a test, and selected by its name suffix and build constraints for the
// host.
func isSourceFile(dir, name string) (bool, error) {
	if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
		return false, nil
	}
	return hostBuild.MatchFile(dir, name)
}

// sourceFiles returns the names of dir's source files (see isSourceFile),
// sorted.
func sourceFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		ok, err := isSourceFile(dir, e.Name())
		if err != nil {
			return nil, err
		}
		if ok {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// moduleDirs returns every directory under root holding source files,
// skipping hidden, underscore, testdata, and vendor trees.
func moduleDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			return nil
		}
		dir := filepath.Dir(path)
		if len(dirs) > 0 && dirs[len(dirs)-1] == dir {
			return nil
		}
		ok, err := isSourceFile(dir, d.Name())
		if err != nil {
			return err
		}
		if ok {
			dirs = append(dirs, dir)
		}
		return nil
	})
	return dirs, err
}

// LoadModule loads every package of the module (non-test files only),
// sorted by import path.
func (l *Loader) LoadModule() ([]*Package, error) {
	dirs, err := moduleDirs(l.ModuleRoot)
	if err != nil {
		return nil, err
	}
	var out []*Package
	for _, dir := range dirs {
		rel, err := filepath.Rel(l.ModuleRoot, dir)
		if err != nil {
			return nil, err
		}
		ip := l.ModulePath
		if rel != "." {
			ip = l.ModulePath + "/" + filepath.ToSlash(rel)
		}
		pkg, err := l.LoadDir(dir, ip)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// LoadDir parses and type-checks the non-test files of one directory under
// the given import path. Results are cached by import path.
func (l *Loader) LoadDir(dir, importPath string) (*Package, error) {
	if p, ok := l.pkgs[importPath]; ok {
		return p, nil
	}
	if l.loading[importPath] {
		return nil, fmt.Errorf("lint: import cycle through %s", importPath)
	}
	l.loading[importPath] = true
	defer delete(l.loading, importPath)

	names, err := sourceFiles(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{
		Importer: importerFunc(l.importPkg),
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
	}
	tpkg, err := conf.Check(importPath, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", importPath, err)
	}
	p := &Package{
		Path:  importPath,
		Name:  tpkg.Name(),
		Fset:  l.Fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}
	l.pkgs[importPath] = p
	return p, nil
}

// importPkg is the types.Importer callback: module-internal paths load
// from source through the Loader; everything else goes to the stdlib
// importer chain.
func (l *Loader) importPkg(path string) (*types.Package, error) {
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/")
		dir := filepath.Join(l.ModuleRoot, filepath.FromSlash(rel))
		p, err := l.LoadDir(dir, path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	tp, err := l.gcImp.Import(path)
	if err == nil {
		return tp, nil
	}
	// Compiled export data is unavailable (cold build cache, unusual
	// toolchain layout): fall back to type-checking the dependency from
	// source. Slower, but self-contained.
	l.srcOnce.Do(func() { l.srcImp = importer.ForCompiler(l.Fset, "source", nil) })
	return l.srcImp.Import(path)
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
