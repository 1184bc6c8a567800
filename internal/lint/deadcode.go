package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// AnalyzerDeadCode reports every bodied function no binary can run (DESIGN.md
// "Reachability"). Roots: each package main's main, every init, every
// package-level var initialiser, and every method with the name and
// signature of a method of an interface declared outside the load (error,
// fmt.Stringer, io.Reader, ...). Edges: every use of a module function in a
// reached body; an interface method reaches all its Index.Impls. A function
// kept on purpose carries //lint:ignore deadcode <reason> and is a root
// itself, so its callees need no comment. A load without a main reports
// nothing; packages named *test are test support, never reported.
var AnalyzerDeadCode = &Analyzer{
	Name: "deadcode",
	Doc:  "every bodied function must be reachable from a main, an init, a package-level var or an external interface",
	Run:  runDeadCode,
}

func runDeadCode(p *Pass) {
	ix := p.Index
	ext := externalMethods(p.Pkgs)
	var roots, kept []*Func
	hasMain := false
	for _, f := range ix.Funcs {
		method, name := f.decl.Recv != nil, f.decl.Name.Name
		// A method is called from outside the module when its signature
		// (receivers aside) is one an external interface gives its name.
		external := method && slices.ContainsFunc(ext[name], func(sig types.Type) bool {
			return types.Identical(f.obj.Type(), sig)
		})
		switch {
		case !method && name == "main" && f.pkg.Name == "main":
			hasMain = true
			roots = append(roots, f)
		case !method && name == "init", external:
			roots = append(roots, f)
		}
	}
	if !hasMain {
		return
	}
	for _, pkg := range p.Pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				if gd, ok := decl.(*ast.GenDecl); ok && gd.Tok == token.VAR {
					roots = append(roots, ix.uses(pkg.Info, gd)...)
				}
			}
		}
	}
	for _, d := range ix.Directives("//lint:ignore deadcode ") {
		if d.fn != nil {
			obj, _ := d.pkg.Info.Defs[d.fn.Name].(*types.Func)
			if f := ix.byObj[obj]; f != nil {
				kept = append(kept, f)
			}
		}
	}

	edges := make(map[*Func][]*Func)
	reach := func(seeds []*Func) map[*Func]bool {
		seen := make(map[*Func]bool)
		for work := append([]*Func(nil), seeds...); len(work) > 0; {
			f := work[len(work)-1]
			work = work[:len(work)-1]
			if seen[f] {
				continue
			}
			seen[f] = true
			if _, ok := edges[f]; !ok {
				edges[f] = ix.uses(f.pkg.Info, f.decl.Body)
			}
			work = append(work, edges[f]...)
		}
		return seen
	}
	report := func(f *Func) {
		p.Reportf(f.decl.Pos(), "%s is reachable from no main, init, package-level var or external interface; delete it or //lint:ignore deadcode <why it stays>", f.name)
	}
	live := reach(append(roots, kept...))
	for _, f := range ix.Funcs {
		if !live[f] && !strings.HasSuffix(f.pkg.Name, "test") {
			report(f)
		}
	}
	// A kept function is reported (so its suppression counts as used) only
	// if neither a real root nor another kept function reaches it.
	for i, f := range kept {
		if !reach(append(append(roots[:len(roots):len(roots)], kept[:i]...), kept[i+1:]...))[f] {
			report(f)
		}
	}
}

// uses returns the module functions the identifiers under n name, a generic
// instance resolved to its declaration and an interface method to every
// implementation of it.
func (ix *Index) uses(info *types.Info, n ast.Node) []*Func {
	var out []*Func
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if fn, ok := info.Uses[id].(*types.Func); ok {
				if fn = fn.Origin(); isInterfaceMethod(fn) {
					out = append(out, ix.Impls(fn)...)
				} else if f := ix.byObj[fn]; f != nil {
					out = append(out, f)
				}
			}
		}
		return true
	})
	return out
}

// externalMethods maps a method name to its signatures in the universe's
// error and in every interface of a package the load imports, directly or
// not.
func externalMethods(pkgs []*Package) map[string][]types.Type {
	ext := make(map[string][]types.Type)
	add := func(t types.Type) {
		if ifc, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < ifc.NumMethods(); i++ {
				m := ifc.Method(i)
				ext[m.Name()] = append(ext[m.Name()], m.Type())
			}
		}
	}
	add(errorType)
	seen := make(map[*types.Package]bool)
	var work []*types.Package
	for _, pkg := range pkgs {
		seen[pkg.Types] = true
		work = append(work, pkg.Types)
	}
	for ; len(work) > 0; work = work[1:] {
		for _, imp := range work[0].Imports() {
			if !seen[imp] {
				seen[imp] = true
				work = append(work, imp)
				for _, name := range imp.Scope().Names() {
					if tn, ok := imp.Scope().Lookup(name).(*types.TypeName); ok {
						add(tn.Type())
					}
				}
			}
		}
	}
	return ext
}
