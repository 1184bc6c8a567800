package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"slices"
	"strings"
)

// Index answers, once per Run and for every rule on the pass, the five
// questions whole-module rules share: which bodied functions the module
// declares (Funcs), which named types (Named), which declaration a call
// statically reaches (Static), which methods an interface call can
// dispatch to (Impls), and which declaration a comment directive documents
// (Directives).
type Index struct {
	// Funcs lists every function and method declared with a body, in load
	// order: packages by import path, files by name, declarations by
	// position.
	Funcs []*Func
	// Named lists the non-alias named types of every package scope, packages
	// in load order and names sorted within each.
	Named []*types.Named

	byObj      map[*types.Func]*Func
	impls      map[*types.Func][]*Func
	directives []Directive
}

// Func is one bodied function or method declaration.
type Func struct {
	pkg  *Package
	decl *ast.FuncDecl
	obj  *types.Func
	// name is the display name used in findings and path hops
	// ("LocalClient.SampleCV", "condvec.sampleDiscrete").
	name string
}

// Directive is one "//word:rest" comment and the declaration whose doc or
// trailing comment holds it: a function (fn), or a struct field or
// interface method line (field, with iface telling which and owner the
// named type declaring it, nil for an anonymous one). A directive anywhere
// else has neither and is misplaced.
type Directive struct {
	pkg   *Package
	pos   token.Pos
	text  string
	fn    *ast.FuncDecl
	field *ast.Field
	iface bool
	owner *types.TypeName
}

var directiveRe = regexp.MustCompile(`^//[a-z]+:`)

func buildIndex(pkgs []*Package) *Index {
	ix := &Index{
		byObj: make(map[*types.Func]*Func),
		impls: make(map[*types.Func][]*Func),
	}
	for _, pkg := range pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() { // sorted
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				if named, ok := tn.Type().(*types.Named); ok {
					ix.Named = append(ix.Named, named)
				}
			}
		}
		for _, file := range pkg.Files {
			ix.indexFile(pkg, file)
		}
	}
	return ix
}

// indexFile records the file's bodied functions and directives, binding
// each directive in a doc or trailing comment to what it documents.
func (ix *Index) indexFile(pkg *Package, file *ast.File) {
	at := make(map[*ast.Comment]int) // directive comment -> its ix.directives slot
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if directiveRe.MatchString(c.Text) {
				at[c] = len(ix.directives)
				ix.directives = append(ix.directives, Directive{pkg: pkg, pos: c.Pos(), text: c.Text})
			}
		}
	}
	bind := func(d Directive, groups ...*ast.CommentGroup) {
		for _, cg := range groups {
			if cg == nil {
				continue
			}
			for _, c := range cg.List {
				if i, ok := at[c]; ok {
					d.pkg, d.pos, d.text = pkg, c.Pos(), c.Text
					ix.directives[i] = d
				}
			}
		}
	}
	owners := make(map[ast.Expr]*types.TypeName)
	ast.Inspect(file, func(n ast.Node) bool {
		switch d := n.(type) {
		case *ast.FuncDecl:
			bind(Directive{fn: d}, d.Doc)
			if obj, ok := pkg.Info.Defs[d.Name].(*types.Func); ok && d.Body != nil {
				f := &Func{pkg: pkg, decl: d, obj: obj, name: funcDisplayName(obj)}
				ix.Funcs = append(ix.Funcs, f)
				ix.byObj[obj] = f
			}
		case *ast.TypeSpec:
			owners[d.Type], _ = pkg.Info.Defs[d.Name].(*types.TypeName)
		case *ast.StructType:
			for _, field := range d.Fields.List {
				bind(Directive{field: field, owner: owners[d]}, field.Doc, field.Comment)
			}
		case *ast.InterfaceType:
			for _, m := range d.Methods.List {
				bind(Directive{field: m, iface: true, owner: owners[d]}, m.Doc, m.Comment)
			}
		}
		return true
	})
}

// Static resolves a call to the module declaration it reaches, or nil for
// calls through function values and interfaces, builtins, conversions and
// functions declared outside the loaded packages.
func (ix *Index) Static(info *types.Info, call *ast.CallExpr) *Func {
	fn, _ := calleeObject(info, call).(*types.Func)
	return ix.byObj[fn]
}

// Impls returns the module methods a call of interface method m can
// dispatch to, in Named order, each once: a method promoted into several
// named types is listed at the first of them.
func (ix *Index) Impls(m *types.Func) []*Func {
	if impls, ok := ix.impls[m]; ok {
		return impls
	}
	var out []*Func
	if ifc, ok := m.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface); ok {
		for _, named := range ix.Named {
			if types.IsInterface(named) {
				continue
			}
			if !types.Implements(named, ifc) && !types.Implements(types.NewPointer(named), ifc) {
				continue
			}
			obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(named), true, m.Pkg(), m.Name())
			if fn, ok := obj.(*types.Func); ok {
				if impl := ix.byObj[fn]; impl != nil && !slices.Contains(out, impl) {
					out = append(out, impl)
				}
			}
		}
	}
	ix.impls[m] = out
	return out
}

// Directives returns the comments starting with prefix ("//privacy:"), in
// load order, each with the text after the prefix.
func (ix *Index) Directives(prefix string) []Directive {
	var out []Directive
	for _, d := range ix.directives {
		if rest, ok := strings.CutPrefix(d.text, prefix); ok {
			d.text = rest
			out = append(out, d)
		}
	}
	return out
}

// isInterfaceMethod reports whether obj is declared on an interface.
func isInterfaceMethod(obj *types.Func) bool {
	sig, ok := obj.Type().(*types.Signature)
	return ok && sig.Recv() != nil && types.IsInterface(sig.Recv().Type())
}

// funcDisplayName renders "Recv.Method" or "pkg.Func" for findings.
func funcDisplayName(obj *types.Func) string {
	sig := obj.Type().(*types.Signature)
	if recv := sig.Recv(); recv != nil {
		t := recv.Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return named.Obj().Name() + "." + obj.Name()
		}
		return types.TypeString(t, func(*types.Package) string { return "" }) + "." + obj.Name()
	}
	return objDisplayName(obj)
}

// objDisplayName renders "pkg.Name" for a package-level object or field.
func objDisplayName(obj types.Object) string {
	if obj.Pkg() != nil {
		return obj.Pkg().Name() + "." + obj.Name()
	}
	return obj.Name()
}
