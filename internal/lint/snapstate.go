package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// AnalyzerSnapState enforces checkpoint exhaustiveness: every named field
// of a struct marked //snap:state must be serialized in both directions —
// read somewhere in encode context (a function whose signature mentions
// snap.Enc or snap.Builder) and written somewhere in decode context (a
// function whose signature mentions snap.Dec or snap.Snapshot) — or carry
// an explicit //snap:skip <reason> annotation. Adding a field to a
// snapshotted state struct without wiring it through the codec is exactly
// the mistake that silently breaks byte-identical resume: the run still
// trains, just not on the trajectory the checkpoint promised. The check is
// module-wide because the codec helpers for a struct may live in another
// package (nn.AdamState is encoded by nn but embedded in gan and vfl
// snapshots).
var AnalyzerSnapState = &Analyzer{
	Name: "snapstate",
	Doc:  "every field of a //snap:state struct must be encoded and decoded, or annotated //snap:skip <reason>",
	Run:  runSnapState,
}

// snapField tracks one field of a //snap:state struct across the scan.
type snapField struct {
	obj        types.Object // the field's *types.Var, shared module-wide
	structName string
	pos        token.Pos
	enc, dec   bool
}

// snapCtx says which serialization contexts an enclosing function chain
// provides.
type snapCtx struct{ enc, dec bool }

func runSnapState(p *Pass) {
	fields, byObj := collectSnapStateFields(p)
	if len(fields) == 0 {
		return
	}

	// ftypes caches the context classification per function signature.
	ftypes := make(map[*ast.FuncType]snapCtx)
	for _, pkg := range p.Pkgs {
		for _, file := range pkg.Files {
			walkStack(file, func(stack []ast.Node) bool {
				ctx := stackCtx(pkg.Info, stack, ftypes)
				if !ctx.enc && !ctx.dec {
					return true
				}
				switch n := stack[len(stack)-1].(type) {
				case *ast.SelectorExpr:
					sel := pkg.Info.Selections[n]
					if sel == nil || sel.Kind() != types.FieldVal {
						return true
					}
					markField(byObj, sel.Obj(), ctx)
				case *ast.CompositeLit:
					// Decode paths may rebuild a state struct wholesale:
					// T{field: d.I64()} touches the field through the literal
					// key rather than a selector.
					for _, elt := range n.Elts {
						kv, ok := elt.(*ast.KeyValueExpr)
						if !ok {
							continue
						}
						if key, ok := kv.Key.(*ast.Ident); ok {
							markField(byObj, pkg.Info.Uses[key], ctx)
						}
					}
				}
				return true
			})
		}
	}

	for _, f := range fields {
		switch {
		case !f.enc && !f.dec:
			p.Report(f.pos, "field "+f.obj.Name()+" of snap:state struct "+f.structName+
				" is never serialized; encode and decode it, or annotate //snap:skip <reason>", nil)
		case !f.enc:
			p.Report(f.pos, "field "+f.obj.Name()+" of snap:state struct "+f.structName+
				" is decoded but never encoded", nil)
		case !f.dec:
			p.Report(f.pos, "field "+f.obj.Name()+" of snap:state struct "+f.structName+
				" is encoded but never decoded", nil)
		}
	}
}

// markField flips the context bits of a tracked field, if obj is one.
func markField(byObj map[types.Object]*snapField, obj types.Object, ctx snapCtx) {
	f, ok := byObj[obj]
	if !ok {
		return
	}
	f.enc = f.enc || ctx.enc
	f.dec = f.dec || ctx.dec
}

// stackCtx folds the serialization contexts of every enclosing FuncDecl
// and FuncLit: code inside a closure passed to Builder.Section inherits the
// surrounding encode function's context.
func stackCtx(info *types.Info, stack []ast.Node, cache map[*ast.FuncType]snapCtx) snapCtx {
	var ctx snapCtx
	for _, n := range stack {
		var ft *ast.FuncType
		switch fn := n.(type) {
		case *ast.FuncDecl:
			ft = fn.Type
		case *ast.FuncLit:
			ft = fn.Type
		default:
			continue
		}
		c, ok := cache[ft]
		if !ok {
			c = funcTypeCtx(info, ft)
			cache[ft] = c
		}
		ctx.enc = ctx.enc || c.enc
		ctx.dec = ctx.dec || c.dec
	}
	return ctx
}

// funcTypeCtx classifies one function signature by the snap-package types
// it mentions: Enc/Builder mark encode context, Dec/Snapshot decode
// context.
func funcTypeCtx(info *types.Info, ft *ast.FuncType) snapCtx {
	var ctx snapCtx
	ast.Inspect(ft, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		tn, ok := info.Uses[id].(*types.TypeName)
		if !ok || !pkgPathSuffix(tn, "internal/snap") {
			return true
		}
		switch tn.Name() {
		case "Enc", "Builder":
			ctx.enc = true
		case "Dec", "Snapshot":
			ctx.dec = true
		}
		return true
	})
	return ctx
}

// collectSnapStateFields finds every named field of every //snap:state
// struct in the module, honoring //snap:skip annotations. Fields are
// returned in declaration order (reporting must not depend on map
// iteration), with a lookup map keyed by the shared field objects.
func collectSnapStateFields(p *Pass) ([]*snapField, map[types.Object]*snapField) {
	var fields []*snapField
	byObj := make(map[types.Object]*snapField)
	skips := make(map[*ast.Field]Directive) // a field's first //snap:skip
	for _, d := range p.Index.Directives("//snap:skip") {
		if _, dup := skips[d.field]; d.field != nil && !dup {
			skips[d.field] = d
		}
	}
	for _, pkg := range p.Pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.TYPE {
					continue
				}
				for _, spec := range gd.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok || (!hasDirective(gd.Doc, "//snap:state") && !hasDirective(ts.Doc, "//snap:state")) {
						continue
					}
					for _, field := range st.Fields.List {
						if skip, ok := skips[field]; ok {
							if strings.TrimSpace(skip.text) == "" {
								p.Report(skip.pos, "//snap:skip needs a reason: what keeps this field off the snapshot?", nil)
							}
							continue
						}
						for _, name := range field.Names {
							obj := pkg.Info.Defs[name]
							if obj == nil {
								continue
							}
							f := &snapField{obj: obj, structName: ts.Name.Name, pos: name.Pos()}
							fields = append(fields, f)
							byObj[obj] = f
						}
					}
				}
			}
		}
	}
	return fields, byObj
}

// hasDirective reports whether a comment group contains the exact
// directive comment. Directive-style comments ("//tool:verb") are stripped
// by CommentGroup.Text, so the raw list is scanned.
func hasDirective(cg *ast.CommentGroup, directive string) bool {
	if cg == nil {
		return false
	}
	for _, c := range cg.List {
		if c.Text == directive || strings.HasPrefix(c.Text, directive+" ") {
			return true
		}
	}
	return false
}
