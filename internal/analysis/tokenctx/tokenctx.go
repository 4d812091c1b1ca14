// Package tokenctx statically enforces the cooperative single-token
// scheduling discipline (DESIGN.md §7).
//
// The simulator's hottest shared state — the tracer's event arenas, the
// scheduler's runnable heap, per-proc cursors — is deliberately mutex-free:
// its safety argument is that exactly one proc (or Scheduler.Run, between
// dispatches) holds the scheduler's control token at any instant, and the
// coroutine switches that pass it provide the happens-before edges. That
// argument only holds for code that actually runs in proc context. This
// analyzer checks it statically:
//
//   - state is marked //simlint:tokenguarded on the struct field or package
//     var declaration;
//   - the "proc world" P is everything reachable from the function bodies
//     registered via (*sim.Scheduler).Spawn and (*sim.Clock).OnStall
//     (recovered structurally by the call graph);
//   - the "outside world" N is everything reachable from non-proc entry
//     points: every function of a main package and every exported in-module
//     declaration, minus the proc bodies themselves;
//   - a function that touches token-guarded state and is reachable from N
//     is flagged, unless it (or an entry point dominating it) carries a
//     //simlint:tokensafe(reason) justification — the N-walk stops at
//     tokensafe functions, so a justified public entry point covers its
//     internals.
//
// Typical justifications: a collector documented to run only after
// Scheduler.Run returns; a recorder whose MPL=1 caller is the main
// goroutine acting as the degenerate token holder. Reasons are mandatory.
package tokenctx

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"repro/internal/analysis"
	"repro/internal/analysis/callgraph"
)

// Analyzer is the global tokenctx analyzer.
var Analyzer = &callgraph.Analyzer{
	Name: "tokenctx",
	Doc:  "flag non-proc-context access to //simlint:tokenguarded state",
	Run:  run,
}

func run(prog *callgraph.Program) []analysis.Diagnostic {
	c := &checker{
		prog:       prog,
		lineAnnots: map[*ast.File]map[int]analysis.Annotation{},
	}
	c.collectGuarded()
	if len(c.guarded) == 0 {
		return nil
	}

	// tokensafe functions: decl-level doc annotations, plus line-level
	// annotations on a func literal's opening line (or the line above).
	safe := map[*callgraph.Func]bool{}
	for _, f := range prog.FuncsSorted() {
		var a analysis.Annotation
		var ok bool
		if f.Decl != nil {
			a, ok = analysis.DocAnnotation(f.Decl.Doc, analysis.AnnotTokensafe)
		} else if f.Lit != nil {
			a, ok = c.lineAnnot(f.File, f.Lit.Pos(), analysis.AnnotTokensafe)
		}
		if ok {
			safe[f] = true
			c.requireReason(a, "tokensafe")
		}
	}

	// P: the proc world.
	var procRoots []*callgraph.Func
	for _, f := range prog.FuncsSorted() {
		if f.TokenEntry {
			procRoots = append(procRoots, f)
		}
	}
	procReach := prog.Reach(procRoots, callgraph.WalkOpts{Contains: true})

	// N: the outside world, pruned at tokensafe justifications.
	var outRoots []*callgraph.Func
	for _, f := range prog.FuncsSorted() {
		if f.Decl == nil || f.TokenEntry {
			continue
		}
		if f.Pkg.Types.Name() == "main" || f.Exported() {
			outRoots = append(outRoots, f)
		}
	}
	outReach := prog.Reach(outRoots, callgraph.WalkOpts{
		Contains: true,
		// Token entries are pruned too: an exported function that spawns a
		// proc contains its body literal, but that body runs in proc context
		// by construction and must not be dragged into the outside world.
		Prune: func(f *callgraph.Func) bool { return safe[f] || f.TokenEntry },
	})

	for _, f := range prog.FuncsSorted() {
		if safe[f] || f.TokenEntry {
			continue
		}
		if _, out := outReach[f]; !out {
			continue
		}
		for _, t := range c.touches(f) {
			msg := "touches token-guarded " + t.what +
				" outside proc context (" + callgraph.Witness(outReach, f) + ")"
			if _, p := procReach[f]; p {
				msg = "touches token-guarded " + t.what +
					" from both proc context and non-proc entry points (" +
					callgraph.Witness(outReach, f) + ")"
			}
			c.diags = append(c.diags, analysis.Diagnostic{Pos: t.pos, Message: msg})
		}
	}
	return c.diags
}

type checker struct {
	prog       *callgraph.Program
	diags      []analysis.Diagnostic
	guarded    map[string]bool // "pkgpath.Type.field" or "pkgpath.var"
	lineAnnots map[*ast.File]map[int]analysis.Annotation
	reasonSeen map[token.Pos]bool
}

// collectGuarded finds //simlint:tokenguarded struct fields and package
// vars across the module and records their canonical IDs.
func (c *checker) collectGuarded() {
	c.guarded = map[string]bool{}
	for _, pkg := range c.prog.Pkgs {
		path := pkg.Types.Path()
		for _, file := range pkg.Syntax {
			for _, decl := range file.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok {
					continue
				}
				for _, spec := range gd.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						st, ok := s.Type.(*ast.StructType)
						if !ok {
							continue
						}
						for _, field := range st.Fields.List {
							if !c.fieldGuarded(file, field) {
								continue
							}
							for _, name := range field.Names {
								c.guarded[path+"."+s.Name.Name+"."+name.Name] = true
							}
						}
					case *ast.ValueSpec:
						if !c.specGuarded(file, gd, s) {
							continue
						}
						for _, name := range s.Names {
							c.guarded[path+"."+name.Name] = true
						}
					}
				}
			}
		}
	}
}

// fieldGuarded reports whether a struct field carries //simlint:tokenguarded
// in its doc comment, trailing comment, or on the line above.
func (c *checker) fieldGuarded(file *ast.File, field *ast.Field) bool {
	if _, ok := analysis.DocAnnotation(field.Doc, analysis.AnnotTokenguarded); ok {
		return true
	}
	if _, ok := analysis.DocAnnotation(field.Comment, analysis.AnnotTokenguarded); ok {
		return true
	}
	_, ok := c.lineAnnot(file, field.Pos(), analysis.AnnotTokenguarded)
	return ok
}

// specGuarded is fieldGuarded for package-level var specs.
func (c *checker) specGuarded(file *ast.File, gd *ast.GenDecl, s *ast.ValueSpec) bool {
	if _, ok := analysis.DocAnnotation(s.Doc, analysis.AnnotTokenguarded); ok {
		return true
	}
	if _, ok := analysis.DocAnnotation(s.Comment, analysis.AnnotTokenguarded); ok {
		return true
	}
	if len(gd.Specs) == 1 {
		if _, ok := analysis.DocAnnotation(gd.Doc, analysis.AnnotTokenguarded); ok {
			return true
		}
	}
	_, ok := c.lineAnnot(file, s.Pos(), analysis.AnnotTokenguarded)
	return ok
}

// lineAnnot returns an annotation of the given kind on pos's line or the
// line above.
func (c *checker) lineAnnot(file *ast.File, pos token.Pos, kind string) (analysis.Annotation, bool) {
	m, ok := c.lineAnnots[file]
	if !ok {
		m = analysis.AnnotationsByLine(c.prog.Fset, file,
			analysis.AnnotTokenguarded, analysis.AnnotTokensafe)
		c.lineAnnots[file] = m
	}
	line := c.prog.Fset.Position(pos).Line
	if a, ok := m[line]; ok && a.Kind == kind {
		return a, true
	}
	if a, ok := m[line-1]; ok && a.Kind == kind {
		return a, true
	}
	return analysis.Annotation{}, false
}

func (c *checker) requireReason(a analysis.Annotation, kind string) {
	if a.Reason != "" {
		return
	}
	if c.reasonSeen == nil {
		c.reasonSeen = map[token.Pos]bool{}
	}
	if c.reasonSeen[a.Pos] {
		return
	}
	c.reasonSeen[a.Pos] = true
	c.diags = append(c.diags, analysis.Diagnostic{
		Pos:     a.Pos,
		Message: "simlint:" + kind + " suppression requires a (reason)",
	})
}

// touch is one access to guarded state inside a function body.
type touch struct {
	pos  token.Pos
	what string
}

// touches returns the guarded-state accesses in f's own body (nested
// literals are their own nodes).
func (c *checker) touches(f *callgraph.Func) []touch {
	info := f.Pkg.TypesInfo
	var out []touch
	seen := map[string]bool{}
	add := func(pos token.Pos, what string) {
		key := what // one report per distinct state item per function
		if seen[key] {
			return
		}
		seen[key] = true
		out = append(out, touch{pos: pos, what: what})
	}
	ast.Inspect(f.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if n != f.Lit {
				return false
			}
		case *ast.SelectorExpr:
			sel, ok := info.Selections[n]
			if !ok || sel.Kind() != types.FieldVal {
				return true
			}
			v, ok := sel.Obj().(*types.Var)
			if !ok || v.Pkg() == nil {
				return true
			}
			recv := sel.Recv()
			if ptr, ok := recv.(*types.Pointer); ok {
				recv = ptr.Elem()
			}
			named, ok := recv.(*types.Named)
			if !ok {
				return true
			}
			id := v.Pkg().Path() + "." + named.Obj().Name() + "." + v.Name()
			if c.guarded[id] {
				add(n.Sel.Pos(), "field "+named.Obj().Name()+"."+v.Name())
			}
		case *ast.Ident:
			v, ok := info.Uses[n].(*types.Var)
			if !ok || v.Pkg() == nil || !isPackageLevel(v) {
				return true
			}
			if c.guarded[v.Pkg().Path()+"."+v.Name()] {
				add(n.Pos(), "package var "+v.Name())
			}
		}
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].pos < out[j].pos })
	return out
}

// isPackageLevel reports whether v is declared at package scope.
func isPackageLevel(v *types.Var) bool {
	return v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}
