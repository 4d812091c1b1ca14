// Package callgraph builds a whole-module static call graph over the
// packages loaded by internal/analysis — the shared fact layer the
// reachability-based simlint analyzer noalloc runs on top of.
//
// Resolution is CHA-style (class hierarchy analysis) on the standard library
// only:
//
//   - direct calls (pkg.F, local f, method expressions spelled through an
//     identifier) resolve to the called *types.Func;
//   - method calls on concrete receivers resolve through go/types selections
//     to the declared method, including promoted methods of embedded fields;
//   - method calls on interface receivers resolve to every in-module named
//     type whose method set implements the interface (the class hierarchy),
//     via an explicit worklist of pending dispatch sites drained after all
//     bodies have been scanned — sound for in-module flows, deliberately
//     silent about out-of-module implementers;
//   - function literals are their own nodes, linked to the enclosing
//     function by a "contains" edge (a literal defined on a path is assumed
//     to run on that path), and calls of a literal value at its definition
//     site resolve directly.
//
// Calls through plain function-typed values (fields, parameters, locals) are
// not resolved; the analyzers treat them as leaves.
//
// Identity is canonical across packages: a *types.Func seen through gc
// export data (an import) and the same function seen in its source package
// map to the same node, keyed "pkgpath.Recv.Name".
package callgraph

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/analysis"
)

// A Func is one call-graph node: a declared function/method or a function
// literal with its body available in a loaded package.
type Func struct {
	// ID is the canonical identity: "pkgpath.Name", "pkgpath.Recv.Name" for
	// methods, or "parentID$litN" for function literals.
	ID string
	// Name is the human-readable form used in diagnostics, e.g.
	// "(*wal.Manager).Force" or "func literal in (*sim.Scheduler).Run".
	Name string
	Pkg  *analysis.Package
	File *ast.File
	Decl *ast.FuncDecl // nil for literals
	Lit  *ast.FuncLit  // nil for declarations
	Body *ast.BlockStmt

	// Calls are the resolved outgoing call edges, in source order.
	Calls []Edge
	// Contains are the function literals defined directly inside this
	// function (not inside a deeper literal).
	Contains []*Func
}

// An Edge is one resolved call site.
type Edge struct {
	Pos token.Pos
	// Callee is the in-module target, nil for out-of-module calls.
	Callee *Func
	// External is the out-of-module (standard library) target, nil when
	// Callee is set.
	External *types.Func
}

// A Program is the loaded module with its call graph: the fact layer global
// analyzers consume.
type Program struct {
	Fset  *token.FileSet
	Pkgs  []*analysis.Package
	Funcs map[string]*Func
}

// FuncsSorted returns the nodes in deterministic ID order.
func (p *Program) FuncsSorted() []*Func {
	out := make([]*Func, 0, len(p.Funcs))
	for _, f := range p.Funcs {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// An Analyzer is a whole-program check over the call graph, the global
// counterpart of analysis.Analyzer.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Program) []analysis.Diagnostic
}

// FuncID returns the canonical node ID for a function object, matching the
// IDs Build assigns to declarations.
func FuncID(fn *types.Func) string {
	if fn.Pkg() == nil {
		return fn.Name()
	}
	id := fn.Pkg().Path() + "."
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			id += named.Obj().Name() + "."
		}
	}
	return id + fn.Name()
}

// ifaceSite is one pending interface-dispatch call site on the resolution
// worklist.
type ifaceSite struct {
	from   *Func
	pos    token.Pos
	iface  *types.Interface
	ifaceS string // types.TypeString key for memoization
	method string
}

// builder carries Build's intermediate state.
type builder struct {
	prog  *Program
	named []*types.Named // in-module named (non-interface) types
	sites []ifaceSite    // interface dispatch worklist
	memo  map[string][]string
}

// Build constructs the call graph over the loaded packages.
func Build(pkgs []*analysis.Package) *Program {
	prog := &Program{Funcs: map[string]*Func{}, Pkgs: pkgs}
	if len(pkgs) > 0 {
		prog.Fset = pkgs[0].Fset
	}
	b := &builder{prog: prog, memo: map[string][]string{}}

	// Pass 1: index declarations and the in-module class hierarchy.
	for _, pkg := range pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				if named, ok := tn.Type().(*types.Named); ok {
					if _, isIface := named.Underlying().(*types.Interface); !isIface {
						b.named = append(b.named, named)
					}
				}
			}
		}
		for _, file := range pkg.Syntax {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.TypesInfo.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				f := &Func{
					ID:   FuncID(obj),
					Name: displayName(obj),
					Pkg:  pkg, File: file, Decl: fd, Body: fd.Body,
				}
				prog.Funcs[f.ID] = f
			}
		}
	}

	// Pass 2: scan bodies — direct edges, literal nodes, dispatch worklist.
	for _, pkg := range pkgs {
		for _, file := range pkg.Syntax {
			for _, decl := range file.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
					if obj, ok := pkg.TypesInfo.Defs[fd.Name].(*types.Func); ok {
						b.scanBody(prog.Funcs[FuncID(obj)])
					}
				}
			}
		}
	}

	// Drain the interface-dispatch worklist against the class hierarchy.
	for len(b.sites) > 0 {
		site := b.sites[0]
		b.sites = b.sites[1:]
		for _, id := range b.implementers(site) {
			if callee := prog.Funcs[id]; callee != nil {
				site.from.Calls = append(site.from.Calls,
					Edge{Pos: site.pos, Callee: callee})
			}
		}
	}
	return prog
}

// displayName renders a function object for diagnostics: pkg.F or
// (*pkg.T).M.
func displayName(fn *types.Func) string {
	pkg := fn.Pkg().Name()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		star := ""
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
			star = "*"
		}
		if named, ok := t.(*types.Named); ok {
			if star != "" {
				return fmt.Sprintf("(*%s.%s).%s", pkg, named.Obj().Name(), fn.Name())
			}
			return fmt.Sprintf("%s.%s.%s", pkg, named.Obj().Name(), fn.Name())
		}
	}
	return pkg + "." + fn.Name()
}

// scanBody walks one function's body, collecting call edges and creating
// nodes for directly contained function literals (which are then scanned
// recursively as their own nodes).
func (b *builder) scanBody(f *Func) {
	if f == nil || f.Body == nil {
		return
	}
	b.walk(f, f.Body)
}

// walk descends n attributing calls to cur, detouring into a fresh node at
// each function literal.
func (b *builder) walk(cur *Func, n ast.Node) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			lit := b.litNode(cur, n)
			b.walk(lit, n.Body)
			return false // the literal's body belongs to its own node
		case *ast.CallExpr:
			b.call(cur, n)
		}
		return true
	})
}

// litNode creates (or returns) the node for a literal defined directly in
// cur.
func (b *builder) litNode(cur *Func, lit *ast.FuncLit) *Func {
	for _, c := range cur.Contains {
		if c.Lit == lit {
			return c
		}
	}
	f := &Func{
		ID:   fmt.Sprintf("%s$lit%d", cur.ID, len(cur.Contains)),
		Name: "func literal in " + cur.Name,
		Pkg:  cur.Pkg, File: cur.File, Lit: lit, Body: lit.Body,
	}
	cur.Contains = append(cur.Contains, f)
	b.prog.Funcs[f.ID] = f
	return f
}

// call resolves one call expression from cur.
func (b *builder) call(cur *Func, call *ast.CallExpr) {
	info := cur.Pkg.TypesInfo
	fun := ast.Unparen(call.Fun)
	// Generic instantiation syntax wraps the real callee; unwrap it. A map or
	// slice index (m[k]()) unwraps to a *types.Var and resolves to nothing
	// below, so unconditional unwrapping is safe.
	switch idx := fun.(type) {
	case *ast.IndexExpr:
		fun = ast.Unparen(idx.X)
	case *ast.IndexListExpr:
		fun = ast.Unparen(idx.X)
	}

	switch fn := fun.(type) {
	case *ast.FuncLit:
		lit := b.litNode(cur, fn)
		cur.Calls = append(cur.Calls, Edge{Pos: call.Lparen, Callee: lit})
	case *ast.Ident:
		if obj, ok := info.Uses[fn].(*types.Func); ok {
			b.direct(cur, call, obj)
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fn]; ok && sel.Kind() == types.MethodVal {
			recv := sel.Recv()
			if iface, ok := recv.Underlying().(*types.Interface); ok {
				b.sites = append(b.sites, ifaceSite{
					from: cur, pos: call.Lparen,
					iface: iface, ifaceS: types.TypeString(iface, nil),
					method: sel.Obj().Name(),
				})
				return
			}
			if obj, ok := sel.Obj().(*types.Func); ok {
				b.direct(cur, call, obj)
			}
			return
		}
		// Package-qualified call or method expression.
		if obj, ok := info.Uses[fn.Sel].(*types.Func); ok {
			b.direct(cur, call, obj)
		}
	}
}

// direct records a statically resolved edge.
func (b *builder) direct(cur *Func, call *ast.CallExpr, obj *types.Func) {
	if callee := b.prog.Funcs[FuncID(obj)]; callee != nil {
		cur.Calls = append(cur.Calls, Edge{Pos: call.Lparen, Callee: callee})
	} else {
		cur.Calls = append(cur.Calls, Edge{Pos: call.Lparen, External: obj})
	}
}

// implementers resolves one dispatch site to the node IDs of every in-module
// method implementing it, memoized per (interface, method).
func (b *builder) implementers(site ifaceSite) []string {
	key := site.ifaceS + "." + site.method
	if ids, ok := b.memo[key]; ok {
		return ids
	}
	var ids []string
	for _, named := range b.named {
		ptr := types.NewPointer(named)
		if !types.Implements(named, site.iface) && !types.Implements(ptr, site.iface) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(ptr, true, named.Obj().Pkg(), site.method)
		if fn, ok := obj.(*types.Func); ok {
			ids = append(ids, FuncID(fn))
		}
	}
	sort.Strings(ids)
	b.memo[key] = ids
	return ids
}

// WalkOpts configures a reachability computation.
type WalkOpts struct {
	// Contains follows enclosing-function → literal edges (a literal defined
	// on a reachable path is assumed to run on it).
	Contains bool
	// Prune, when non-nil and true for a node, keeps the node itself
	// reachable but does not expand its outgoing edges.
	Prune func(*Func) bool
	// PruneEdge, when non-nil and true for an edge, skips that edge.
	PruneEdge func(from *Func, e Edge) bool
}

// Reach computes the in-module set reachable from roots with an explicit
// worklist, returning for each reached node its predecessor (roots map to
// nil) so analyzers can render a witness path.
func (p *Program) Reach(roots []*Func, o WalkOpts) map[*Func]*Func {
	parent := map[*Func]*Func{}
	var work []*Func
	for _, r := range roots {
		if r == nil {
			continue
		}
		if _, ok := parent[r]; !ok {
			parent[r] = nil
			work = append(work, r)
		}
	}
	push := func(from, to *Func) {
		if to == nil {
			return
		}
		if _, ok := parent[to]; ok {
			return
		}
		parent[to] = from
		work = append(work, to)
	}
	for len(work) > 0 {
		f := work[0]
		work = work[1:]
		if o.Prune != nil && o.Prune(f) {
			continue
		}
		for _, e := range f.Calls {
			if o.PruneEdge != nil && o.PruneEdge(f, e) {
				continue
			}
			push(f, e.Callee)
		}
		if o.Contains {
			for _, c := range f.Contains {
				push(f, c)
			}
		}
	}
	return parent
}

// Witness renders a short root-to-node path from a Reach parent map, e.g.
// "(*wal.Manager).AppendCommit → (*wal.Manager).append".
func Witness(parent map[*Func]*Func, f *Func) string {
	var chain []string
	for n := f; n != nil; n = parent[n] {
		chain = append(chain, n.Name)
		if len(chain) >= 6 { // keep diagnostics readable on deep paths
			chain = append(chain, "…")
			break
		}
	}
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	return strings.Join(chain, " → ")
}
