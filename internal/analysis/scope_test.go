package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"testing"
)

// TestNoGoStatementInSimulationTests extends rawgo to the files the loader
// never parses: a _test.go of a simulation package may neither start a
// goroutine nor import sync or sync/atomic. One proc runs at a time and
// nothing in those packages takes a lock (DESIGN.md §7), so a test's second
// thread would race on every structure it touches; concurrency in a test is
// sim.Scheduler procs.
func TestNoGoStatementInSimulationTests(t *testing.T) {
	fset := token.NewFileSet()
	for _, pkg := range simScopedPkgs {
		files, err := filepath.Glob(filepath.Join("..", pkg, "*_test.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range files {
			f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range f.Imports {
				if path, _ := strconv.Unquote(imp.Path.Value); path == "sync" || path == "sync/atomic" {
					t.Errorf("%s: import of %s in a simulation package's test; one sim.Proc runs at a time", fset.Position(imp.Pos()), path)
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok {
					t.Errorf("%s: go statement in a simulation package's test; spawn a sim.Proc instead", fset.Position(g.Pos()))
				}
				return true
			})
		}
	}
}
