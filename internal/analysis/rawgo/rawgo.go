// Package rawgo defines a simlint analyzer that holds simulation packages to
// the one concurrency model: no raw `go` statement, and no import of sync or
// sync/atomic.
//
// Inside the simulation, concurrency must be expressed as sim.Proc virtual
// processes on sim.Scheduler, whose min-(virtual-time, id) dispatch makes
// interleavings a deterministic function of the seed. A raw goroutine hands
// ordering decisions to the Go runtime scheduler instead, so two identical
// runs can observe different lock-acquisition and disk-queue orders. The
// procs are coroutines (iter.Pull): one runs at a time and control moves by
// coroutine switch, which is what makes the simulation's unlocked state
// safe, so a mutex or an atomic there guards nothing and hints at a second
// thread. internal/sim is bound too: the scheduler starts no goroutine of its
// own. _test.go files are not exempt, but the simlint loader parses none, so
// for them the rule is applied by internal/analysis's
// TestNoGoStatementInSimulationTests.
package rawgo

import (
	"go/ast"
	"strconv"

	"repro/internal/analysis"
)

// Analyzer flags go statements and sync imports in simulation packages.
var Analyzer = &analysis.Analyzer{
	Name: "rawgo",
	Doc:  "forbid raw `go` statements and sync/sync/atomic imports in simulation packages; spawn sim.Procs on sim.Scheduler instead",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); path == "sync" || path == "sync/atomic" {
				pass.Reportf(imp.Pos(), "import of %s in simulation code: one sim.Proc runs at a time, so shared state needs no lock or atomic", path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				pass.Reportf(g.Pos(), "raw goroutine bypasses sim.Scheduler's deterministic dispatch; express concurrency as a sim.Proc")
			}
			return true
		})
	}
	return nil, nil
}
