// Package rawgo defines a simlint analyzer that forbids raw `go` statements
// in simulation packages.
//
// Inside the simulation, concurrency must be expressed as sim.Proc virtual
// processes on sim.Scheduler, whose min-(virtual-time, id) dispatch makes
// interleavings a deterministic function of the seed. A raw goroutine hands
// ordering decisions to the Go runtime scheduler instead, so two identical
// runs can observe different lock-acquisition and disk-queue orders.
// internal/sim is bound too: its procs are coroutines (iter.Pull), so the
// scheduler starts no goroutine of its own. _test.go files are not exempt —
// the scheduler's token is the only lock the simulation packages have — but
// the simlint loader parses none, so for them the rule is applied by
// internal/analysis's TestNoGoStatementInSimulationTests.
package rawgo

import (
	"go/ast"

	"repro/internal/analysis"
)

// Analyzer flags go statements in simulation packages.
var Analyzer = &analysis.Analyzer{
	Name: "rawgo",
	Doc:  "forbid raw `go` statements in simulation packages; spawn sim.Procs on sim.Scheduler instead",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				pass.Reportf(g.Pos(), "raw goroutine bypasses sim.Scheduler's deterministic dispatch; express concurrency as a sim.Proc")
			}
			return true
		})
	}
	return nil, nil
}
