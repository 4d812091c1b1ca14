// Package simlint assembles the determinism-invariant analyzer suite and
// its package-scoping policy. cmd/simlint is the thin driver around it.
//
// The per-package rules (see DESIGN.md, "Determinism invariants"):
//
//	walltime   — no wall-clock time outside internal/sim
//	globalrand — no global math/rand source anywhere
//	mapiter    — no order-sensitive map iteration in simulation packages
//	rawgo      — no go statement and no sync or sync/atomic import in
//	             simulation packages
//
// The whole-program rule runs on the shared call graph (DESIGN.md §7):
//
//	noalloc — no heap allocation reachable from //simlint:noalloc roots
package simlint

import (
	"repro/internal/analysis"
	"repro/internal/analysis/callgraph"
	"repro/internal/analysis/globalrand"
	"repro/internal/analysis/mapiter"
	"repro/internal/analysis/noalloc"
	"repro/internal/analysis/rawgo"
	"repro/internal/analysis/walltime"
)

// A Check pairs an analyzer with the packages it binds.
type Check struct {
	Analyzer *analysis.Analyzer
	// Applies reports whether the analyzer runs on the package. (The
	// analyzers additionally skip _test.go files themselves, and walltime
	// re-checks the sim-core exemption internally.)
	Applies func(pkgPath string) bool
}

// Suite returns the per-package simlint checks in reporting order.
func Suite() []Check {
	everywhere := func(string) bool { return true }
	return []Check{
		{walltime.Analyzer, func(p string) bool { return !analysis.IsSimCore(p) }},
		{globalrand.Analyzer, everywhere},
		{mapiter.Analyzer, analysis.IsSimScoped},
		{rawgo.Analyzer, analysis.IsSimScoped},
	}
}

// GlobalSuite returns the whole-program checks, which run once over the
// call graph built from every loaded package rather than per package.
func GlobalSuite() []*callgraph.Analyzer {
	return []*callgraph.Analyzer{noalloc.Analyzer}
}
