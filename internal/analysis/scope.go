package analysis

import (
	"regexp"
	"strings"
)

// Package scoping for the simlint suite. The determinism invariants do not
// bind every package equally:
//
//   - internal/sim IS the simulated time/randomness source, so the walltime
//     analyzer exempts it (it is also where a real-time escape would be
//     deliberate and reviewed);
//   - the map-iteration and raw-goroutine rules apply to the packages that
//     execute inside the simulation, where iteration order or OS scheduling
//     would leak into simulated-time results — internal/sim included: its
//     procs are coroutines, so it starts no goroutine of its own.
//
// simScopedPkgs is the single source of truth: both matchers are derived
// from it, and they accept both full module paths (repro/internal/sim) and
// bare final elements (sim), so analyzer golden tests can model scoped
// packages with short testdata import paths.
var simScopedPkgs = []string{
	"sim", "lock", "wal", "lfs", "ffs", "core", "libtp", "buffer", "disk",
	"tpcb", "figures", "crashsweep", "trace", "btree",
	"workload", "recno", "pagestore", "vfs", "ufs", "frame", "mvcc",
}

var (
	simCoreRE   = regexp.MustCompile(`(^|/)sim$`)
	simScopedRE = scopedRE(simScopedPkgs)
)

// scopedRE builds the matcher for a package list: internal/<pkg> under any
// module prefix, or the bare package name.
func scopedRE(pkgs []string) *regexp.Regexp {
	alt := strings.Join(pkgs, "|")
	return regexp.MustCompile(`(^|/)internal/(` + alt + `)(/|$)|^(` + alt + `)$`)
}

// IsSimCore reports whether pkgPath is the simulation core (internal/sim),
// the one package allowed to touch wall-clock primitives.
func IsSimCore(pkgPath string) bool { return simCoreRE.MatchString(pkgPath) }

// IsSimScoped reports whether pkgPath is one of the simulation packages the
// mapiter and rawgo analyzers bind (simScopedPkgs).
func IsSimScoped(pkgPath string) bool { return simScopedRE.MatchString(pkgPath) }
