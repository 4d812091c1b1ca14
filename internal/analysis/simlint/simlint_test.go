package simlint

import (
	"testing"

	"repro/internal/analysis"
)

func TestScope(t *testing.T) {
	cases := []struct {
		path            string
		simCore, scoped bool
	}{
		{"repro/internal/sim", true, true},
		{"sim", true, true},
		{"repro/internal/lock", false, true},
		{"repro/internal/wal", false, true},
		{"repro/internal/lfs", false, true},
		{"repro/internal/ffs", false, true},
		{"repro/internal/core", false, true},
		{"repro/internal/libtp", false, true},
		{"repro/internal/buffer", false, true},
		{"repro/internal/disk", false, true},
		{"repro/internal/tpcb", false, true},
		{"repro/internal/figures", false, true},
		{"lock", false, true},
		{"repro/internal/btree", false, true},
		{"repro/internal/workload", false, true},
		{"repro/internal/recno", false, true},
		{"repro/internal/pagestore", false, true},
		{"repro/internal/vfs", false, true},
		{"repro/internal/frame", false, true},
		{"repro/internal/mvcc", false, true},
		{"repro/internal/detsort", false, false},
		{"repro/internal/analysis/mapiter", false, false},
		{"repro/cmd/tpcb", false, false},
		{"repro/cmd/simlint", false, false},
		{"repro/internal/lockstep", false, false},
	}
	for _, c := range cases {
		if got := analysis.IsSimCore(c.path); got != c.simCore {
			t.Errorf("IsSimCore(%q) = %v, want %v", c.path, got, c.simCore)
		}
		if got := analysis.IsSimScoped(c.path); got != c.scoped {
			t.Errorf("IsSimScoped(%q) = %v, want %v", c.path, got, c.scoped)
		}
	}
}

func TestSuiteScoping(t *testing.T) {
	byName := map[string]Check{}
	for _, c := range Suite() {
		byName[c.Analyzer.Name] = c
	}
	if len(byName) != 4 {
		t.Fatalf("suite has %d analyzers, want 4", len(byName))
	}
	if byName["walltime"].Applies("repro/internal/sim") {
		t.Error("walltime must not bind internal/sim")
	}
	if !byName["walltime"].Applies("repro/internal/lfs") || !byName["walltime"].Applies("repro/cmd/tpcb") {
		t.Error("walltime must bind everything outside internal/sim")
	}
	if !byName["globalrand"].Applies("repro/internal/sim") {
		t.Error("globalrand binds every package, including internal/sim")
	}
	for _, name := range []string{"mapiter", "rawgo"} {
		if !byName[name].Applies("repro/internal/sim") {
			t.Errorf("%s must bind internal/sim (its procs are coroutines; it owns no goroutine)", name)
		}
		if !byName[name].Applies("repro/internal/lock") {
			t.Errorf("%s must bind the simulation packages", name)
		}
		if !byName[name].Applies("repro/internal/btree") {
			t.Errorf("%s must bind btree (its pages are decoded inside the simulation)", name)
		}
		if byName[name].Applies("repro/internal/detsort") {
			t.Errorf("%s must not bind non-simulation packages", name)
		}
	}
}
