// Package analysis is a minimal, dependency-free reimplementation of the
// driver surface of golang.org/x/tools/go/analysis, built entirely on the
// standard library (go/ast, go/types, and the go command for package
// discovery and export data).
//
// The repository's build environment bakes in only the Go toolchain — no
// third-party modules — so the simlint analyzer suite (see cmd/simlint and
// the sibling packages walltime, globalrand, mapiter, rawgo) targets this
// package instead of x/tools. The API deliberately mirrors x/tools:
// Analyzer{Name, Doc, Run}, Pass with Fset/Files/Pkg/TypesInfo and
// Reportf, and an analysistest-style golden runner under
// internal/analysis/analysistest. If x/tools ever becomes available, each
// analyzer migrates by changing one import line.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// An Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics (lowercase identifier).
	Name string
	// Doc is the help text: one summary line, then details.
	Doc string
	// Run applies the analyzer to a single package.
	Run func(*Pass) (any, error)
}

// A Diagnostic is one reported finding.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// A Pass provides one analyzer run with a single type-checked package and a
// sink for its diagnostics.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Report    func(Diagnostic)
}

// Reportf reports a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// InTestFile reports whether pos lies in a _test.go file. The wall-clock,
// global-rand and map-order invariants bind simulation code, not its tests;
// the raw-goroutine rule binds both.
func (p *Pass) InTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}
