// Command simlint statically enforces the simulator's invariants across the
// repository. Per-package determinism rules: no wall-clock time outside
// internal/sim (walltime), no global math/rand source (globalrand), no
// order-sensitive map iteration in simulation packages (mapiter), and no go
// statement and no sync or sync/atomic import in simulation packages
// (rawgo). Whole-program rule over the shared call graph: no heap allocation
// reachable from //simlint:noalloc hot-path roots (noalloc).
//
// Usage:
//
//	go run ./cmd/simlint [-json] ./...
//
// With -json, findings are emitted as a JSON array of
// {file, line, col, analyzer, message, suppression} objects (suppression
// marks findings about the //simlint:* annotations themselves, e.g. a
// missing justification) so CI can archive them next to the bench JSONs.
//
// It exits non-zero if any diagnostic is reported; CI runs it alongside the
// tier-1 build and tests. See DESIGN.md §7 for the annotation grammar and
// the dispatch-resolution rules.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/callgraph"
	"repro/internal/analysis/simlint"
)

// finding is one diagnostic in the machine-readable output.
type finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
	// Suppression marks findings about a //simlint:* annotation itself
	// (e.g. a suppression written without a justification) rather than a
	// violation of the underlying rule.
	Suppression bool `json:"suppression"`
}

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as JSON on stdout")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: simlint [-json] [packages]\n\nEnforces the determinism invariants (walltime, globalrand, mapiter, rawgo)\nand the call-graph invariant (noalloc).\nPackages default to ./...\n")
	}
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	pkgs, err := analysis.Load(patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simlint: %v\n", err)
		os.Exit(2)
	}

	var findings []finding
	add := func(pkg *analysis.Package, name string, d analysis.Diagnostic) {
		p := pkg.Fset.Position(d.Pos)
		findings = append(findings, finding{
			File:        p.Filename,
			Line:        p.Line,
			Col:         p.Column,
			Analyzer:    name,
			Message:     d.Message,
			Suppression: strings.Contains(d.Message, "suppression requires"),
		})
	}

	for _, pkg := range pkgs {
		for _, check := range simlint.Suite() {
			if !check.Applies(pkg.Types.Path()) {
				continue
			}
			check := check
			pkg := pkg
			pass := &analysis.Pass{
				Analyzer:  check.Analyzer,
				Fset:      pkg.Fset,
				Files:     pkg.Syntax,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
				Report:    func(d analysis.Diagnostic) { add(pkg, check.Analyzer.Name, d) },
			}
			if _, err := check.Analyzer.Run(pass); err != nil {
				fmt.Fprintf(os.Stderr, "simlint: %s on %s: %v\n", check.Analyzer.Name, pkg.ImportPath, err)
				os.Exit(2)
			}
		}
	}

	// Whole-program analyzers run once over the call graph of everything
	// loaded.
	if len(pkgs) > 0 {
		prog := callgraph.Build(pkgs)
		for _, ga := range simlint.GlobalSuite() {
			for _, d := range ga.Run(prog) {
				p := prog.Fset.Position(d.Pos)
				findings = append(findings, finding{
					File:        p.Filename,
					Line:        p.Line,
					Col:         p.Column,
					Analyzer:    ga.Name,
					Message:     d.Message,
					Suppression: strings.Contains(d.Message, "suppression requires"),
				})
			}
		}
	}

	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []finding{}
		}
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintf(os.Stderr, "simlint: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, f := range findings {
			fmt.Printf("%s:%d:%d: %s (%s)\n", f.File, f.Line, f.Col, f.Message, f.Analyzer)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "simlint: %d violation(s)\n", len(findings))
		os.Exit(1)
	}
}
