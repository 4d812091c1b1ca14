// Package analysistest runs an analyzer over golden source trees and checks
// its diagnostics against `// want` annotations, mirroring the subset of
// golang.org/x/tools/go/analysis/analysistest the simlint suite needs. Each
// golden package lives under testdata/src/<path>; sibling packages resolve
// against each other (so a fake "sim" package can model the simulation core)
// and everything else resolves against the real standard library via gc
// export data.
//
// An expectation is a comment on the line the diagnostic lands on:
//
//	time.Sleep(d) // want `time\.Sleep reads the wall clock`
//
// The string is a regular expression (Go quoted or backquoted); several may
// follow one `want`. Unexpected diagnostics and unmatched expectations both
// fail the test.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/callgraph"
)

// TestData returns the absolute path of the calling test's testdata
// directory (the go tool runs each test in its package directory).
func TestData() string {
	wd, err := os.Getwd()
	if err != nil {
		panic(err)
	}
	return filepath.Join(wd, "testdata")
}

// Run loads each named package from dir/src/<pkg>, applies the analyzer, and
// matches its diagnostics against the packages' `// want` annotations.
func Run(t *testing.T, dir string, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	l, err := newLoader(filepath.Join(dir, "src"))
	if err != nil {
		t.Fatalf("analysistest: %v", err)
	}
	for _, name := range pkgs {
		pkg, err := l.load(name)
		if err != nil {
			t.Fatalf("analysistest: loading %s: %v", name, err)
		}
		check(t, a, pkg)
	}
}

// RunProgram loads every named golden package into one type-checked set,
// builds the whole-program call graph over it, applies the global analyzer
// once, and matches its diagnostics against `// want` annotations gathered
// from all the packages. Golden trees for the call-graph analyzers model the
// real module in miniature, so calls across packages resolve as they do in
// the module.
func RunProgram(t *testing.T, dir string, a *callgraph.Analyzer, pkgs ...string) {
	t.Helper()
	l, err := newLoader(filepath.Join(dir, "src"))
	if err != nil {
		t.Fatalf("analysistest: %v", err)
	}
	var loaded []*analysis.Package
	for _, name := range pkgs {
		pkg, err := l.load(name)
		if err != nil {
			t.Fatalf("analysistest: loading %s: %v", name, err)
		}
		loaded = append(loaded, pkg)
	}
	prog := callgraph.Build(loaded)

	type diag struct {
		file string
		line int
		msg  string
	}
	var got []diag
	for _, d := range a.Run(prog) {
		p := prog.Fset.Position(d.Pos)
		got = append(got, diag{filepath.Base(p.Filename), p.Line, d.Message})
	}

	var wants []*want
	for _, pkg := range loaded {
		w, err := collectWants(pkg)
		if err != nil {
			t.Fatalf("parsing expectations in %s: %v", pkg.ImportPath, err)
		}
		wants = append(wants, w...)
	}
	for _, d := range got {
		matched := false
		for _, w := range wants {
			if w.matched || w.file != d.file || w.line != d.line || !w.re.MatchString(d.msg) {
				continue
			}
			w.matched = true
			matched = true
			break
		}
		if !matched {
			t.Errorf("%s:%d: unexpected diagnostic: %s", d.file, d.line, d.msg)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.re)
		}
	}
}

// check applies the analyzer to one package and diffs diagnostics against
// expectations.
func check(t *testing.T, a *analysis.Analyzer, pkg *analysis.Package) {
	t.Helper()
	type diag struct {
		file string
		line int
		msg  string
	}
	var got []diag
	pass := &analysis.Pass{
		Analyzer:  a,
		Fset:      pkg.Fset,
		Files:     pkg.Syntax,
		Pkg:       pkg.Types,
		TypesInfo: pkg.TypesInfo,
		Report: func(d analysis.Diagnostic) {
			p := pkg.Fset.Position(d.Pos)
			got = append(got, diag{filepath.Base(p.Filename), p.Line, d.Message})
		},
	}
	if _, err := a.Run(pass); err != nil {
		t.Fatalf("%s on %s: %v", a.Name, pkg.ImportPath, err)
	}

	wants, err := collectWants(pkg)
	if err != nil {
		t.Fatalf("parsing expectations in %s: %v", pkg.ImportPath, err)
	}
	for _, d := range got {
		matched := false
		for _, w := range wants {
			if w.matched || w.file != d.file || w.line != d.line || !w.re.MatchString(d.msg) {
				continue
			}
			w.matched = true
			matched = true
			break
		}
		if !matched {
			t.Errorf("%s:%d: unexpected diagnostic: %s", d.file, d.line, d.msg)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.re)
		}
	}
}

// want is one expectation: a diagnostic matching re on (file, line).
type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

// wantRE matches a `want` keyword followed by Go string literals.
var (
	wantRE    = regexp.MustCompile(`want\s+(.*)`)
	literalRE = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")
)

func collectWants(pkg *analysis.Package) ([]*want, error) {
	var wants []*want
	for _, f := range pkg.Syntax {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				p := pkg.Fset.Position(c.Pos())
				lits := literalRE.FindAllString(m[1], -1)
				if len(lits) == 0 {
					return nil, fmt.Errorf("%s:%d: want comment carries no pattern", p.Filename, p.Line)
				}
				for _, lit := range lits {
					s, err := strconv.Unquote(lit)
					if err != nil {
						return nil, fmt.Errorf("%s:%d: bad pattern %s: %v", p.Filename, p.Line, lit, err)
					}
					re, err := regexp.Compile(s)
					if err != nil {
						return nil, fmt.Errorf("%s:%d: bad pattern %s: %v", p.Filename, p.Line, lit, err)
					}
					wants = append(wants, &want{file: filepath.Base(p.Filename), line: p.Line, re: re})
				}
			}
		}
	}
	return wants, nil
}

// loader type-checks golden packages, resolving imports first against the
// testdata tree, then against the standard library.
type loader struct {
	srcRoot string
	fset    *token.FileSet
	std     types.Importer
	memo    map[string]*analysis.Package
	loading map[string]bool
}

func newLoader(srcRoot string) (*loader, error) {
	l := &loader{
		srcRoot: srcRoot,
		fset:    token.NewFileSet(),
		memo:    map[string]*analysis.Package{},
		loading: map[string]bool{},
	}
	std, err := l.stdlibNeeded()
	if err != nil {
		return nil, err
	}
	exports, err := analysis.ListExports(std...)
	if err != nil {
		return nil, err
	}
	l.std = analysis.NewExportImporter(l.fset, exports)
	return l, nil
}

// stdlibNeeded scans every golden file's imports for paths that are not
// sibling testdata packages; those must come from export data.
func (l *loader) stdlibNeeded() ([]string, error) {
	need := map[string]bool{}
	err := filepath.WalkDir(l.srcRoot, func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(p, ".go") {
			return err
		}
		f, err := parser.ParseFile(token.NewFileSet(), p, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				return err
			}
			if !l.isGolden(path) {
				need[path] = true
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var out []string
	for p := range need {
		out = append(out, p)
	}
	sort.Strings(out)
	return out, nil
}

// isGolden reports whether path names a package under testdata/src.
func (l *loader) isGolden(path string) bool {
	fi, err := os.Stat(filepath.Join(l.srcRoot, path))
	return err == nil && fi.IsDir()
}

func (l *loader) load(path string) (*analysis.Package, error) {
	if p, ok := l.memo[path]; ok {
		return p, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("import cycle through %q", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir := filepath.Join(l.srcRoot, path)
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := analysis.NewTypesInfo()
	conf := types.Config{Importer: importerFunc(l.importPkg)}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", path, err)
	}
	p := &analysis.Package{ImportPath: path, Fset: l.fset, Syntax: files, Types: tpkg, TypesInfo: info}
	l.memo[path] = p
	return p, nil
}

func (l *loader) importPkg(path string) (*types.Package, error) {
	if l.isGolden(path) {
		p, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.Import(path)
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
