package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestSuppressionsCarryJustification walks every Go file in the repository
// and requires that each //simlint:alloc and //simlint:ordered suppression
// carries a non-empty justification, and that everything spelled like an
// annotation actually parses as one (so a directive of a retired kind cannot
// linger). Golden
// trees under testdata are exempt: they deliberately include malformed
// suppressions to exercise the analyzers.
func TestSuppressionsCarryJustification(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	needReason := map[string]bool{AnnotAlloc: true, AnnotOrdered: true}
	fset := token.NewFileSet()
	checked := 0
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", "testdata":
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, "//simlint:") {
					continue
				}
				checked++
				a, ok := ParseAnnotation(c)
				pos := fset.Position(c.Pos())
				if !ok {
					t.Errorf("%s:%d: unparseable //simlint: annotation: %s", rel, pos.Line, c.Text)
					continue
				}
				if needReason[a.Kind] && a.Reason == "" {
					t.Errorf("%s:%d: //simlint:%s suppression carries no justification", rel, pos.Line, a.Kind)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if checked == 0 {
		t.Fatal("walk found no //simlint: annotations; is the repository root wrong?")
	}
	t.Logf("checked %d annotations", checked)
}

func TestParseAnnotation(t *testing.T) {
	cases := []struct {
		text   string
		ok     bool
		kind   string
		reason string
	}{
		{"//simlint:noalloc", true, AnnotNoalloc, ""},
		{"//simlint:alloc(cold refill slope)", true, AnnotAlloc, "cold refill slope"},
		{"//simlint:alloc()", true, AnnotAlloc, ""},
		{"//simlint:tokenguarded", false, "", ""},
		{"//simlint:tokensafe(collector runs after Run returns)", false, "", ""},
		{"//simlint:ordered keys sorted before use", true, AnnotOrdered, "keys sorted before use"},
		{"// prose mentioning //simlint:alloc(x) mid-sentence", false, "", ""},
		{"// simlint:noalloc", false, "", ""},
		{"//simlint:bogus", false, "", ""},
	}
	for _, c := range cases {
		a, ok := ParseAnnotation(&ast.Comment{Text: c.text})
		if ok != c.ok {
			t.Errorf("ParseAnnotation(%q) ok = %v, want %v", c.text, ok, c.ok)
			continue
		}
		if !ok {
			continue
		}
		if a.Kind != c.kind || a.Reason != c.reason {
			t.Errorf("ParseAnnotation(%q) = (%q, %q), want (%q, %q)", c.text, a.Kind, a.Reason, c.kind, c.reason)
		}
	}
}
