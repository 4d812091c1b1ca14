package analysis

import (
	"go/ast"
	"go/token"
	"regexp"
	"strings"
)

// The //simlint:* annotation grammar (DESIGN.md §7). Annotations are magic
// comments, written with no space after "//" like //go: directives:
//
//	//simlint:noalloc             — on a function declaration's doc comment:
//	                                the function and everything it reaches
//	                                in-module must not allocate
//	//simlint:alloc(reason)       — on a declaration: the whole function is a
//	                                justified allocation site and the noalloc
//	                                walk stops at it; on a statement line (or
//	                                the line above): that line's allocations
//	                                and outgoing calls are justified
//	//simlint:ordered <reason>    — on a map range: iteration order provably
//	                                does not escape (mapiter analyzer)
//
// Reasons are mandatory: an empty justification is rejected by the analyzers
// and by the repository guard test (TestSuppressionsCarryJustification).

// Annotation kinds.
const (
	AnnotNoalloc = "noalloc"
	AnnotAlloc   = "alloc"
	AnnotOrdered = "ordered"
)

// An Annotation is one parsed //simlint:* comment.
type Annotation struct {
	Kind   string // one of the Annot* constants
	Reason string // the (reason) or trailing justification, "" if absent
	Pos    token.Pos
}

// Like //go: directives, an annotation must start the comment ("//simlint:"
// with no space); prose mentioning //simlint:* mid-sentence is not parsed.
var annotRE = regexp.MustCompile(`^//simlint:(noalloc|alloc|ordered)\b\s*(?:\(([^)]*)\))?\s*(.*?)\s*$`)

// ParseAnnotation parses a single comment's text, returning ok=false when the
// comment carries no //simlint: marker.
func ParseAnnotation(c *ast.Comment) (Annotation, bool) {
	m := annotRE.FindStringSubmatch(c.Text)
	if m == nil {
		return Annotation{}, false
	}
	a := Annotation{Kind: m[1], Pos: c.Pos()}
	if m[2] != "" {
		a.Reason = strings.TrimSpace(m[2])
	} else if a.Kind == AnnotOrdered {
		a.Reason = strings.TrimSpace(m[3])
	}
	return a, true
}

// AnnotationsByLine maps each line of f that carries a //simlint:<kind>
// annotation of one of the given kinds to the parsed annotation. Analyzers
// consult the map for the flagged construct's own line and the line above it
// (the two places a suppression may sit).
func AnnotationsByLine(fset *token.FileSet, f *ast.File, kinds ...string) map[int]Annotation {
	want := map[string]bool{}
	for _, k := range kinds {
		want[k] = true
	}
	byLine := map[int]Annotation{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			a, ok := ParseAnnotation(c)
			if !ok || !want[a.Kind] {
				continue
			}
			byLine[fset.Position(c.Pos()).Line] = a
		}
	}
	return byLine
}

// DocAnnotation returns the first annotation of one of the given kinds in a
// declaration's doc comment group.
func DocAnnotation(doc *ast.CommentGroup, kinds ...string) (Annotation, bool) {
	if doc == nil {
		return Annotation{}, false
	}
	want := map[string]bool{}
	for _, k := range kinds {
		want[k] = true
	}
	for _, c := range doc.List {
		if a, ok := ParseAnnotation(c); ok && want[a.Kind] {
			return a, true
		}
	}
	return Annotation{}, false
}
