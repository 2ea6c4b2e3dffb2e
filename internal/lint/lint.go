// Package lint holds the repository's module-wide static checks: analyzers
// that need type information or the module call graph, which a syntactic
// rule of the root package's TestArchitecture cannot decide. The
// architecture test loads the module with Loader and runs every analyzer
// over it; checktest runs one over its fixtures.
//
// An Analyzer sees the whole loaded module at once through a ModulePass:
// every package, type-checked in one importer session, plus a call graph
// with per-function summaries (see CallGraph).
package lint

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/token"
	"slices"
	"strings"
)

// Analyzer is one static check over the loaded module.
type Analyzer struct {
	// Name identifies the analyzer in findings.
	Name string
	// Run applies the check and reports findings through pass.Reportf.
	Run func(pass *ModulePass)
}

// Finding is one reported violation with its source position.
type Finding struct {
	Analyzer string
	Position token.Position
	Message  string
}

// String renders the finding in the conventional file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.Position.Filename, f.Position.Line, f.Position.Column, f.Analyzer, f.Message)
}

// RunAnalyzers applies each analyzer to the loaded packages, sharing one
// call graph, and returns the findings sorted by position.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) []Finding {
	if len(pkgs) == 0 {
		return nil
	}
	fset := pkgs[0].Fset
	graph := BuildCallGraph(pkgs)
	var findings []Finding
	for _, a := range analyzers {
		a.Run(&ModulePass{Fset: fset, Pkgs: pkgs, Graph: graph, report: func(pos token.Pos, msg string) {
			findings = append(findings, Finding{Analyzer: a.Name, Position: fset.Position(pos), Message: msg})
		}})
	}
	slices.SortFunc(findings, func(a, b Finding) int {
		return cmp.Or(
			cmp.Compare(a.Position.Filename, b.Position.Filename),
			cmp.Compare(a.Position.Line, b.Position.Line),
			cmp.Compare(a.Position.Column, b.Position.Column),
			cmp.Compare(a.Analyzer, b.Analyzer),
			cmp.Compare(a.Message, b.Message))
	})
	return findings
}

// HasDirective reports whether the doc comment of a declaration contains
// the given //ecrpq:<directive> marker (e.g. "charged" or "bounded").
func HasDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if isDirective(c.Text, directive) {
			return true
		}
	}
	return false
}

// DirectiveLines returns the set of lines of f covered by a standalone
// //ecrpq:<directive> comment: the comment's own line and the line below
// it. Statement-level directives (//ecrpq:bounded on a loop) are looked
// up here.
func DirectiveLines(fset *token.FileSet, f *ast.File, directive string) map[int]bool {
	out := make(map[int]bool)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if isDirective(c.Text, directive) {
				line := fset.Position(c.Pos()).Line
				out[line] = true
				out[line+1] = true
			}
		}
	}
	return out
}

func isDirective(comment, directive string) bool {
	text := strings.TrimSpace(comment)
	want := "//ecrpq:" + directive
	return text == want || strings.HasPrefix(text, want+" ")
}
