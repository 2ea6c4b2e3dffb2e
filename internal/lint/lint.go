// Package lint is a minimal, dependency-free re-implementation of the
// golang.org/x/tools/go/analysis vocabulary (Analyzer, Pass, Diagnostic)
// plus a module-aware source loader, sufficient to run this repository's
// custom analyzers from cmd/ecrpq-lint without any module downloads.
//
// The shape deliberately mirrors go/analysis so the analyzers can be
// ported to the real framework verbatim once x/tools is vendorable:
// an Analyzer bundles a name, doc string and a Run function; Run receives
// a Pass carrying the parsed files, type information and a Report sink.
//
// Two analysis granularities exist:
//
//   - per-package (Analyzer.Run): the classic go/analysis unit, one
//     type-checked package at a time; and
//   - module-wide (Analyzer.RunModule): one pass over every loaded
//     package at once, with a call graph and per-function summaries
//     (see ModulePass), for invariants that cross package boundaries.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer describes one static check. Exactly one of Run and RunModule
// must be set.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //ecrpq:ignore suppression comments. It must be a valid identifier.
	Name string
	// Doc is the help text shown by `ecrpq-lint -list`.
	Doc string
	// Run applies the check to a single package and reports findings via
	// pass.Report. It returns an error only for operational failures
	// (diagnostics are not errors).
	Run func(*Pass) error
	// RunModule applies the check to the whole set of loaded packages at
	// once. Module analyzers see the cross-package call graph and the
	// per-function summaries of ModulePass.
	RunModule func(*ModulePass) error
}

// Pass carries one type-checked package through an analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's parsed non-test Go files.
	Files []*ast.File
	// Pkg is the type-checked package object.
	Pkg *types.Package
	// TypesInfo records type and object resolution for all expressions.
	TypesInfo *types.Info
	// Report delivers one diagnostic. Suppression comments are applied by
	// the driver, not by analyzers.
	Report func(Diagnostic)
}

// Reportf is a convenience wrapper formatting a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is a single finding.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// RunAnalyzers applies each analyzer to the loaded packages, filtering
// suppressed findings, and returns all diagnostics sorted by position.
// Per-package analyzers run once per package; module analyzers run once
// over the full package set, sharing a single lazily-built ModulePass.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Finding, error) {
	var findings []Finding
	if len(pkgs) == 0 {
		return nil, nil
	}
	fset := pkgs[0].Fset
	supp := buildSuppressionIndex(fset, pkgs)
	reporter := func(name string) func(Diagnostic) {
		return func(d Diagnostic) {
			pos := fset.Position(d.Pos)
			if supp.suppressed(name, pos) {
				return
			}
			findings = append(findings, Finding{Analyzer: name, Position: pos, Message: d.Message})
		}
	}
	for _, pkg := range pkgs {
		if pkg.Types == nil {
			continue
		}
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
				Report:    reporter(a.Name),
			}
			if err := a.Run(pass); err != nil {
				return findings, fmt.Errorf("%s on %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	var graph *CallGraph // built once, shared by every module analyzer
	for _, a := range analyzers {
		if a.RunModule == nil {
			continue
		}
		if graph == nil {
			graph = BuildCallGraph(pkgs)
		}
		mp := &ModulePass{
			Analyzer: a,
			Fset:     fset,
			Pkgs:     pkgs,
			Graph:    graph,
			Report:   reporter(a.Name),
		}
		if err := a.RunModule(mp); err != nil {
			return findings, fmt.Errorf("%s (module): %w", a.Name, err)
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i].Position, findings[j].Position
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		if findings[i].Analyzer != findings[j].Analyzer {
			return findings[i].Analyzer < findings[j].Analyzer
		}
		return findings[i].Message < findings[j].Message
	})
	return findings, nil
}

// Finding is a resolved diagnostic with its source position.
type Finding struct {
	Analyzer string
	Position token.Position
	Message  string
}

// String renders the finding in the conventional file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.Position.Filename, f.Position.Line, f.Position.Column, f.Analyzer, f.Message)
}

// FuncOf resolves id to the function object it uses or defines, nil
// otherwise. Analyzers use it to map call-site identifiers onto call
// graph nodes.
func FuncOf(info *types.Info, id *ast.Ident) *types.Func {
	return funcOf(info, id)
}

// IsCtxPoll reports whether fn is (context.Context).Err or .Done — the
// two methods whose reference constitutes a cancellation poll.
func IsCtxPoll(fn *types.Func) bool {
	return isCtxPoll(fn)
}

// funcOf resolves id to the function object it uses or defines, nil
// otherwise.
func funcOf(info *types.Info, id *ast.Ident) *types.Func {
	if obj, ok := info.Uses[id].(*types.Func); ok {
		return obj
	}
	if obj, ok := info.Defs[id].(*types.Func); ok {
		return obj
	}
	return nil
}
