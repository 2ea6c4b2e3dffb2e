// Package boundedrun implements the boundedrun analyzer: in the core
// package, product-search entry points must not be invoked with a
// literal 0 state budget outside test files. The single-source kernel's
// entry points that fix a traversal's budget (fastProduct.begin, and Run,
// reach and the recording witness, which begin one) and the batched sweep
// kernel's sweepKernel.Run — the one product kernel's two traversals; there
// is no other search — treat maxStates == 0 as "unlimited", which is exactly the knob the resource governor relies on
// to keep a hostile query from exploring an exponential product space
// unmetered. Production call sites must thread a computed bound (options,
// config, or the caller's budget) — a hard-coded 0 silently opts the call
// out of governance. fastProduct.seek takes no budget: it resumes a
// traversal under the one its begin fixed.
package boundedrun

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"ecrpq/internal/lint"
)

// Analyzer is the boundedrun check.
var Analyzer = &lint.Analyzer{
	Name: "boundedrun",
	Doc: "product searches must not pass a literal 0 (unlimited) state budget outside tests\n\n" +
		"Applies to internal/core. fastProduct.begin/Run/reach/witness and sweepKernel.Run\n" +
		"interpret a maxStates of 0 as unbounded exploration; call sites in non-test files\n" +
		"must pass a computed budget instead. Suppress a single finding with\n" +
		"//ecrpq:ignore boundedrun -- <reason>.",
	Run: run,
}

// inScope restricts the check to the core layer; fixture packages
// (under a testdata tree) are always in scope so the analyzer is
// testable.
func inScope(path string) bool {
	return strings.HasSuffix(path, "internal/core") ||
		strings.Contains(path, "/testdata/")
}

func run(pass *lint.Pass) error {
	if !inScope(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		name := pass.Fset.Position(f.Pos()).Filename
		if strings.HasSuffix(name, "_test.go") {
			continue // tests may deliberately run unbounded
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 || call.Ellipsis.IsValid() {
				return true
			}
			target := searchTarget(pass, call)
			if target == "" {
				return true
			}
			if isLiteralZero(call.Args[len(call.Args)-1]) {
				pass.Reportf(call.Pos(),
					"%s called with a literal 0 maxStates (unlimited search): pass a computed state budget", target)
			}
			return true
		})
	}
	return nil
}

// budgeted lists, per search type, the methods whose last argument is the
// state budget of the traversal they begin.
var budgeted = map[string][]string{
	"fastProduct": {"Run", "begin", "reach", "witness"},
	"sweepKernel": {"Run"},
}

// searchTarget classifies the callee: "<type>.<method>" for a budgeted
// method of a search type, "" for anything else.
func searchTarget(pass *lint.Pass, call *ast.CallExpr) string {
	fn, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	recv := searchType(pass, fn.X)
	for _, m := range budgeted[recv] {
		if fn.Sel.Name == m {
			return recv + "." + m
		}
	}
	return ""
}

// searchType returns the name of e's static type when it is (a pointer
// to) a named type, "" otherwise.
func searchType(pass *lint.Pass, e ast.Expr) string {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil {
		return ""
	}
	t := tv.Type
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// isLiteralZero reports whether e is the integer literal 0 (possibly
// parenthesized or written in another base).
func isLiteralZero(e ast.Expr) bool {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			break
		}
		e = p.X
	}
	lit, ok := e.(*ast.BasicLit)
	if !ok || lit.Kind != token.INT {
		return false
	}
	switch lit.Value {
	case "0", "0x0", "0X0", "0o0", "0O0", "0b0", "0B0", "00":
		return true
	}
	return false
}
