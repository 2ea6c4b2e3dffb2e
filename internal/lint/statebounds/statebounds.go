// Package statebounds implements the statebounds analyzer: in the
// automata, core and graphdb packages, state-table slices (the trans/
// accept/start/eps fields of DFA and NFA, the offsets of the database's
// forward CSR) must not be indexed with arithmetic-derived values outside
// a designated bounds-checked accessor. Packed-state decoding and mixed-radix
// arithmetic are exactly where an off-by-one silently reads a foreign
// state's row; funnelling them through accessors annotated
// //ecrpq:bounds-checked keeps every such computation next to an
// explicit invariant check.
package statebounds

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"ecrpq/internal/lint"
)

// stateFields are the slice fields treated as state-indexed tables.
var stateFields = map[string]bool{
	"trans":   true,
	"accept":  true,
	"start":   true,
	"eps":     true,
	"offsets": true,
}

// Analyzer is the statebounds check.
var Analyzer = &lint.Analyzer{
	Name: "statebounds",
	Doc: "state-table slices must not be indexed by arithmetic outside a //ecrpq:bounds-checked accessor\n\n" +
		"Applies to internal/automata, internal/core and internal/graphdb. Mark an accessor exempt by putting\n" +
		"//ecrpq:bounds-checked in its doc comment (the accessor must validate its own indices).\n" +
		"Suppress a single finding with //ecrpq:ignore statebounds -- <reason>.",
	Run: run,
}

// inScope restricts the check to the automata/core/graphdb layers; fixture
// packages (under a testdata tree) are always in scope so the analyzer
// is testable.
func inScope(path string) bool {
	return strings.HasSuffix(path, "internal/automata") ||
		strings.HasSuffix(path, "internal/core") ||
		strings.HasSuffix(path, "internal/graphdb") ||
		strings.Contains(path, "/testdata/")
}

func run(pass *lint.Pass) error {
	if !inScope(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if lint.HasDirective(fd.Doc, "bounds-checked") {
				continue // the sanctioned accessor checks its own indices
			}
			checkFunc(pass, fd.Body)
		}
	}
	return nil
}

// checkFunc flags arithmetic-derived indexing of state fields within one
// function body (closures included — they share the taint scope).
func checkFunc(pass *lint.Pass, body *ast.BlockStmt) {
	tainted := collectTainted(body)
	ast.Inspect(body, func(n ast.Node) bool {
		ix, ok := n.(*ast.IndexExpr)
		if !ok {
			return true
		}
		if !isStateTable(pass, ix.X) {
			return true
		}
		if isArithmetic(ix.Index) {
			pass.Reportf(ix.Pos(),
				"state-table index computed by arithmetic: route it through a bounds-checked accessor (//ecrpq:bounds-checked)")
		} else if id, ok := ix.Index.(*ast.Ident); ok && tainted[id.Name] {
			pass.Reportf(ix.Pos(),
				"state-table index %q derives from arithmetic: route it through a bounds-checked accessor (//ecrpq:bounds-checked)", id.Name)
		}
		return true
	})
}

// collectTainted gathers identifiers assigned from arithmetic
// expressions anywhere in the function body.
func collectTainted(body *ast.BlockStmt) map[string]bool {
	tainted := make(map[string]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		switch as.Tok {
		case token.ASSIGN, token.DEFINE:
			if len(as.Rhs) != len(as.Lhs) {
				break // multi-value form: RHS is a call, not arithmetic
			}
			for i, lhs := range as.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && isArithmetic(as.Rhs[i]) {
					tainted[id.Name] = true
				}
			}
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN,
			token.REM_ASSIGN, token.SHL_ASSIGN, token.SHR_ASSIGN:
			if id, ok := as.Lhs[0].(*ast.Ident); ok {
				tainted[id.Name] = true
			}
		}
		return true
	})
	return tainted
}

// isStateTable reports whether e names a slice field from stateFields
// (either a selector like c.offsets or a bare identifier like offsets).
func isStateTable(pass *lint.Pass, e ast.Expr) bool {
	var name string
	switch v := e.(type) {
	case *ast.SelectorExpr:
		name = v.Sel.Name
	case *ast.Ident:
		name = v.Name
	default:
		return false
	}
	if !stateFields[name] {
		return false
	}
	if tv, ok := pass.TypesInfo.Types[e]; ok && tv.Type != nil {
		_, isSlice := tv.Type.Underlying().(*types.Slice)
		return isSlice
	}
	return true
}

// isArithmetic reports whether the expression's own value is produced by
// an arithmetic operator. Arithmetic nested inside an index, call or
// slice expression (e.g. the pop idiom q := stack[len(stack)-1]) computes
// a different quantity than the resulting value and is not flagged.
func isArithmetic(e ast.Expr) bool {
	switch v := e.(type) {
	case *ast.BinaryExpr:
		switch v.Op {
		case token.ADD, token.SUB, token.MUL, token.QUO, token.REM, token.SHL, token.SHR,
			token.AND, token.OR, token.XOR, token.AND_NOT:
			return true
		}
		return false
	case *ast.ParenExpr:
		return isArithmetic(v.X)
	case *ast.UnaryExpr:
		return isArithmetic(v.X)
	}
	return false
}
