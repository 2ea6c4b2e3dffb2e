// Package alphabetguard implements the alphabetguard analyzer: edge
// labels and automaton symbols must be produced by the canonical
// internal/alphabet layer (Alphabet.Add/Lookup, the exported Pad/Unset
// sentinels), never written as raw rune, byte or integer literals typed
// as alphabet.Symbol. Hard-coded symbol values silently desynchronize
// from the alphabet's name table and defeat its validation.
package alphabetguard

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"ecrpq/internal/lint"
)

// symbolTypePath/Name identify the canonical symbol type.
const (
	symbolPkgSuffix = "internal/alphabet"
	symbolTypeName  = "Symbol"
)

// Analyzer is the alphabetguard check. It needs types: a rune literal is
// only a violation where its context adopts it as alphabet.Symbol.
var Analyzer = &lint.Analyzer{Name: "alphabetguard", Run: run}

func run(pass *lint.ModulePass) {
	for _, pkg := range pass.Pkgs {
		if !strings.HasSuffix(pkg.Path, symbolPkgSuffix) { // the alphabet layer defines the sentinels
			check(pass, pkg)
		}
	}
}

func check(pass *lint.ModulePass, pkg *lint.Package) {
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch e := n.(type) {
			case *ast.CallExpr:
				// Conversion alphabet.Symbol(<literal>) — including
				// negative literals like Symbol(-2).
				if isSymbolConversion(pkg, e) && len(e.Args) == 1 && isLiteralConst(e.Args[0]) {
					pass.Reportf(e.Pos(),
						"raw literal converted to alphabet.Symbol: obtain symbols from the Alphabet (Add/Lookup) or use an exported sentinel")
					return false // don't re-flag the literal inside
				}
			case *ast.BasicLit:
				// An untyped rune/int constant adopted as Symbol by
				// context (var decl, assignment, comparison, argument).
				if e.Kind != token.CHAR {
					return true
				}
				if tv, ok := pkg.TypesInfo.Types[e]; ok && isSymbolType(tv.Type) {
					pass.Reportf(e.Pos(),
						"rune literal used as alphabet.Symbol: symbols are alphabet indices, not character codes")
				}
			}
			return true
		})
	}
}

// isSymbolType reports whether t (or its named core) is alphabet.Symbol.
func isSymbolType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == symbolTypeName && obj.Pkg() != nil &&
		strings.HasSuffix(obj.Pkg().Path(), symbolPkgSuffix)
}

// isSymbolConversion reports whether call is a type conversion whose
// target type is alphabet.Symbol.
func isSymbolConversion(pkg *lint.Package, call *ast.CallExpr) bool {
	tv, ok := pkg.TypesInfo.Types[call.Fun]
	if !ok || !tv.IsType() {
		return false
	}
	return isSymbolType(tv.Type)
}

// isLiteralConst reports whether e is a basic literal, possibly wrapped
// in unary +/-/^ or parentheses (so Symbol(-2) and Symbol('a') count, but
// Symbol(i%k) and Symbol(rng.Intn(n)) do not).
func isLiteralConst(e ast.Expr) bool {
	switch v := e.(type) {
	case *ast.BasicLit:
		return true
	case *ast.ParenExpr:
		return isLiteralConst(v.X)
	case *ast.UnaryExpr:
		return isLiteralConst(v.X)
	}
	return false
}
