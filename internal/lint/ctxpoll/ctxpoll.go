// Package ctxpoll implements the ctxpoll analyzer: loops in the
// evaluation engine (internal/core) whose trip count is not bounded by
// the loop form itself must poll the context so cancellation and
// deadlines keep working inside long evaluations.
//
// Bounded by form: range loops, and three-clause for loops whose
// condition does not re-measure a mutable container with len()/cap()
// (a classic growing-worklist pattern). Everything else — `for {}`,
// condition-only loops, worklist loops — is suspect and must either
// reference ctx.Err()/ctx.Done() in its body, call a function that
// transitively polls (callee facts from the module call graph), or be
// annotated //ecrpq:bounded on the loop (or its own line above).
package ctxpoll

import (
	"go/ast"
	"go/types"
	"strings"

	"ecrpq/internal/lint"
)

// Analyzer is the ctxpoll check.
var Analyzer = &lint.Analyzer{Name: "ctxpoll", Run: run}

func inScope(path string) bool {
	return strings.Contains(path, "internal/core") ||
		strings.Contains(path, "/testdata/")
}

func run(pass *lint.ModulePass) {
	// boundedLines[filename] holds the lines covered by an
	// //ecrpq:bounded directive, computed once per file.
	boundedLines := make(map[string]map[int]bool)
	for _, pkg := range pass.Pkgs {
		if !inScope(pkg.Path) {
			continue
		}
		for _, f := range pkg.Files {
			name := pass.Fset.Position(f.Pos()).Filename
			boundedLines[name] = lint.DirectiveLines(pass.Fset, f, "bounded")
		}
	}
	for _, node := range pass.Graph.Funcs() {
		if !inScope(node.Pkg.Path) {
			continue
		}
		if lint.HasDirective(node.Decl.Doc, "bounded") {
			continue
		}
		ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
			loop, ok := n.(*ast.ForStmt)
			if !ok {
				return true
			}
			if boundedByForm(loop) {
				return true
			}
			pos := pass.Fset.Position(loop.Pos())
			if boundedLines[pos.Filename][pos.Line] {
				return true
			}
			if polls(pass, node, loop.Body) {
				return true
			}
			pass.Reportf(loop.Pos(), "unbounded loop in %s never polls the context (add a periodic ctx.Err() check, or annotate //ecrpq:bounded <reason>)",
				node.Func.Name())
			return true
		})
	}
}

// boundedByForm reports whether the loop's trip count is bounded by its
// syntactic form. `for {}` and condition-only loops (`for len(q) > 0`)
// are not. A three-clause loop is bounded unless its condition measures
// a container with len()/cap() that the body also reassigns — the
// growing-worklist pattern, where the bound moves as the body appends.
func boundedByForm(loop *ast.ForStmt) bool {
	if loop.Cond == nil {
		return false
	}
	if loop.Init == nil && loop.Post == nil {
		return false
	}
	measured := measuredContainers(loop.Cond)
	if len(measured) == 0 {
		return true
	}
	return !bodyGrows(loop.Body, measured)
}

// measuredContainers returns the source form of every len()/cap()
// argument in the expression.
func measuredContainers(e ast.Expr) map[string]bool {
	out := make(map[string]bool)
	ast.Inspect(e, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && (id.Name == "len" || id.Name == "cap") && len(call.Args) == 1 {
			out[types.ExprString(call.Args[0])] = true
		}
		return true
	})
	return out
}

// bodyGrows reports whether the loop body assigns to any of the measured
// containers (e.g. `q = append(q, ...)`).
func bodyGrows(body *ast.BlockStmt, measured map[string]bool) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		assign, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, lhs := range assign.Lhs {
			if measured[types.ExprString(lhs)] {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// polls reports whether the loop body references a context poll directly
// or calls a module function that transitively polls.
func polls(pass *lint.ModulePass, node *lint.FuncNode, body *ast.BlockStmt) bool {
	info := node.Pkg.TypesInfo
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		fn := lint.FuncOf(info, id)
		if fn == nil {
			return true
		}
		if lint.IsCtxPoll(fn) || pass.Graph.PollsCtx(fn) {
			found = true
			return false
		}
		return true
	})
	return found
}
