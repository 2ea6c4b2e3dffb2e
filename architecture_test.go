package ecrpq_test

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/format"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"ecrpq/internal/lint"
	"ecrpq/internal/lint/alphabetguard"
	"ecrpq/internal/lint/ctxpoll"
	"ecrpq/internal/lint/governcharge"
	"ecrpq/internal/lint/lockorder"
)

// An archRule is one structural invariant of the source tree, checked on the
// syntax of its non-test Go files.
type archRule struct {
	name string
	why  string   // what a violation means
	in   []string // package directories ("dir/..." for the tree below) or files
	skip []string // files, or directories with the tree below, the rule does not look at
	// check is called on every node of every file in scope: subject reports
	// a node the rule is about, bad what in it breaks the rule.
	check func(file string, n ast.Node) (subject bool, bad string)
	// violation is a file body (after its package clause) each of whose
	// top-level declarations the rule rejects.
	violation string
	// accepted is a file body the rule accepts: shapes it must leave alone
	// that the tree need not contain.
	accepted string
}

// onlyFrom: the function or method name is called from the listed files
// only. Its declarations and its calls are the rule's subjects.
func onlyFrom(name string, files ...string) func(string, ast.Node) (bool, string) {
	return func(file string, n ast.Node) (bool, string) {
		switch n := n.(type) {
		case *ast.FuncDecl:
			return n.Name.Name == name[strings.LastIndex(name, ".")+1:], ""
		case *ast.CallExpr:
			callee := types.ExprString(n.Fun)
			if callee != name && !strings.HasSuffix(callee, "."+name) {
				return false, ""
			}
			if slices.Contains(files, file) {
				return true, ""
			}
			return true, callee + " called"
		}
		return false, ""
	}
}

// allOf: the subjects of every check, and the first problem one finds.
func allOf(checks ...func(string, ast.Node) (bool, string)) func(string, ast.Node) (bool, string) {
	return func(file string, n ast.Node) (subject bool, bad string) {
		for _, check := range checks {
			s, b := check(file, n)
			if subject = subject || s; bad == "" {
				bad = b
			}
		}
		return subject, bad
	}
}

// never: no node that render renders as text matches pattern.
func never(render func(ast.Node) (string, bool), pattern string) func(string, ast.Node) (bool, string) {
	re := regexp.MustCompile(pattern)
	return func(_ string, n ast.Node) (bool, string) {
		text, ok := render(n)
		if ok && re.MatchString(text) {
			return true, text
		}
		return ok, ""
	}
}

// as renders the nodes of one type with text, and no other node.
func as[N ast.Node](text func(N) string) func(ast.Node) (string, bool) {
	return func(n ast.Node) (string, bool) {
		m, ok := n.(N)
		if !ok {
			return "", false
		}
		return text(m), true
	}
}

// The renderings never matches against.
var (
	names = func(n ast.Node) (string, bool) { // identifiers and string literals
		switch n := n.(type) {
		case *ast.Ident:
			return n.Name, true
		case *ast.BasicLit:
			return n.Value, n.Kind == token.STRING
		}
		return "", false
	}
	selectors   = as(func(s *ast.SelectorExpr) string { return types.ExprString(s) })
	calls       = as(func(c *ast.CallExpr) string { return types.ExprString(c) }) // "time.After(d)"
	mapTypes    = as(func(m *ast.MapType) string { return types.ExprString(m) })
	comparisons = as(func(b *ast.BinaryExpr) string { return types.ExprString(b) })
	fieldTypes  = as(func(f *ast.Field) string { return types.ExprString(f.Type) })
	funcs       = as(func(d *ast.FuncDecl) string { // "*rowIndex.key" for a method
		if d.Recv != nil {
			return types.ExprString(d.Recv.List[0].Type) + "." + d.Name.Name
		}
		return d.Name.Name
	})
)

// panics: a panic or log.Fatal call, except the re-raise of a recovered
// value, panic(r).
func panics(_ string, n ast.Node) (bool, string) {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return false, ""
	}
	text := types.ExprString(call)
	if !strings.HasPrefix(text, "panic(") && !strings.HasPrefix(text, "log.Fatal") {
		return false, ""
	}
	switch text {
	case "panic(r)", "panic(rec)", "panic(recovered)":
		return true, ""
	}
	return true, text
}

// unbudgeted: a product-search traversal begun with a literal 0 state
// budget, which the kernel reads as unlimited. The budget is the last
// argument of begin, Run, reach and witness; seek resumes under the budget
// its begin fixed.
func unbudgeted(_ string, n ast.Node) (bool, string) {
	call, ok := n.(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return false, ""
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !slices.Contains([]string{"begin", "Run", "reach", "witness"}, sel.Sel.Name) {
		return false, ""
	}
	if lit, ok := ast.Unparen(call.Args[len(call.Args)-1]).(*ast.BasicLit); ok && lit.Kind == token.INT {
		if v, err := strconv.ParseInt(lit.Value, 0, 64); err == nil && v == 0 {
			return true, types.ExprString(call)
		}
	}
	return true, ""
}

var constructor = regexp.MustCompile(`(^|\.)(New|Parse|From|Compile|Build|Union|Extend)\w*$`)

// droppedError: the error of a constructor-named call dropped, by a bare,
// go or defer statement or by assigning its last result to _.
func droppedError(_ string, n ast.Node) (bool, string) {
	var call ast.Expr
	blank := true
	switch s := n.(type) {
	case *ast.ExprStmt:
		call = s.X
	case *ast.GoStmt:
		call = s.Call
	case *ast.DeferStmt:
		call = s.Call
	case *ast.AssignStmt:
		if len(s.Rhs) != 1 {
			return false, ""
		}
		call = s.Rhs[0]
		blank = types.ExprString(s.Lhs[len(s.Lhs)-1]) == "_"
	}
	c, ok := call.(*ast.CallExpr)
	if !ok || !constructor.MatchString(types.ExprString(c.Fun)) || types.ExprString(c.Fun) == "flag.Parse" {
		return false, ""
	}
	if blank {
		return true, types.ExprString(c)
	}
	return true, ""
}

// isSpanStart: a call that opens a trace span, trace.Start* or a Start or
// StartAt method given the span's name literal.
func isSpanStart(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "trace" && strings.HasPrefix(sel.Sel.Name, "Start") {
		return true
	}
	if len(call.Args) == 0 || (sel.Sel.Name != "Start" && sel.Sel.Name != "StartAt") {
		return false
	}
	lit, ok := call.Args[0].(*ast.BasicLit)
	return ok && lit.Kind == token.STRING
}

// unendedSpans checks one function body, a nested function literal being
// its own: every span opened is bound to a variable and ended, by a
// deferred End or by an End with no return between the Start and it.
func unendedSpans(_ string, n ast.Node) (bool, string) {
	var body *ast.BlockStmt
	switch f := n.(type) {
	case *ast.FuncDecl:
		body = f.Body
	case *ast.FuncLit:
		body = f.Body
	}
	if body == nil {
		return false, ""
	}
	type span struct {
		name  string
		start token.Pos // end of the Start call
	}
	var opened []span
	var bad []string
	var returns []token.Pos
	plainEnds := map[string][]token.Pos{}
	deferredEnds := map[string]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		var call *ast.CallExpr
		switch s := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			returns = append(returns, s.Pos())
		case *ast.AssignStmt:
			if len(s.Rhs) == 1 && isSpanStart(s.Rhs[0]) {
				if v, ok := s.Lhs[len(s.Lhs)-1].(*ast.Ident); !ok || v.Name == "_" {
					bad = append(bad, "span from "+types.ExprString(s.Rhs[0])+" not bound")
				} else {
					opened = append(opened, span{v.Name, s.Rhs[0].End()})
				}
			}
		case *ast.ExprStmt:
			call, _ = s.X.(*ast.CallExpr)
		case *ast.GoStmt:
			call = s.Call
		case *ast.DeferStmt:
			call = s.Call
		}
		if call == nil {
			return true
		}
		if isSpanStart(call) {
			bad = append(bad, "span from "+types.ExprString(call)+" dropped")
		} else if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "End" {
			if v, ok := sel.X.(*ast.Ident); ok {
				_, deferred := n.(*ast.DeferStmt)
				deferredEnds[v.Name] = deferredEnds[v.Name] || deferred
				plainEnds[v.Name] = append(plainEnds[v.Name], call.Pos())
			}
		}
		return true
	})
	for _, sp := range opened {
		if deferredEnds[sp.name] {
			continue
		}
		end := token.NoPos
		for _, p := range plainEnds[sp.name] {
			if p > sp.start && (end == token.NoPos || p < end) {
				end = p
			}
		}
		if end == token.NoPos {
			bad = append(bad, "span "+sp.name+" never ended")
			continue
		}
		if slices.ContainsFunc(returns, func(r token.Pos) bool { return sp.start < r && r < end }) {
			bad = append(bad, "span "+sp.name+" left open by a return before its End")
		}
	}
	return len(opened)+len(bad) > 0, strings.Join(bad, "; ")
}

var stateTable = regexp.MustCompile(`^(trans|accept|start|eps|offsets)$`)

// arithmeticIndex checks one function: no state table (the trans, accept,
// start, eps or offsets slice) is indexed by arithmetic, or by a variable
// assigned from arithmetic, outside an accessor marked
// //ecrpq:bounds-checked, which validates its own indices.
func arithmeticIndex(_ string, n ast.Node) (bool, string) {
	fd, ok := n.(*ast.FuncDecl)
	if !ok || fd.Body == nil || lint.HasDirective(fd.Doc, "bounds-checked") {
		return false, ""
	}
	tainted := map[string]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lhs := range as.Lhs {
			switch as.Tok {
			case token.ASSIGN, token.DEFINE:
				tainted[types.ExprString(lhs)] = tainted[types.ExprString(lhs)] ||
					len(as.Rhs) == len(as.Lhs) && isArithmetic(as.Rhs[i])
			case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN,
				token.REM_ASSIGN, token.SHL_ASSIGN, token.SHR_ASSIGN:
				tainted[types.ExprString(lhs)] = true
			}
		}
		return true
	})
	subject := false
	var bad []string
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		ix, ok := n.(*ast.IndexExpr)
		if !ok {
			return true
		}
		table := ix.X
		if sel, ok := table.(*ast.SelectorExpr); ok {
			table = sel.Sel
		}
		if id, ok := table.(*ast.Ident); !ok || !stateTable.MatchString(id.Name) {
			return true
		}
		subject = true
		if _, ok := ix.Index.(*ast.Ident); isArithmetic(ix.Index) || ok && tainted[types.ExprString(ix.Index)] {
			bad = append(bad, types.ExprString(ix))
		}
		return true
	})
	return subject, strings.Join(bad, ", ")
}

// isArithmetic: the expression's own value comes from an arithmetic
// operator. Arithmetic nested in an index, call or slice expression, as in
// the pop q := stack[len(stack)-1], computes another quantity.
func isArithmetic(e ast.Expr) bool {
	switch v := e.(type) {
	case *ast.BinaryExpr:
		switch v.Op {
		case token.ADD, token.SUB, token.MUL, token.QUO, token.REM, token.SHL, token.SHR,
			token.AND, token.OR, token.XOR, token.AND_NOT:
			return true
		}
	case *ast.ParenExpr:
		return isArithmetic(v.X)
	case *ast.UnaryExpr:
		return isArithmetic(v.X)
	}
	return false
}

// sourceWalks checks one function: a loop that walks the tracks from the
// last and reads their sources, ends[2*k] — the order a sweep's source
// numeral is read in — is newAtomPattern's, which every reader of R' takes
// its digits from.
func sourceWalks(_ string, n ast.Node) (bool, string) {
	fd, ok := n.(*ast.FuncDecl)
	if !ok || fd.Body == nil {
		return false, ""
	}
	var walks []string
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		loop, ok := n.(*ast.ForStmt)
		if !ok {
			return true
		}
		if post, ok := loop.Post.(*ast.IncDecStmt); !ok || post.Tok != token.DEC {
			return true
		}
		ast.Inspect(loop.Body, func(n ast.Node) bool {
			if ix, ok := n.(*ast.IndexExpr); ok && strings.HasSuffix(types.ExprString(ix.X), "ends") &&
				sourceEnd.MatchString(types.ExprString(ix.Index)) {
				walks = append(walks, types.ExprString(ix))
			}
			return true
		})
		return true
	})
	if len(walks) == 0 {
		return false, ""
	}
	if fd.Name.Name == "newAtomPattern" {
		return true, ""
	}
	return true, strings.Join(walks, ", ")
}

var sourceEnd = regexp.MustCompile(`^2 \* \w+$`)

// hashConstant is the Fibonacci-hashing multiplier or an FNV-1a constant.
var hashConstant = regexp.MustCompile(`(?i)^(0x9E3779B97F4A7C15|1099511628211|14695981039346656037)$`)

// hashConstants checks one top-level declaration: no hash-table constant
// occurs in it.
func hashConstants(_ string, n ast.Node) (bool, string) {
	switch n.(type) {
	case *ast.FuncDecl, *ast.GenDecl:
	default:
		return false, ""
	}
	var found []string
	ast.Inspect(n, func(n ast.Node) bool {
		if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.INT && hashConstant.MatchString(lit.Value) {
			found = append(found, lit.Value)
		}
		return true
	})
	return true, strings.Join(found, ", ")
}

var archRules = []archRule{
	// Hostile input must not be able to stop or unbound the engine: library
	// code fails by error or through internal/invariant, product searches
	// carry a budget, constructors' errors are checked, spans are ended and
	// state tables are indexed through checked accessors.
	{name: "panicfree", why: "a panic or log.Fatal in library code: return an error or use internal/invariant",
		in: []string{".", "bench/...", "internal/..."}, skip: []string{"internal/invariant"}, check: panics,
		violation: `func explode() { panic("boom") }
func explodeErr(err error) error { panic(err) }
func fatal() { log.Fatal("dying") }
func fatalf() { log.Fatalf("dying: %d", 1) }
func fatalln() { log.Fatalln("dying", "again") }`,
		accepted: `func reraise(f func()) { defer func() { if r := recover(); r != nil { panic(r) } }(); f() }
func viaInvariant(n int) { invariant.Assert(n >= 0, "n must be non-negative") }`},
	{name: "boundedrun", why: "a product search with a literal 0 (unlimited) state budget",
		in: []string{"internal/core"}, check: unbudgeted,
		violation: `func unboundedMethod() error { return fp.Run(ctx, srcs, 0) }
func unboundedValueReceiver() error { return fp.Run(ctx, srcs, (0)) }
func unboundedBegin() error { return fp.begin(ctx, srcs, 0) }
func unboundedReach() (bool, error) { return fp.reach(ctx, srcs, dsts, 0b0) }
func unboundedWitness() ([]int, bool, error) { return fp.witness(ctx, srcs, dsts, 0x0) }
func unboundedBatch() error { return k.Run(ctx, 0, 0, 64, 0) }`,
		accepted: `func boundedMethod() error { return fp.Run(ctx, srcs, budget) }
func seekHasNoBudget() (bool, error) { return fp.seek(ctx, 0) }
func otherSearch() (int, error) { return searchAll(ctx, srcs, 0) }
func boundedBatch() error { return k.Run(ctx, 0, 0, 64, budget) }`},
	{name: "errcheck-strict", why: "a constructor's error dropped: a half-built automaton fails far from its cause",
		in: []string{".", "bench/...", "cmd/...", "examples/...", "internal/..."}, check: droppedError,
		violation: `func blankAssign() *query.Query { q, _ := query.ParseString("alphabet a\nx -[a]-> y"); return q }
func droppedResult() { query.ParseString("alphabet a\nx -[a]-> y") }
func blankUnion(r, s *synchro.Relation) *synchro.Relation { u, _ := r.Union(s); return u }
func blankFromNFA(a *alphabet.Alphabet) { rel, _ := synchro.FromNFA(a, 1, nil); _ = rel }
func goBuild() { go b.Build() }
func deferCompile() { defer rex.Compile(a, "a*") }`,
		accepted: `func handled() (*query.Query, error) { q, err := query.ParseString("x"); if err != nil { return nil, err }; return q, nil }
func propagated(r, s *synchro.Relation) (*synchro.Relation, error) { return r.Union(s) }
func nonConstructor(q *query.Query) { _ = q.String() }
func errorFree(a *alphabet.Alphabet) *query.Builder { return query.NewBuilder(a) }
func flags() { flag.Parse() }`},
	{name: "spanend", why: "a trace span left open: its stage's duration runs to the end of the request",
		in: []string{".", "bench/...", "cmd/...", "examples/...", "internal/..."}, check: unendedSpans,
		violation: `func dropped(ctx context.Context) { trace.StartSpan(ctx, "core/sweep") }
func blankAssigned(ctx context.Context) { _, _ = trace.StartSpan(ctx, "core/sweep") }
func neverEnded(ctx context.Context) int { _, sp := trace.StartSpan(ctx, "core/merge"); sp.SetInt("k", 1); return 1 }
func neverEndedMethod(tr *trace.Trace) { sp := tr.Start("core/prepare"); sp.SetStr("k", "v") }
func returnBetween(ctx context.Context, fail bool) error {
	_, sp := trace.StartSpan(ctx, "core/cq_join")
	if fail {
		return errors.New("early exit leaks the span")
	}
	sp.End()
	return nil
}
func deferredStart(tr *trace.Trace) { defer tr.Start("x") }
func goStart(tr *trace.Trace) { go tr.Start("x") }`,
		accepted: `func deferred(ctx context.Context) error { _, sp := trace.StartSpan(ctx, "a"); defer sp.End(); return nil }
func straightLine(ctx context.Context) error { _, sp := trace.StartSpan(ctx, "a"); sp.End(); return nil }
func chained(tr *trace.Trace, at time.Time) { tr.StartAt("pool/queue_wait", at).End() }
func closureReturnDoesNotLeak(ctx context.Context) error {
	_, sp := trace.StartSpan(ctx, "core/sweep")
	err := func() error { return errors.New("a return inside a closure is not an early exit") }()
	sp.End()
	return err
}
func closureOwnsItsSpan(ctx context.Context) error {
	return func() error { _, sp := trace.StartSpan(ctx, "core/witness"); defer sp.End(); return nil }()
}
func endOnly(sp *trace.Span) { sp.End() }
func notASpan(c *cluster.Node, loops *cluster.Loops) { c.Start(loops) }`},
	{name: "statebounds", why: "a state table indexed by arithmetic outside a //ecrpq:bounds-checked accessor",
		in: []string{"internal/automata", "internal/core", "internal/graphdb"}, check: arithmeticIndex,
		violation: `func directArithmetic(t *table, p, off int) []int { return t.trans[p+off] }
func packedDecode(t *table, v, nsym, sym int) int32 { idx := v*nsym + sym; return t.offsets[idx] }
func loopStride(t *table, workers int) (acc bool) {
	for idx := 0; idx < len(t.accept); idx += workers {
		acc = acc || t.accept[idx]
	}
	return acc
}
func bareField(offsets []int32, v, k int) int32 { return offsets[v*2+k] }`,
		accepted: `// offsetAt is the accessor for the packed rows.
//
//ecrpq:bounds-checked
func (t *table) offsetAt(v, nsym, sym int) int32 { idx := v*nsym + sym; return t.offsets[idx] }
func otherSlices(xs []int, i, j int) int { return xs[i+j] }
func popIdiom(t *table, stack []int) (acc bool) {
	for len(stack) > 0 {
		q := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		acc = acc || t.accept[q]
	}
	return acc
}`},
	// The one evaluation spine: prepare is the only compiler and mergedViews
	// the only Lemma 4.1 merge routine besides Satisfiable's.
	{name: "decompose-callers", why: "a second compiler beside prepare, Explain and Satisfiable",
		in: []string{"internal/core"}, check: onlyFrom("decompose",
			"internal/core/explain.go", "internal/core/prepared.go", "internal/core/satisfiable.go"),
		violation: "func f() { decompose(q) }"},
	{name: "merge-callers", why: "a second Lemma 4.1 merge routine",
		in: []string{"internal/core"}, check: allOf(
			onlyFrom("mergeComponent", "internal/core/reduction_build.go", "internal/core/satisfiable.go"),
			onlyFrom("synchro.Merge", "internal/core/component.go"),
			never(selectors, `^synchro\.Join$`)),
		violation: `func f() { mergeComponent(ctx, a, c, nil) }
func g() { synchro.Merge(ctx, a, 2, rels, vars, nil) }
func h() { synchro.Join(a, 2, rels, vars) }`},
	{name: "compile-callers", why: "a join compiled outside prepare",
		in: []string{"internal/core"}, check: onlyFrom("cq.Compile", "internal/core/prepared.go"),
		violation: "func f() { cq.Compile(q) }"},
	{name: "backtrack-callers", why: "the reference evaluator called at run time",
		in: []string{"internal/cq", "internal/core"}, check: onlyFrom("EvalBacktrack", "internal/cq/eval.go"),
		violation: "func f() { cq.EvalBacktrack(ctx, s, q) }"},
	// The one write pipeline: every register and drop is Server.install or
	// Server.remove, and periodic work is a body handed to cluster.Loops.
	{name: "install-callers", why: "a registry install outside Server.install",
		in: []string{"internal/server"}, check: onlyFrom("dbs.install", "internal/server/write.go"),
		violation: "func f() { s.dbs.install(e) }"},
	{name: "remove-callers", why: "a registry remove outside Server.remove",
		in: []string{"internal/server"}, check: onlyFrom("dbs.remove", "internal/server/write.go"),
		violation: "func f() { s.dbs.remove(name) }"},
	{name: "timers", why: "a timer outside the loop runner",
		in: []string{"internal/server/...", "internal/cluster"}, skip: []string{"internal/cluster/loop.go"},
		check:     never(calls, `^time\.(NewTimer|NewTicker|Tick|After|AfterFunc)\(`),
		violation: "func f() { <-time.After(d) }"},
	// The one node-variable join: both strategies run the walk, the Generic
	// one with no tables, and nothing but the walk's own file runs it.
	{name: "one-node-join", why: "a second node-variable join or top-down pass beside the walk, or the walk run outside enumerate.go, stream.go and the Plan's file",
		in: []string{"internal/core", "internal/cq"}, check: allOf(
			never(names, `^(genericSearch|newGenericSearch|genericComp|evalGeneric|decideCandidates|componentSearch|compReady|walkStep)$`),
			never(funcs, `^\*run\.(witness|project)$`),
			onlyFrom("cq.StreamAssignments", "internal/core/enumerate.go"),
			onlyFrom("cq.StreamAnswers", "internal/core/enumerate.go"),
			onlyFrom("planStream", "internal/cq/stream.go", "internal/cq/plan.go")),
		violation: `func (g *genericSearch) decide(ctx context.Context) (bool, error) { return g.rec(0), nil }
func answers(src cq.AtomSource, q *cq.Query) error { return cq.StreamAnswers(src, q, nil, nil) }
func (r *run) witness() (Assignment, bool, error) { return nil, false, nil }
func (r *run) project(b int, t *flatTable, cols []int) error { return nil }
type walkStep struct{ bag int }
func (r *run) front(q *Query) { planStream(q, true) }`},
	// The Lemma 4.2 product search: one kernel (fastproduct.go) over the
	// layout the database owns, its tables flat and sized by what it meets.
	{name: "one-product-kernel", why: "a second product engine, a per-evaluation adjacency table or a guessed entry size",
		in:        []string{"internal/core"},
		check:     never(names, `productSearch|productState|sweepUnpacked|buildAdjacency|fastStateMapBytes`),
		violation: "func buildAdjacency() {}"},
	{name: "no-map-kernel-table", why: "a map-backed kernel table or state interning",
		in: []string{"internal/core", "internal/synchro"}, check: never(mapTypes, `^map\[uint64\]|^map\[\w+\]int32$`),
		violation: `var seen map[uint64]int32
type builder[K comparable] struct{ ids map[K]int32 }
var ids = make(map[string]int32)`,
		accepted: `var seen = make(map[[2]uint64]bool)
var names map[string]int`},
	{name: "no-stored-letters", why: "stored witness letters: the witness is read off the search",
		in: []string{"internal/core"}, check: never(selectors, `\.letters$`),
		violation: "func f() { _ = k.letters }"},
	{name: "kernel-nil-is-not-yet", why: "a caller asks whether a kernel exists: nil means only not yet built",
		in: []string{"internal/core"}, check: never(comparisons, `\bfp == nil$`),
		violation: "func f() bool { return c.fp == nil }"},
	// Every kernel walks one automaton per component, the Lemma 4.1 merge:
	// no product over several relation automata, and no switch to choose one.
	{name: "one-automaton-per-component", why: "a product over several relation automata or a knob to skip the merge",
		in:        []string{"internal/core"},
		check:     never(names, `^(overRels|radix|acceptState|relStates|nfaViews|EagerMerge)$`),
		violation: "func f(p *productStep) { p.overRels(0) }"},
	{name: "relation-tracks", why: "a relation's own tracks read outside decompose, the merge and the first-letter analysis",
		in: []string{"internal/core"}, skip: []string{"internal/core/component.go", "internal/core/reduction_build.go", "internal/core/pushdown.go"},
		check:     never(names, `^relTracks$`),
		violation: "func f(c *component) int { return len(c.relTracks) }"},
	{name: "nfa-view-callers", why: "a kernel automaton other than the merged table: a relation's own table is read only by the first-letter analysis",
		in: []string{"internal/core"}, check: onlyFrom("Table", "internal/core/pushdown.go"),
		violation: "func f(r *synchro.Relation) *synchro.Table { return r.Table() }"},
	{name: "integer-letters", why: "a letter packed into or decoded from a string key: the merge hands core symbol tuples",
		in: []string{"internal/core"}, check: never(selectors, `^alphabet\.TupleFromKey$|\.Key$`),
		violation: `func f(t alphabet.Tuple) string { return t.Key() }
func g(k string) (alphabet.Tuple, error) { return alphabet.TupleFromKey(k) }`},
	// The engine runs on its caller's goroutine: the server's pool runs
	// requests side by side, and the sweep's lanes are its only parallelism.
	// The join's and the kernels' scratch pools keep their sync.Pool and
	// their atomic count of scratches out.
	{name: "engine-goroutine-free", why: "a goroutine or goroutine group in the engine: an evaluation runs on its caller's goroutine",
		in: []string{"internal/core", "internal/cq", "internal/synchro", "internal/rowset"}, check: allOf(
			never(as(func(g *ast.GoStmt) string { return "go " + types.ExprString(g.Call) }), `^go `),
			never(names, `^(WaitGroup|errgroup)$|/errgroup"$`)),
		violation: `import "golang.org/x/sync/errgroup"
func fanOut(work []func()) {
	for _, f := range work {
		go f()
	}
}
type sweep struct{ wg sync.WaitGroup }
func group() *errgroup.Group { return nil }`,
		accepted: `type scratchPool[T kernelScratch] struct {
	pool sync.Pool
	out  atomic.Int64
}
var table = sync.OnceValue(func() int { return 0 })
func goFirst(goroutines int) int { return goroutines }`},
	// The Lemma 4.3 sweep: R' is int32 values back to back from the sweep's
	// emit to the join's scan.
	{name: "rows-no-header", why: "a slice header per row",
		in: []string{"internal/cq/cq.go"}, check: never(fieldTypes, `^\[\]\[\]int$`),
		violation: "type r struct{ rows [][]int }"},
	{name: "rows-int32", why: "the sweep's rows and scratch are int32, not 8 bytes per vertex id",
		in: []string{"internal/core/reduction_build.go"}, check: never(calls, `^make\(\[\]int,`),
		violation: "func f() { _ = make([]int, 4) }"},
	{name: "one-source-order", why: "a second computation of the sweep's source digits: both readers of R' take them from newAtomPattern",
		in: []string{"internal/core"}, check: sourceWalks,
		violation: `func digitsAgain(c *component) (d []int) {
	for k := len(c.tracks) - 1; k >= 0; k-- {
		if !slices.Contains(d, c.ends[2*k]) {
			d = append(d, c.ends[2*k])
		}
	}
	return d
}
func bareEnds(ends []int, t int) (d []int) {
	for k := t - 1; k >= 0; k-- {
		d = append(d, ends[2*k])
	}
	return d
}`,
		accepted: `func columnOrder(t int) (o []int) {
	for k := t - 1; k >= 0; k-- {
		o = append(o, 2*k)
	}
	return o
}
func destinations(c *component, vals []int) (d []int) {
	for k := len(c.tracks) - 1; k >= 0; k-- {
		d = append(d, vals[c.ends[2*k+1]])
	}
	return d
}
func forward(c *component, vals []int) (s []int) {
	for k := range c.tracks {
		s = append(s, vals[c.ends[2*k]])
	}
	return s
}`},
	// Plain reachability has no evaluator of its own: a path variable in no
	// non-universal atom is a one-track Σ* component.
	{name: "no-pinned-reduction", why: "the pinned-reduction relations or a free-track evaluator",
		in:        []string{"internal/core"},
		check:     never(names, `__pin_|__reach|freeTrack|anyReach|anyPath|reachStream|reachCache`),
		violation: `var r = "__pin_x"`},
	{name: "planner-no-free-tracks", why: "the planner costs free tracks apart from components",
		in: []string{"internal/planner"}, check: never(names, `FreeTracks`),
		violation: "func f(c Cost) int { return c.FreeTracks }"},
	// A plan decision costs O(query): database facts come from the
	// stats.Catalog computed at registration, never from the graph itself.
	{name: "planner-reads-catalog", why: "the planner reads the database instead of the stats catalog",
		in: []string{"internal/planner"}, check: never(func(n ast.Node) (string, bool) {
			if imp, ok := n.(*ast.ImportSpec); ok {
				return imp.Path.Value, true
			}
			return selectors(n)
		}, `^"ecrpq/internal/(graphdb|persist)"$|^graphdb\.`),
		violation: `import _ "ecrpq/internal/graphdb"`},
	// Enumeration is push iteration: each stage yields to a callback and
	// releases with defer. The one value that must be closed, the pull view
	// *core.Enumeration, is made in one place and opened by one caller.
	{name: "enumerate-callers", why: "an enumeration opened outside the /v1/enumerate page loop",
		in: []string{"internal/core", "internal/server"}, check: onlyFrom("Enumerate", "internal/server/enumerate.go"),
		violation: "func f() { it, _ := p.Enumerate(ctx, db); it.Close() }"},
	{name: "one-pull-boundary", why: "a second pull view of a push walk",
		in: []string{".", "cmd/...", "examples/...", "internal/..."}, check: onlyFrom("iter.Pull", "internal/core/enumerate.go"),
		violation: "func f() { next, stop := iter.Pull(seq) }"},
	{name: "no-pull-combinators", why: "a pull-iterator combinator or state machine beside the push walk",
		in:        []string{"internal/core", "internal/cq", "internal/server"},
		check:     never(names, `^(NestedLoop|HashJoin|Metered|compStream|pinnedEnum)$`),
		violation: "func f() { stream.HashJoin(probe, build, nil, nil, nil) }"},
	// The Prop 2.3 join: one evaluator beside the reference, integer keys.
	{name: "no-candidate-engine", why: "a candidate-guessing answers engine beside the walk",
		in: []string{"internal/cq"}, check: never(names, `^(candidate|cand)$`),
		violation: "func f() { w.candidate(row) }"},
	{name: "join-keys-not-strings", why: "the join, its walk or a relation index builds string keys",
		in: []string{"internal/cq"}, check: allOf(
			never(funcs, `^(key|appendKey)$`),
			never(calls, `^string\(`),
			never(as(func(st *ast.StructType) string { return types.ExprString(st) }), `\bmap\[string\](bool|int32)\b`)),
		violation: `func appendKey(b []byte, v int32) []byte { return b }
func key(tuple []int) string { return string(encode(tuple)) }
type Relation struct{ index map[string]bool }`,
		accepted: `type Structure struct{ rels map[string]*Relation }
func vars(q *Query) map[string]bool { return make(map[string]bool) }
func (x *rowIndex) key(row []int32) []int32 { return row }`},
	// The integer tuples the engine numbers — merged product states, wide
	// kernel states, join keys, relation rows, walk memo keys, and the
	// kernels' hashed keys, each a row of its two 32-bit halves — get their
	// ids from rowset.Set.
	{name: "one-row-table", why: "an open-addressing row table (the Fibonacci slot multiplier or an FNV fold) beside rowset.Set",
		in: []string{"internal/core", "internal/cq", "internal/synchro"}, check: hashConstants,
		violation: `func (x *rowIndex) slot(k uint64) int { return int(k * 0x9E3779B97F4A7C15 >> 60) }
func hashRow(row []int32) (h uint64) {
	h = 14695981039346656037
	for _, v := range row {
		h = (h ^ uint64(v)) * 1099511628211
	}
	return h
}
const fnvPrime = 1099511628211`,
		accepted: `func (x *keyIndex) number(key uint64) (int, bool) { return x.rows.Add([]int32{int32(key >> 32), int32(key)}) }
func mix(x uint64) uint64 { return x * 0x9E3779B9 }`},
	// Nor does a map keyed by a tuple stand in for one: an integer array as
	// the key, or a key built from bytes by binary's Append functions.
	{name: "no-tuple-map-keys", why: "an integer tuple as a map key (an integer array, or bytes built by binary.*Append*) beside rowset.Set",
		in:    []string{"internal/core", "internal/cq", "internal/synchro"},
		check: allOf(never(mapTypes, `^map\[\[\w*\](u?int\d*|byte)\]`), never(calls, `^binary\.\w+\.Append\w*\(`)),
		violation: `var seen = make(map[[2]uint64]bool)
type memo struct{ lists map[[3]int32][]int }
func key(buf []byte, v int) []byte { return binary.LittleEndian.AppendUint32(buf, uint32(v)) }`,
		accepted: `var names map[string]int
type structure struct{ rels map[string]*Relation }
func word(b []byte) uint32 { return binary.LittleEndian.Uint32(b) }`},
}

// TestArchitecture checks every rule on the tree, on its violation and on
// what it accepts: a rule that sees nothing in the tree, or accepts a
// declaration of its violation, proves nothing.
func TestArchitecture(t *testing.T) {
	fset := token.NewFileSet()
	files := repoFiles(t, fset)
	for _, r := range archRules {
		t.Run(r.name, func(t *testing.T) {
			subjects := 0
			for _, path := range goFiles(t, r.in...) {
				if slices.ContainsFunc(r.skip, func(s string) bool { return path == s || strings.HasPrefix(path, s+"/") }) {
					continue
				}
				for _, bad := range r.problems(fset, path, files[path], &subjects) {
					t.Errorf("%s: %s", bad, r.why)
				}
			}
			if subjects == 0 {
				t.Errorf("no subject in %v: the rule is looking at nothing", r.in)
			}
			violation := "package p\n" + r.violation
			for _, decl := range parseSource(t, fset, "violation.go", violation).Decls {
				if len(r.problems(fset, "violation.go", decl, new(int))) == 0 {
					from, to := fset.Position(decl.Pos()).Offset, fset.Position(decl.End()).Offset
					t.Errorf("the rule accepts %q of its violation", violation[from:to])
				}
			}
			accepted := parseSource(t, fset, "accepted.go", "package p\n"+r.accepted)
			for _, bad := range r.problems(fset, "accepted.go", accepted, new(int)) {
				t.Errorf("the rule rejects a shape it must accept: %s", bad)
			}
		})
	}
	t.Run("make-targets", func(t *testing.T) { testMakeTargets(t, files) })
	t.Run("fuzz-targets", func(t *testing.T) { testFuzzTargets(t, files) })
	t.Run("doc-identifiers", func(t *testing.T) { testDocIdentifiers(t, files) })
	// The module, type-checked once for the two rules that need types.
	var root struct {
		once   sync.Once
		loader *lint.Loader
		pkgs   []*lint.Package
	}
	loadRoot := func(t *testing.T) (*lint.Loader, []*lint.Package) {
		root.once.Do(func() { root.loader, root.pkgs = loadModule(t, ".", "./...") })
		if root.loader == nil {
			t.Fatal("the module did not load")
		}
		return root.loader, root.pkgs
	}
	t.Run("no-idle-exports", func(t *testing.T) { testNoIdleExports(t, fset, files, loadRoot) })
	t.Run("gofmt", testGofmt)
	t.Run("mutants-apply", func(t *testing.T) { testMutantsApply(t, files) })
	t.Run("module-analyzers", func(t *testing.T) { testModuleAnalyzers(t, loadRoot) })
}

// testMutantsApply: every patch of testdata/mutants/ (`make mutants` runs
// them) names a package and a -run pattern matching one of its tests, and
// each hunk's context and removed lines are still a block of its file, so
// code that moves takes its mutants with it.
func testMutantsApply(t *testing.T, files map[string]*ast.File) {
	patches, err := filepath.Glob("testdata/mutants/*.patch")
	if err != nil {
		t.Fatal(err)
	}
	if len(patches) == 0 {
		t.Fatal("no mutant in testdata/mutants: the rule is looking at nothing")
	}
	for _, p := range patches {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, bad := range mutantProblems(string(b), files) {
			t.Errorf("%s: %s", p, bad)
		}
	}
	stale := "Package: ./internal/core/\nRun: ^TestNoSuch$\n\n--- a/go.mod\n+++ b/go.mod\n@@ -1 +1 @@\n-module elsewhere\n+module ecrpq\n"
	if len(mutantProblems(stale, files)) < 2 {
		t.Error("the rule accepts a mutant of no test whose hunk matches nothing")
	}
}

// mutantProblems checks one patch: its header and every hunk.
func mutantProblems(patch string, files map[string]*ast.File) []string {
	var out []string
	header, body, _ := strings.Cut(patch, "\n--- a/")
	field := func(name string) string {
		m := regexp.MustCompile(`(?m)^` + name + `: (.+)$`).FindStringSubmatch(header)
		if m == nil {
			out = append(out, "no "+name+": line")
			return ""
		}
		return m[1]
	}
	pkg, run := strings.Trim(field("Package"), "./"), field("Run")
	if re, err := regexp.Compile(run); err != nil || run == "" {
		out = append(out, fmt.Sprintf("Run: %q is not a pattern", run))
	} else {
		tests := 0
		for path, f := range files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && filepath.Dir(path) == pkg && strings.HasPrefix(fd.Name.Name, "Test") && re.MatchString(fd.Name.Name) {
					tests++
				}
			}
		}
		if tests == 0 {
			out = append(out, fmt.Sprintf("Run: %s names no test of %s", run, pkg))
		}
	}
	for _, file := range strings.Split("\n--- a/"+body, "\n--- a/")[1:] {
		path, hunks, _ := strings.Cut(file, "\n")
		src, err := os.ReadFile(path)
		if err != nil {
			out = append(out, err.Error())
			continue
		}
		for _, hunk := range strings.Split(hunks, "\n@@")[1:] {
			var old []string
			for _, line := range strings.Split(hunk, "\n")[1:] {
				if strings.HasPrefix(line, " ") || strings.HasPrefix(line, "-") {
					old = append(old, line[1:])
				}
			}
			if block := strings.Join(old, "\n") + "\n"; !strings.Contains(string(src), block) {
				out = append(out, fmt.Sprintf("a hunk of %s no longer matches it:\n%s", path, block))
			}
		}
	}
	return out
}

// problems walks root with the rule's check, counting subjects, and
// returns each rejected node with its position.
func (r archRule) problems(fset *token.FileSet, file string, root ast.Node, subjects *int) []string {
	var out []string
	ast.Inspect(root, func(n ast.Node) bool {
		subject, bad := r.check(file, n)
		if subject {
			*subjects++
		}
		if bad != "" {
			out = append(out, fmt.Sprintf("%s: %s", fset.Position(n.Pos()), bad))
		}
		return true
	})
	return out
}

func parseSource(t *testing.T, fset *token.FileSet, name, src string) *ast.File {
	f, err := parser.ParseFile(fset, name, src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// goFiles lists the non-test Go files of the named directories and files,
// relative to the module root.
func goFiles(t *testing.T, in ...string) []string {
	var out []string
	for _, p := range in {
		if strings.HasSuffix(p, ".go") {
			out = append(out, p)
			continue
		}
		root, deep := strings.CutSuffix(p, "/...")
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			switch {
			case err != nil:
				return err
			case d.IsDir() && path != root && (!deep || d.Name() == "testdata"):
				return filepath.SkipDir
			case !d.IsDir() && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go"):
				out = append(out, filepath.ToSlash(path))
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// testGofmt: go/format.Source returns every Go file of the repository
// unchanged, bench/ and testdata included.
func testGofmt(t *testing.T) {
	checked := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != "." && strings.HasPrefix(d.Name(), "."):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, ".go"):
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		checked++
		if !gofmtted(src) {
			t.Errorf("%s is not gofmt-formatted: run gofmt -w %s", path, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if checked == 0 {
		t.Error("no Go file found: the rule is looking at nothing")
	}
	if gofmtted([]byte("package p\nfunc f()  {}\n")) {
		t.Error("the rule accepts an unformatted file")
	}
}

func gofmtted(src []byte) bool {
	out, err := format.Source(src)
	return err == nil && bytes.Equal(out, src)
}

// makeMention finds a `make <target>` in prose: after a backtick, alone on
// a line of a shell block, or any hyphenated target.
var makeMention = regexp.MustCompile("(?m)`make ([a-z][a-z0-9-]*)|^[ \t]*make ([a-z][a-z0-9-]*)[ \t]*(?:#|$)|\\bmake ([a-z0-9]+-[a-z0-9-]+)")

// makeDocs are the documents that tell a reader which make target checks
// what. bench/ is its own module with its own README.
var makeDocs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"}

// testMakeTargets: every make target the documents or a Go comment name is
// a target of the Makefile.
func testMakeTargets(t *testing.T, files map[string]*ast.File) {
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^([a-z][a-z0-9-]*):`).FindAllStringSubmatch(string(makefile), -1) {
		targets[m[1]] = true
	}
	unknown := func(text string) []string {
		var out []string
		for _, m := range makeMention.FindAllStringSubmatch(text, -1) {
			if target := m[1] + m[2] + m[3]; !targets[target] {
				out = append(out, target)
			}
		}
		return out
	}
	texts := map[string]string{}
	for _, doc := range makeDocs {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		texts[doc] = string(b)
	}
	for path, f := range files {
		if !strings.HasPrefix(path, "bench/") { // its own module, with its own README
			for _, c := range f.Comments {
				texts[path] += c.Text()
			}
		}
	}
	mentions := 0
	for path, text := range texts {
		mentions += len(makeMention.FindAllString(text, -1))
		for _, target := range unknown(text) {
			t.Errorf("%s names `make %s`, which the Makefile does not define", path, target)
		}
	}
	if mentions == 0 {
		t.Error("no make target named anywhere: the rule is looking at nothing")
	}
	if violation := "run `make no-such-gate`"; len(unknown(violation)) == 0 {
		t.Errorf("the rule accepts its violation %q", violation)
	}
}

// repoFiles parses, with comments, every Go file of the repository, tests
// and the bench/ module included, outside testdata and hidden directories.
func repoFiles(t *testing.T, fset *token.FileSet) map[string]*ast.File {
	files := map[string]*ast.File{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, ".go"):
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		files[filepath.ToSlash(path)] = f
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// fuzzSmoke matches a line of the Makefile's fuzz-smoke recipe: its -fuzz
// pattern and its package directory.
var fuzzSmoke = regexp.MustCompile(`(?m)^\t.*-fuzz (\S+) .*\./(\S+?)/?$`)

// testFuzzTargets: every fuzz target outside bench/ is named by exactly
// one fuzz-smoke line, and every fuzz-smoke line names a target.
func testFuzzTargets(t *testing.T, files map[string]*ast.File) {
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	_, recipe, ok := strings.Cut(string(makefile), "\nfuzz-smoke:")
	if !ok {
		t.Fatal("the Makefile has no fuzz-smoke target")
	}
	recipe, _, _ = strings.Cut(recipe, "\n\n")
	targets := map[string][]string{} // package directory → its Fuzz functions
	for path, f := range files {
		if strings.HasPrefix(path, "bench/") {
			continue
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && strings.HasPrefix(fd.Name.Name, "Fuzz") {
				targets[filepath.Dir(path)] = append(targets[filepath.Dir(path)], fd.Name.Name)
			}
		}
	}
	problems := fuzzProblems(recipe, targets)
	for _, p := range problems {
		t.Error(p)
	}
	if len(targets) == 0 {
		t.Error("no fuzz target in the tree: the rule is looking at nothing")
	}
	violation := recipe + "\n\t$(GO) test -fuzz FuzzNoSuch -fuzztime $(FUZZTIME) ./internal/query/"
	if len(fuzzProblems(violation, targets)) == len(problems) {
		t.Errorf("the rule accepts a fuzz-smoke line naming no target")
	}
}

// fuzzProblems matches the recipe's lines against the targets.
func fuzzProblems(recipe string, targets map[string][]string) []string {
	var out []string
	lines := map[string]int{} // "dir.Target" → fuzz-smoke lines naming it
	for _, m := range fuzzSmoke.FindAllStringSubmatch(recipe, -1) {
		pattern := regexp.MustCompile(strings.ReplaceAll(m[1], "$$", "$"))
		named := 0
		for _, target := range targets[m[2]] {
			if pattern.MatchString(target) {
				named++
				lines[m[2]+"."+target]++
			}
		}
		if named != 1 {
			out = append(out, fmt.Sprintf("fuzz-smoke line -fuzz %s ./%s/ names %d targets, want 1", m[1], m[2], named))
		}
	}
	for dir, names := range targets {
		for _, target := range names {
			if n := lines[dir+"."+target]; n != 1 {
				out = append(out, fmt.Sprintf("%s.%s is named on %d fuzz-smoke lines, want 1", dir, target, n))
			}
		}
	}
	return out
}

var (
	// docName is a backticked token shaped like a Go name: dotted identifiers.
	docName  = regexp.MustCompile(`^[A-Za-z_]\w*(\.[A-Za-z_]\w*)*$`)
	backtick = regexp.MustCompile("`([^`]*)`")
	word     = regexp.MustCompile(`\w+`)
)

// testDocIdentifiers: a Go name the documents put in backticks, one with
// an uppercase letter, a dot or an underscore, ends in an identifier or a
// string-literal word of the repository's Go code, so a rename cannot leave
// the prose pointing at nothing.
func testDocIdentifiers(t *testing.T, files map[string]*ast.File) {
	known := map[string]bool{}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				known[n.Name] = true
			case *ast.BasicLit:
				if n.Kind == token.STRING {
					for _, w := range word.FindAllString(n.Value, -1) {
						known[w] = true
					}
				}
			}
			return true
		})
	}
	checked := 0
	for _, doc := range makeDocs {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		names := docNames(string(text))
		checked += len(names)
		for _, name := range names {
			if !known[name[strings.LastIndex(name, ".")+1:]] {
				t.Errorf("%s names `%s`, which no identifier or string literal of the code ends in", doc, name)
			}
		}
	}
	if checked == 0 {
		t.Error("no Go name in the documents: the rule is looking at nothing")
	}
	// Spelled in two parts so that the code does not define the name.
	if name := "NoSuch" + "Function"; len(docNames("call `core."+name+"`")) != 1 || known[name] {
		t.Errorf("the rule accepts its violation `core.%s`", name)
	}
}

// idleAllowed are the exports whose callers the rule cannot see, with why:
// interface methods the standard library calls, and a name only testdata
// spells. A method entry is the method's name, any other pkg.Name.
var idleAllowed = map[string]string{
	"Unwrap":         "errors.Is and errors.As call it on an *invariant.Violation",
	"MarshalJSON":    "encoding/json calls it on a planner.Decision",
	"alphabet.Unset": "internal/lint's alphabetguard fixture, under testdata, names it",
}

// testNoIdleExports: every exported top-level func, method, type, var and
// const of a non-test file under internal/ is referenced outside its own
// declaration, from a non-test file anywhere in the repository or from a
// test of another package. An export only its own package's tests call is
// code the system does not run: delete it, or move it to those tests.
func testNoIdleExports(t *testing.T, fset *token.FileSet, files map[string]*ast.File, loadRoot func(*testing.T) (*lint.Loader, []*lint.Package)) {
	loader, pkgs := loadRoot(t)
	idle, exports, allowed := idleExports(fset, files, methodUses(t, loader, pkgs))
	for _, bad := range idle {
		t.Errorf("%s has no caller outside its own package's tests", bad)
	}
	if exports == 0 {
		t.Error("no exported declaration under internal/: the rule is looking at nothing")
	}
	for key := range idleAllowed {
		if !allowed[key] {
			t.Errorf("idleAllowed holds %s, which the tree no longer needs", key)
		}
	}
	// A fixture is a module of its own, type-checked as the tree is.
	fixture := func(srcs map[string]string) (map[string]*ast.File, map[methodKey][]string) {
		dir := t.TempDir()
		out := map[string]*ast.File{}
		for path, src := range srcs {
			out[path] = parseSource(t, fset, path, src)
			if err := os.MkdirAll(filepath.Join(dir, filepath.Dir(path)), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, path), []byte(src), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module ecrpq\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		loader, pkgs := loadModule(t, dir, "./...")
		return out, methodUses(t, loader, pkgs)
	}
	// Tested is called only by its own package's test; Used shares a name
	// with a method code calls, which does not make it live.
	violation, uses := fixture(map[string]string{
		"internal/p/p.go":      "package p\nfunc Idle() {}\ntype T struct{}\nfunc (T) Tested() {}\nfunc (*T) Used() {}\ntype U struct{}\nfunc (U) Used() {}\nvar _ = U{}.Used\n",
		"internal/p/p_test.go": "package p\nfunc TestIdle() { Idle(); T{}.Tested() }\n",
	})
	if idle, _, _ := idleExports(fset, violation, uses); len(idle) != 4 {
		t.Errorf("the rule reports %q of its violation, want Idle, T, T.Tested and T.Used", idle)
	}
	accepted, uses := fixture(map[string]string{
		"internal/p/p.go":      "package p\nfunc FromTest() {}\nfunc FromCode() int { return helper() }\nfunc helper() int { return Local }\nconst Local = 1\ntype V struct{}\nfunc (V) Method() {}\ntype I interface{ Method() }\nvar _ I = V{}\n",
		"internal/q/q.go":      "package q\n",
		"internal/q/q_test.go": "package q\nimport \"ecrpq/internal/p\"\nfunc TestQ() { p.FromTest() }\n",
		"cmd/c/main.go":        "package main\nimport r \"ecrpq/internal/p\"\nfunc main() { r.FromCode(); var i r.I; i.Method() }\n",
	})
	if idle, _, _ := idleExports(fset, accepted, uses); len(idle) != 0 {
		t.Errorf("the rule rejects shapes it must accept: %q", idle)
	}
}

// methodKey names a method by its package's directory, its receiver's type
// and its own name; a call through an interface names only the method.
type methodKey struct{ dir, recv, name string }

// methodUses type-checks the tests of the loaded packages as go test builds
// them, and maps each method a selector in the packages or their tests
// resolves to onto the directories of the test files that select it — ""
// for a non-test file. A call through an interface counts for every method
// of its name.
func methodUses(t *testing.T, loader *lint.Loader, pkgs []*lint.Package) map[methodKey][]string {
	var checked []*lint.Package
	for _, pkg := range pkgs {
		tests, err := loader.LoadTests(pkg.Dir)
		if err != nil {
			t.Fatal(err)
		}
		checked = append(append(checked, pkg), tests...)
	}
	uses := map[methodKey][]string{}
	for _, pkg := range checked {
		for _, err := range pkg.Errors {
			t.Fatalf("%s: %v", pkg.Path, err)
		}
		for _, f := range pkg.Files {
			rel, err := filepath.Rel(loader.ModuleDir, pkg.Fset.Position(f.Pos()).Filename)
			if err != nil {
				t.Fatal(err)
			}
			from := "" // what a use in this file records
			if strings.HasSuffix(rel, "_test.go") {
				from = filepath.ToSlash(filepath.Dir(rel))
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					if s := pkg.TypesInfo.Selections[sel]; s != nil {
						if fn, ok := s.Obj().(*types.Func); ok {
							key := methodKeyOf(fn)
							uses[key] = append(uses[key], from)
						}
					}
				}
				return true
			})
		}
	}
	return uses
}

// methodKeyOf is the key of a method of a named type, and of a method of an
// interface only its name.
func methodKeyOf(fn *types.Func) methodKey {
	recv := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || types.IsInterface(named) || named.Obj().Pkg() == nil {
		return methodKey{name: fn.Name()}
	}
	dir := strings.TrimPrefix(strings.TrimPrefix(named.Obj().Pkg().Path(), "ecrpq"), "/")
	if dir == "" {
		dir = "."
	}
	return methodKey{dir, named.Obj().Name(), fn.Name()}
}

// idleExports lists the exported declarations under internal/ that nothing
// but their own package's tests references, counts the exports it saw and
// returns the idleAllowed entries it needed. A package-level name resolves
// through the import name of the file that spells it, or bare inside its
// own package; a method through uses (methodUses), from any file but its
// own package's tests.
func idleExports(fset *token.FileSet, files map[string]*ast.File, uses map[methodKey][]string) (idle []string, exports int, allowed map[string]bool) {
	allowed = map[string]bool{}
	type name struct{ dir, name string }
	pkgs := map[string]string{} // package directory → package name
	for path, f := range files {
		if !strings.HasSuffix(path, "_test.go") {
			pkgs[filepath.Dir(path)] = f.Name.Name
		}
	}
	used := map[name]bool{} // package-level names referenced
	for path, f := range files {
		dir, test := filepath.Dir(path), strings.HasSuffix(path, "_test.go")
		imports := map[string]string{} // import name → package directory
		for _, spec := range f.Imports {
			p, _ := strconv.Unquote(spec.Path.Value)
			if rel, ok := strings.CutPrefix(p, "ecrpq/"); ok {
				imports[pkgs[rel]] = rel
				if spec.Name != nil {
					imports[spec.Name.Name] = rel
				}
			}
		}
		var decls []ast.Node // a func, or one spec of a declaration block
		for _, d := range f.Decls {
			if g, ok := d.(*ast.GenDecl); ok {
				for _, spec := range g.Specs {
					decls = append(decls, spec)
				}
			} else {
				decls = append(decls, d)
			}
		}
		for _, d := range decls {
			own := map[string]bool{} // what d declares: its own uses of them do not count
			var visit func(n ast.Node) bool
			visit = func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					own[n.Name.Name] = true
					ast.Inspect(n.Type, visit) // not the receiver: a method does not use its type
					if n.Body != nil {
						ast.Inspect(n.Body, visit)
					}
					return false
				case *ast.TypeSpec:
					own[n.Name.Name] = true
				case *ast.ValueSpec:
					for _, id := range n.Names {
						own[id.Name] = true
					}
				case *ast.Field: // its names declare, its type uses
					ast.Inspect(n.Type, visit)
					return false
				case *ast.SelectorExpr:
					if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
						if pkg := imports[x.Name]; !test || pkg != dir {
							used[name{pkg, n.Sel.Name}] = true
						}
						return false
					}
					ast.Inspect(n.X, visit)
					return false
				case *ast.Ident:
					if !test && !own[n.Name] {
						used[name{dir, n.Name}] = true
					}
				}
				return true
			}
			ast.Inspect(d, visit)
		}
	}
	for path, f := range files {
		dir := filepath.Dir(path)
		if !strings.HasPrefix(path, "internal/") || strings.HasSuffix(path, "_test.go") {
			continue
		}
		pkg := f.Name.Name + "."
		report := func(id *ast.Ident, live bool, key, what string) {
			if !id.IsExported() {
				return
			}
			exports++
			switch _, ok := idleAllowed[key]; {
			case live:
			case ok:
				allowed[key] = true
			default:
				idle = append(idle, fmt.Sprintf("%s: %s", fset.Position(id.Pos()), what))
			}
		}
		global := func(id *ast.Ident) { report(id, used[name{dir, id.Name}], pkg+id.Name, pkg+id.Name) }
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					global(d.Name)
					continue
				}
				recv, _, _ := strings.Cut(strings.TrimPrefix(types.ExprString(d.Recv.List[0].Type), "*"), "[")
				from := append(uses[methodKey{filepath.ToSlash(dir), recv, d.Name.Name}], uses[methodKey{name: d.Name.Name}]...)
				live := slices.ContainsFunc(from, func(from string) bool { return from != filepath.ToSlash(dir) })
				report(d.Name, live, d.Name.Name, pkg+types.ExprString(d.Recv.List[0].Type)+"."+d.Name.Name)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						global(s.Name)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							global(id)
						}
					}
				}
			}
		}
	}
	slices.Sort(idle)
	return idle, exports, allowed
}

// docNames lists the Go names backticked in markdown outside fenced code.
func docNames(markdown string) []string {
	var out []string
	fenced := false
	for _, line := range strings.Split(markdown, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			continue
		}
		if fenced {
			continue
		}
		for _, m := range backtick.FindAllStringSubmatch(line, -1) {
			if docName.MatchString(m[1]) && strings.ContainsAny(m[1], "._ABCDEFGHIJKLMNOPQRSTUVWXYZ") {
				out = append(out, m[1])
			}
		}
	}
	return out
}

// testModuleAnalyzers: the analyzers that need types or the call graph
// report nothing on the module, and each reports its mutant seeded into a
// copy of internal/: an uncharged loop allocation in core, an early return
// holding a lock in server, an unpolled worklist loop in core.
func testModuleAnalyzers(t *testing.T, loadRoot func(*testing.T) (*lint.Loader, []*lint.Package)) {
	_, pkgs := loadRoot(t)
	for _, f := range lintPackages(pkgs) {
		t.Error(f)
	}
	tmp := t.TempDir()
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && d.Name() == "testdata":
			return filepath.SkipDir
		case d.IsDir():
			return os.MkdirAll(filepath.Join(tmp, path), 0o755)
		case !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go"):
			return nil
		}
		return copyFile(path, filepath.Join(tmp, path))
	})
	if err == nil {
		err = copyFile("go.mod", filepath.Join(tmp, "go.mod"))
	}
	for name, src := range mutants {
		if err == nil {
			err = os.WriteFile(filepath.Join(tmp, name), []byte(src), 0o644)
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	_, pkgs = loadModule(t, tmp, filepath.Join(tmp, "internal/core"), filepath.Join(tmp, "internal/server"))
	for _, f := range lintPackages(pkgs) {
		got = append(got, fmt.Sprintf("%s: [%s] %s", filepath.Base(f.Position.Filename), f.Analyzer, f.Message))
	}
	for _, want := range []string{
		"zz_mutant_charge.go: [governcharge] make in a loop of mutantUncharged",
		"zz_mutant_lock.go: [lockorder] server.mutantGate.mu is not released on every return path of tryOpen",
		"zz_mutant_poll.go: [ctxpoll] unbounded loop in mutantSweep never polls the context",
	} {
		if !slices.ContainsFunc(got, func(g string) bool { return strings.HasPrefix(g, want) }) {
			t.Errorf("the analyzers accept a mutant: no finding %q in\n%s", want, strings.Join(got, "\n"))
		}
	}
}

// loadModule loads and type-checks the packages matching patterns in the
// module at dir.
func loadModule(t *testing.T, dir string, patterns ...string) (*lint.Loader, []*lint.Package) {
	loader, err := lint.NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for _, err := range pkg.Errors {
			t.Fatalf("%s: %v", pkg.Path, err)
		}
	}
	return loader, pkgs
}

// lintPackages runs the module analyzers over pkgs.
func lintPackages(pkgs []*lint.Package) []lint.Finding {
	return lint.RunAnalyzers(pkgs, []*lint.Analyzer{
		alphabetguard.Analyzer, ctxpoll.Analyzer, governcharge.Analyzer, lockorder.Analyzer})
}

func copyFile(from, to string) error {
	b, err := os.ReadFile(from)
	if err == nil {
		err = os.WriteFile(to, b, 0o644)
	}
	return err
}

// mutants are the module analyzers' seeded violations, by file.
var mutants = map[string]string{
	"internal/core/zz_mutant_charge.go": `package core

func mutantUncharged(n int) [][]int {
	out := make([][]int, 0, n)
	for i := 0; i < n; i++ {
		row := make([]int, i)
		out = append(out, row)
	}
	return out
}
`,
	"internal/server/zz_mutant_lock.go": `package server

import "sync"

type mutantGate struct {
	mu   sync.Mutex
	open bool
}

func (g *mutantGate) tryOpen() bool {
	g.mu.Lock()
	if g.open {
		return false
	}
	g.open = true
	g.mu.Unlock()
	return true
}
`,
	"internal/core/zz_mutant_poll.go": `package core

func mutantSweep(start int, next func(int) []int) int {
	frontier := []int{start}
	visited := 0
	for len(frontier) > 0 {
		cur := frontier[0]
		frontier = frontier[1:]
		visited++
		frontier = append(frontier, next(cur)...)
	}
	return visited
}
`,
}
