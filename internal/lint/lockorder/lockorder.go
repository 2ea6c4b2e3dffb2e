// Package lockorder implements the lockorder analyzer: a check over every
// package of the module enforcing two invariants that no per-package,
// purely-syntactic check can see:
//
//  1. Paired release: every sync.Mutex/RWMutex Lock()/RLock() must be
//     matched by an Unlock()/RUnlock() (or a deferred one) on every
//     path out of the function — an early return holding a mutex is a
//     deadlock waiting for load.
//  2. Acyclic acquisition order: the directed graph "lock class A held
//     while lock class B is acquired" — including acquisitions that
//     happen in a callee, found through the module call graph with
//     interface method-set resolution — must have no cycles. A cycle
//     is a potential deadlock the race detector cannot find.
//
// Lock classes are instance-insensitive: every plancache shard mutex is
// one class ("plancache.shard.mu"), so an ordering between two shards
// of the same cache is reported as a self-cycle only when a second
// instance is acquired while the first is held.
package lockorder

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"sort"
	"strings"

	"ecrpq/internal/lint"
)

// Analyzer is the lockorder check.
var Analyzer = &lint.Analyzer{Name: "lockorder", Run: run}

// edge is one observed ordering: To acquired while From was held.
type edge struct {
	from, to string
	pos      token.Pos
	fn       string
}

func run(pass *lint.ModulePass) {
	var edges []edge
	for _, node := range pass.Graph.Funcs() {
		a := &unitAnalysis{pass: pass, node: node, edges: &edges}
		a.analyze(node.Decl.Body)
		// Function literals are independent units: they run at another
		// time (goroutine, defer, callback), so their lock state does
		// not interleave with the enclosing body's lexical flow.
		ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				sub := &unitAnalysis{pass: pass, node: node, edges: &edges}
				sub.analyze(lit.Body)
				return false
			}
			return true
		})
	}
	reportCycles(pass, edges)
}

// unitAnalysis tracks lock state through one function body (or function
// literal body) with a path-sensitive walk.
type unitAnalysis struct {
	pass  *lint.ModulePass
	node  *lint.FuncNode
	edges *[]edge

	// deferred holds the keys released by defer statements seen so far.
	deferred map[string]bool
	// leaked dedupes per-lock-site reports.
	leaked map[token.Pos]bool
}

// held maps a lock key (class, or class+"/R" for read locks) to the
// position of the acquiring call.
type held map[string]token.Pos

func (h held) clone() held {
	c := make(held, len(h))
	for k, v := range h {
		c[k] = v
	}
	return c
}

func lockKey(op lint.LockOp) (key string, acquire bool) {
	switch op.Op {
	case "Lock":
		return op.Class, true
	case "RLock":
		return op.Class + "/R", true
	case "Unlock":
		return op.Class, false
	default: // RUnlock
		return op.Class + "/R", false
	}
}

func classOf(key string) string { return strings.TrimSuffix(key, "/R") }

func (a *unitAnalysis) analyze(body *ast.BlockStmt) {
	a.deferred = make(map[string]bool)
	a.leaked = make(map[token.Pos]bool)
	out, terminated := a.stmts(body.List, make(held))
	if !terminated {
		a.checkExit(out, body.End())
	}
}

// checkExit reports locks still held (net of deferred releases) when a
// path leaves the function.
func (a *unitAnalysis) checkExit(h held, at token.Pos) {
	for key, pos := range h {
		if a.deferred[key] {
			continue
		}
		if a.leaked[pos] {
			continue
		}
		a.leaked[pos] = true
		a.pass.Reportf(pos, "%s is not released on every return path of %s (missing %s or defer)",
			classOf(key), a.node.Func.Name(), releaseName(key))
	}
}

func releaseName(key string) string {
	if strings.HasSuffix(key, "/R") {
		return "RUnlock"
	}
	return "Unlock"
}

// stmts walks a statement list, threading the held set through control
// flow. The returned set is the fall-through state; terminated means
// every path through the list returns, branches away or panics.
func (a *unitAnalysis) stmts(list []ast.Stmt, h held) (held, bool) {
	for _, s := range list {
		var terminated bool
		h, terminated = a.stmt(s, h)
		if terminated {
			return h, true
		}
	}
	return h, false
}

func (a *unitAnalysis) stmt(s ast.Stmt, h held) (held, bool) {
	switch x := s.(type) {
	case *ast.ExprStmt, *ast.AssignStmt, *ast.IncDecStmt, *ast.SendStmt, *ast.DeclStmt:
		a.scan(s, h)
		return h, false
	case *ast.DeferStmt:
		// A deferred release covers every subsequent exit. The deferred
		// expression (or a deferred function literal's body) is scanned
		// for unlock calls only; a deferred Lock would be nonsense.
		ast.Inspect(x.Call, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if op, ok := lint.ParseLockCall(a.node.Pkg, call); ok {
				if key, acquire := lockKey(op); !acquire {
					a.deferred[key] = true
				}
			}
			return true
		})
		return h, false
	case *ast.ReturnStmt:
		a.scan(s, h)
		a.checkExit(h, x.Pos())
		return h, true
	case *ast.BlockStmt:
		return a.stmts(x.List, h)
	case *ast.IfStmt:
		if x.Init != nil {
			h, _ = a.stmt(x.Init, h)
		}
		a.scanExpr(x.Cond, h)
		thenOut, thenTerm := a.stmts(x.Body.List, h.clone())
		elseOut, elseTerm := h.clone(), false
		if x.Else != nil {
			elseOut, elseTerm = a.stmt(x.Else, h.clone())
		}
		switch {
		case thenTerm && elseTerm:
			return h, true
		case thenTerm:
			return elseOut, false
		case elseTerm:
			return thenOut, false
		default:
			return merge(thenOut, elseOut), false
		}
	case *ast.ForStmt:
		if x.Init != nil {
			h, _ = a.stmt(x.Init, h)
		}
		if x.Cond != nil {
			a.scanExpr(x.Cond, h)
		}
		bodyOut, bodyTerm := a.stmts(x.Body.List, h.clone())
		if x.Post != nil {
			a.stmt(x.Post, bodyOut)
		}
		if bodyTerm {
			return h, false // loop may run zero times
		}
		return merge(h, bodyOut), false
	case *ast.RangeStmt:
		a.scanExpr(x.X, h)
		bodyOut, bodyTerm := a.stmts(x.Body.List, h.clone())
		if bodyTerm {
			return h, false
		}
		return merge(h, bodyOut), false
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		return a.branches(x, h)
	case *ast.LabeledStmt:
		return a.stmt(x.Stmt, h)
	case *ast.BranchStmt:
		// break/continue/goto leave the tracked region; treat the path
		// as handled elsewhere (conservative: no report, no state).
		return h, true
	case *ast.GoStmt:
		// The goroutine body runs concurrently; it was queued as its own
		// unit. Arguments are evaluated now, though.
		a.scanExpr(x.Call.Fun, h)
		for _, arg := range x.Call.Args {
			a.scanExpr(arg, h)
		}
		return h, false
	default:
		return h, false
	}
}

// branches evaluates switch/type-switch/select statements: each clause
// starts from the entry state; the fall-through state is the merge of
// the entry (no clause may match) and every non-terminated clause.
func (a *unitAnalysis) branches(s ast.Stmt, h held) (held, bool) {
	var body *ast.BlockStmt
	switch x := s.(type) {
	case *ast.SwitchStmt:
		if x.Init != nil {
			h, _ = a.stmt(x.Init, h)
		}
		if x.Tag != nil {
			a.scanExpr(x.Tag, h)
		}
		body = x.Body
	case *ast.TypeSwitchStmt:
		if x.Init != nil {
			h, _ = a.stmt(x.Init, h)
		}
		a.scan(x.Assign, h)
		body = x.Body
	case *ast.SelectStmt:
		body = x.Body
	}
	out := h
	for _, c := range body.List {
		var stmts []ast.Stmt
		switch cc := c.(type) {
		case *ast.CaseClause:
			for _, e := range cc.List {
				a.scanExpr(e, h)
			}
			stmts = cc.Body
		case *ast.CommClause:
			if cc.Comm != nil {
				a.stmt(cc.Comm, h.clone())
			}
			stmts = cc.Body
		}
		cOut, cTerm := a.stmts(stmts, h.clone())
		if !cTerm {
			out = merge(out, cOut)
		}
	}
	return out, false
}

// merge unions two fall-through states: a lock held on either incoming
// path is (possibly) held afterwards, so leaks are over- rather than
// under-reported.
func merge(x, y held) held {
	out := x.clone()
	for k, v := range y {
		if _, ok := out[k]; !ok {
			out[k] = v
		}
	}
	return out
}

// scan walks a non-control-flow statement in source order, applying lock
// operations to h and recording acquisition-order edges for other calls
// made while locks are held. Function literals are skipped (separate
// units).
func (a *unitAnalysis) scan(n ast.Node, h held) {
	ast.Inspect(n, func(node ast.Node) bool {
		if _, ok := node.(*ast.FuncLit); ok {
			return false
		}
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		if op, ok := lint.ParseLockCall(a.node.Pkg, call); ok {
			a.apply(op, h)
			return false
		}
		a.callWhileHeld(call, h)
		return true
	})
}

func (a *unitAnalysis) scanExpr(e ast.Expr, h held) {
	if e != nil {
		a.scan(e, h)
	}
}

// apply mutates the held set for one lock operation, reporting
// same-class re-acquisition and recording order edges against every
// other held class.
func (a *unitAnalysis) apply(op lint.LockOp, h held) {
	key, acquire := lockKey(op)
	if !acquire {
		delete(h, key)
		return
	}
	if _, already := h[key]; already && op.Global {
		a.pass.Reportf(op.Pos, "%s acquires %s while already holding it (self-deadlock)",
			a.node.Func.Name(), op.Class)
		return
	}
	if op.Global {
		for heldKey := range h {
			hc := classOf(heldKey)
			if hc != op.Class && !strings.HasPrefix(hc, "local:") {
				*a.edges = append(*a.edges, edge{from: hc, to: op.Class, pos: op.Pos, fn: a.node.Func.Name()})
			}
		}
	}
	h[key] = op.Pos
}

// callWhileHeld records order edges (and same-class re-entry) implied by
// calling another function while locks are held, using the callee's
// transitive acquisition summary from the module call graph.
func (a *unitAnalysis) callWhileHeld(call *ast.CallExpr, h held) {
	if len(h) == 0 {
		return
	}
	var heldClasses []string
	for key := range h {
		c := classOf(key)
		if !strings.HasPrefix(c, "local:") {
			heldClasses = append(heldClasses, c)
		}
	}
	if len(heldClasses) == 0 {
		return
	}
	sort.Strings(heldClasses)
	for _, callee := range a.pass.Graph.CalleesAt(a.node.Pkg, call) {
		for _, acq := range a.pass.Graph.Acquires(callee) {
			for _, hc := range heldClasses {
				if hc == acq {
					a.pass.Reportf(call.Pos(), "%s calls %s while holding %s, which %s acquires (self-deadlock)",
						a.node.Func.Name(), callee.Name(), hc, callee.Name())
					continue
				}
				*a.edges = append(*a.edges, edge{from: hc, to: acq, pos: call.Pos(), fn: a.node.Func.Name()})
			}
		}
	}
}

// reportCycles finds cycles in the acquisition-order graph and reports
// each once, anchored at its lexically-first witness edge.
func reportCycles(pass *lint.ModulePass, edges []edge) {
	// Deduplicate edges, keeping the lexically-first witness.
	wit := make(map[pair]edge)
	adj := make(map[string][]string)
	for _, e := range edges {
		p := pair{e.from, e.to}
		if old, ok := wit[p]; !ok || e.pos < old.pos {
			if !ok {
				adj[e.from] = append(adj[e.from], e.to)
			}
			wit[p] = e
		}
	}
	for _, succs := range adj {
		sort.Strings(succs)
	}
	var classes []string
	for c := range adj {
		classes = append(classes, c)
	}
	sort.Strings(classes)

	reported := make(map[string]bool)
	state := make(map[string]int) // 0 unvisited, 1 on stack, 2 done
	var stack []string
	var dfs func(c string)
	dfs = func(c string) {
		state[c] = 1
		stack = append(stack, c)
		for _, next := range adj[c] {
			switch state[next] {
			case 0:
				dfs(next)
			case 1:
				// Back edge: stack from next..end is a cycle.
				i := len(stack) - 1
				for i >= 0 && stack[i] != next {
					i--
				}
				cycle := append(append([]string(nil), stack[i:]...), next)
				report(pass, wit, cycle, reported)
			}
		}
		stack = stack[:len(stack)-1]
		state[c] = 2
	}
	for _, c := range classes {
		if state[c] == 0 {
			dfs(c)
		}
	}
}

// report emits one cycle diagnostic with every witness edge named.
func report(pass *lint.ModulePass, wit map[pair]edge, cycle []string, reported map[string]bool) {
	// Canonicalize: rotate so the smallest class comes first.
	n := len(cycle) - 1 // cycle[n] == cycle[0]
	min := 0
	for i := 1; i < n; i++ {
		if cycle[i] < cycle[min] {
			min = i
		}
	}
	canon := make([]string, 0, n+1)
	for i := 0; i <= n; i++ {
		canon = append(canon, cycle[(min+i)%n])
	}
	key := strings.Join(canon, "→")
	if reported[key] {
		return
	}
	reported[key] = true

	var steps []string
	first := edge{pos: token.NoPos}
	for i := 0; i+1 < len(canon); i++ {
		e := wit[pair{canon[i], canon[i+1]}]
		p := pass.Fset.Position(e.pos)
		steps = append(steps, fmt.Sprintf("%s acquired while holding %s in %s (%s:%d)",
			canon[i+1], canon[i], e.fn, filepath.Base(p.Filename), p.Line))
		if first.pos == token.NoPos || e.pos < first.pos {
			first = e
		}
	}
	pass.Reportf(first.pos, "lock-order cycle %s: %s (potential deadlock)",
		strings.Join(canon, " → "), strings.Join(steps, "; "))
}

// pair is the dedupe key of one order edge.
type pair struct{ from, to string }
