package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// ModulePass carries the whole loaded module through one analyzer. All
// packages were type-checked in a single shared importer session (the
// Loader caches every package it resolves), so types.Object identities
// are stable across packages: a *types.Func seen at a call site in
// internal/server is the same object as the one defined in
// internal/persist. The Graph exposes a static call graph over those
// objects plus per-function summaries with callee→caller fact
// propagation.
type ModulePass struct {
	Fset *token.FileSet
	// Pkgs are the loaded packages, in deterministic (path) order.
	Pkgs []*Package
	// Graph is the module call graph with function summaries.
	Graph  *CallGraph
	report func(token.Pos, string)
}

// Reportf reports one finding at pos.
func (p *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(pos, fmt.Sprintf(format, args...))
}

// FuncNode is one function (or method) with a body in a loaded package.
type FuncNode struct {
	Func *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
	// Summary holds the facts observed directly in this function's body
	// (function literals inside the body are attributed to it).
	Summary FuncSummary

	callees map[*types.Func]bool
}

// FuncSummary is the per-function fact record. Direct observations only;
// use the CallGraph fact queries for callee-propagated (transitive)
// versions.
type FuncSummary struct {
	// PollsCtx: the body references (context.Context).Err or .Done.
	PollsCtx bool
	// Charges: the body references a charging API of the resource
	// governor — a govern Meter/Reservation/Broker Charge/Grow/Reserve/
	// TryAcquire method — or invokes a cq.ChargeFunc value.
	Charges bool
	// Locks are the sync.Mutex/RWMutex operations in the body, in source
	// order.
	Locks []LockOp
	// Allocs are the heap-allocation sites in the body.
	Allocs []AllocSite
}

// LockOp is one mutex operation.
type LockOp struct {
	// Class names the mutex instance-insensitively: "pkg.Type.field" for
	// a struct field, "pkg.var.field" for a field of a package-level
	// variable, "pkg.var" for a package-level mutex, "local:name" for a
	// function-local mutex.
	Class string
	// Op is "Lock", "Unlock", "RLock" or "RUnlock".
	Op  string
	Pos token.Pos
	// Deferred marks ops inside a defer statement (directly or in a
	// deferred function literal).
	Deferred bool
	// Global is false for function-local mutexes, which cannot
	// participate in cross-function lock ordering.
	Global bool
}

// AllocSite is one heap-allocation expression.
type AllocSite struct {
	Pos token.Pos
	// Kind is "make", "append" or "map-literal".
	Kind string
	// InLoop marks sites lexically inside a for/range statement of the
	// same function (hot-path allocations, the ones the byte ledger must
	// see).
	InLoop bool
}

// CallGraph is the static call graph of the loaded packages: edges from
// direct calls and function/method value references, with interface
// method calls resolved to every module-local implementation
// (method-set resolution). Functions without bodies in the loaded set
// (standard library, unloaded packages) are absent; the summary bits
// that matter about them (context polls, ledger charges, lock classes)
// are recognized directly at the reference site instead.
type CallGraph struct {
	fset  *token.FileSet
	nodes map[*types.Func]*FuncNode
	order []*FuncNode // deterministic iteration order (by position)

	pollsMemo   map[*types.Func]bool
	chargesMemo map[*types.Func]bool

	// ifaceImpls maps each method of a module-declared interface to the
	// corresponding methods of every module type implementing it.
	ifaceImpls map[*types.Func][]*types.Func
}

// Funcs returns every function node in deterministic source order.
func (g *CallGraph) Funcs() []*FuncNode {
	return g.order
}

// PollsCtx reports whether fn polls the context directly or through any
// transitively-reachable callee (callee fact propagated to callers).
func (g *CallGraph) PollsCtx(fn *types.Func) bool {
	return g.reaches(fn, func(s *FuncSummary) bool { return s.PollsCtx }, g.pollsMemo, make(map[*types.Func]bool))
}

// Charges reports whether fn charges the govern ledger directly or
// through any transitively-reachable callee.
func (g *CallGraph) Charges(fn *types.Func) bool {
	return g.reaches(fn, func(s *FuncSummary) bool { return s.Charges }, g.chargesMemo, make(map[*types.Func]bool))
}

// reaches computes "fn or some transitive callee satisfies want" by DFS
// with memoization; members of a call cycle fall back to the facts
// reachable outside the cycle.
func (g *CallGraph) reaches(fn *types.Func, want func(*FuncSummary) bool, memo map[*types.Func]bool, onStack map[*types.Func]bool) bool {
	if v, ok := memo[fn]; ok {
		return v
	}
	n := g.nodes[fn]
	if n == nil {
		return false
	}
	if onStack[fn] {
		return false // cycle back-edge: decided by the rest of the SCC
	}
	if want(&n.Summary) {
		memo[fn] = true
		return true
	}
	onStack[fn] = true
	res := false
	for callee := range n.callees {
		if g.reaches(callee, want, memo, onStack) {
			res = true
			break
		}
	}
	delete(onStack, fn)
	if res || len(onStack) == 0 {
		// Only cache negative results computed from a cycle-free root:
		// a false derived while part of the stack may be provisional.
		memo[fn] = res
	}
	return res
}

// Acquires returns the global lock classes acquired by fn or any
// transitive callee, sorted.
func (g *CallGraph) Acquires(fn *types.Func) []string {
	seen := make(map[*types.Func]bool)
	classes := make(map[string]bool)
	var visit func(fn *types.Func)
	visit = func(fn *types.Func) {
		n := g.nodes[fn]
		if n == nil || seen[fn] {
			return
		}
		seen[fn] = true
		for _, op := range n.Summary.Locks {
			if n.acquiring(op) {
				classes[op.Class] = true
			}
		}
		for callee := range n.callees {
			visit(callee)
		}
	}
	visit(fn)
	out := make([]string, 0, len(classes))
	for c := range classes {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

func (n *FuncNode) acquiring(op LockOp) bool {
	return op.Global && (op.Op == "Lock" || op.Op == "RLock")
}

// CalleesAt resolves the call expression to the module functions it may
// invoke: the static callee for direct calls, every module
// implementation for calls through a module-local interface. Calls
// through plain function values resolve to nothing.
func (g *CallGraph) CalleesAt(pkg *Package, call *ast.CallExpr) []*types.Func {
	var out []*types.Func
	add := func(fn *types.Func) {
		if fn != nil {
			out = append(out, fn)
		}
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		add(FuncOf(pkg.TypesInfo, fun))
	case *ast.SelectorExpr:
		fn := FuncOf(pkg.TypesInfo, fun.Sel)
		add(fn)
		if fn != nil {
			for _, impl := range g.implementationsOf(fn) {
				add(impl)
			}
		}
	}
	return out
}

// implementationsOf maps an interface method to the corresponding
// methods of every module type implementing the interface (precomputed
// during graph construction), nil for concrete methods.
func (g *CallGraph) implementationsOf(fn *types.Func) []*types.Func {
	return g.ifaceImpls[fn]
}

// BuildCallGraph constructs the module call graph over pkgs: one node
// per function declaration with a body, edges from every resolved
// function reference (calls and method values), interface calls expanded
// over the module's concrete types, and per-function summaries filled in
// from a single walk of each body.
func BuildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{
		fset:        pkgs[0].Fset,
		nodes:       make(map[*types.Func]*FuncNode),
		pollsMemo:   make(map[*types.Func]bool),
		chargesMemo: make(map[*types.Func]bool),
		ifaceImpls:  make(map[*types.Func][]*types.Func),
	}
	// Pass 1: create nodes.
	for _, pkg := range pkgs {
		if pkg.Types == nil {
			continue
		}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				decl, ok := d.(*ast.FuncDecl)
				if !ok || decl.Body == nil {
					continue
				}
				fn := FuncOf(pkg.TypesInfo, decl.Name)
				if fn == nil {
					continue
				}
				g.nodes[fn] = &FuncNode{
					Func:    fn,
					Decl:    decl,
					Pkg:     pkg,
					callees: make(map[*types.Func]bool),
				}
			}
		}
	}
	g.resolveInterfaces(pkgs)
	// Pass 2: walk bodies for edges and summaries.
	for _, n := range g.nodes {
		g.summarize(n)
	}
	g.order = make([]*FuncNode, 0, len(g.nodes))
	for _, n := range g.nodes {
		g.order = append(g.order, n)
	}
	sort.Slice(g.order, func(i, j int) bool { return g.order[i].Decl.Pos() < g.order[j].Decl.Pos() })
	return g
}

// resolveInterfaces precomputes, for every method of every interface
// type declared in a loaded package, the list of corresponding concrete
// methods of loaded named types that implement it.
func (g *CallGraph) resolveInterfaces(pkgs []*Package) {
	var ifaces []*types.Named
	var concretes []*types.Named
	for _, pkg := range pkgs {
		if pkg.Types == nil {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if iface, ok := named.Underlying().(*types.Interface); ok {
				if iface.NumMethods() > 0 {
					ifaces = append(ifaces, named)
				}
			} else {
				concretes = append(concretes, named)
			}
		}
	}
	for _, in := range ifaces {
		iface := in.Underlying().(*types.Interface)
		for _, cn := range concretes {
			impl := types.Type(cn)
			if !types.Implements(impl, iface) {
				impl = types.NewPointer(cn)
				if !types.Implements(impl, iface) {
					continue
				}
			}
			for i := 0; i < iface.NumMethods(); i++ {
				im := iface.Method(i)
				obj, _, _ := types.LookupFieldOrMethod(impl, true, cn.Obj().Pkg(), im.Name())
				if m, ok := obj.(*types.Func); ok {
					g.ifaceImpls[im] = append(g.ifaceImpls[im], m)
				}
			}
		}
	}
	for _, impls := range g.ifaceImpls {
		sort.Slice(impls, func(i, j int) bool { return impls[i].Pos() < impls[j].Pos() })
	}
}

// summarize walks one declaration body, recording edges, lock
// operations, allocation sites, context polls and ledger charges.
// Function literals are attributed to the enclosing declaration.
func (g *CallGraph) summarize(n *FuncNode) {
	info := n.Pkg.TypesInfo
	var stack []ast.Node
	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		if node == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, node)
		switch x := node.(type) {
		case *ast.Ident:
			fn := FuncOf(info, x)
			if fn == nil || fn == n.Func {
				break
			}
			n.callees[fn] = true
			for _, impl := range g.ifaceImpls[fn] {
				n.callees[impl] = true
			}
			if IsCtxPoll(fn) {
				n.Summary.PollsCtx = true
			}
			if isGovernCharge(fn) {
				n.Summary.Charges = true
			}
		case *ast.CallExpr:
			g.recordCall(n, x, stack)
		case *ast.CompositeLit:
			if tv, ok := info.Types[x]; ok && tv.Type != nil {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					n.Summary.Allocs = append(n.Summary.Allocs, AllocSite{
						Pos: x.Pos(), Kind: "map-literal", InLoop: inLoop(stack, x),
					})
				}
			}
		}
		return true
	})
}

// recordCall classifies one call expression: builtin allocations, mutex
// operations and ChargeFunc invocations.
func (g *CallGraph) recordCall(n *FuncNode, call *ast.CallExpr, stack []ast.Node) {
	info := n.Pkg.TypesInfo
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if b, ok := info.Uses[fun].(*types.Builtin); ok {
			switch b.Name() {
			case "make", "append":
				n.Summary.Allocs = append(n.Summary.Allocs, AllocSite{
					Pos: call.Pos(), Kind: b.Name(), InLoop: inLoop(stack, call),
				})
			}
			return
		}
	case *ast.SelectorExpr:
		if op, ok := ParseLockCall(n.Pkg, call); ok {
			op.Deferred = inDefer(stack, call)
			n.Summary.Locks = append(n.Summary.Locks, op)
			return
		}
	}
	// Invoking a value of the named type cq.ChargeFunc is a ledger
	// charge even though no govern method is referenced.
	if tv, ok := info.Types[call.Fun]; ok && tv.Type != nil {
		if named, ok := tv.Type.(*types.Named); ok &&
			named.Obj().Name() == "ChargeFunc" && named.Obj().Pkg() != nil &&
			strings.HasSuffix(named.Obj().Pkg().Path(), "internal/cq") {
			n.Summary.Charges = true
		}
	}
}

// IsCtxPoll recognizes the (context.Context).Err and .Done methods, the two
// whose reference constitutes a cancellation poll.
func IsCtxPoll(fn *types.Func) bool {
	if fn.Pkg() == nil || fn.Pkg().Path() != "context" {
		return false
	}
	return fn.Name() == "Err" || fn.Name() == "Done"
}

// isGovernCharge recognizes the charging API of the resource governor:
// methods of internal/govern types that draw bytes from the ledger.
func isGovernCharge(fn *types.Func) bool {
	if fn.Pkg() == nil || !strings.HasSuffix(fn.Pkg().Path(), "internal/govern") {
		return false
	}
	switch fn.Name() {
	case "Charge", "Grow", "Reserve", "TryAcquire":
		return fn.Type().(*types.Signature).Recv() != nil
	}
	return false
}

// inLoop reports whether node n sits inside the body of a for or range
// statement on the ancestor stack (within the same declaration;
// function-literal boundaries are not reset, matching the attribution
// of literals to their enclosing function).
func inLoop(stack []ast.Node, n ast.Node) bool {
	for _, anc := range stack {
		switch s := anc.(type) {
		case *ast.ForStmt:
			if s.Body != nil && s.Body.Pos() <= n.Pos() && n.Pos() <= s.Body.End() {
				return true
			}
		case *ast.RangeStmt:
			if s.Body != nil && s.Body.Pos() <= n.Pos() && n.Pos() <= s.Body.End() {
				return true
			}
		}
	}
	return false
}

// inDefer reports whether node n is (part of) a deferred call: either
// the deferred expression itself or inside a deferred function literal.
func inDefer(stack []ast.Node, n ast.Node) bool {
	for _, anc := range stack {
		if d, ok := anc.(*ast.DeferStmt); ok {
			if d.Pos() <= n.Pos() && n.Pos() <= d.End() {
				return true
			}
		}
	}
	return false
}

// ParseLockCall recognizes a sync.Mutex / sync.RWMutex operation
// (Lock, Unlock, RLock, RUnlock) and derives the lock class from the
// receiver expression. TryLock variants are ignored (they cannot
// deadlock).
func ParseLockCall(pkg *Package, call *ast.CallExpr) (LockOp, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return LockOp{}, false
	}
	fn := FuncOf(pkg.TypesInfo, sel.Sel)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return LockOp{}, false
	}
	switch fn.Name() {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return LockOp{}, false
	}
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil {
		return LockOp{}, false
	}
	recv := sig.Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || (named.Obj().Name() != "Mutex" && named.Obj().Name() != "RWMutex") {
		return LockOp{}, false
	}
	class, global := lockClass(pkg, sel.X)
	return LockOp{Class: class, Op: fn.Name(), Pos: call.Pos(), Global: global}, true
}

// lockClass names the mutex denoted by expr, instance-insensitively.
func lockClass(pkg *Package, expr ast.Expr) (string, bool) {
	info := pkg.TypesInfo
	switch x := ast.Unparen(expr).(type) {
	case *ast.SelectorExpr:
		// base.field — name by the owning type when it is named, else by
		// a package-level base variable.
		field := x.Sel.Name
		if tv, ok := info.Types[x.X]; ok && tv.Type != nil {
			t := tv.Type
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if named, ok := t.(*types.Named); ok && named.Obj().Pkg() != nil {
				return named.Obj().Pkg().Name() + "." + named.Obj().Name() + "." + field, true
			}
		}
		if base, ok := ast.Unparen(x.X).(*ast.Ident); ok {
			if v, ok := info.Uses[base].(*types.Var); ok && v.Pkg() != nil &&
				v.Parent() == v.Pkg().Scope() {
				return v.Pkg().Name() + "." + base.Name + "." + field, true
			}
		}
		return pkg.Types.Name() + ".<anon>." + field, true
	case *ast.Ident:
		if v, ok := info.Uses[x].(*types.Var); ok {
			if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
				return v.Pkg().Name() + "." + x.Name, true
			}
			return "local:" + x.Name, false
		}
	}
	return pkg.Types.Name() + ".<expr>", false
}

// FuncOf resolves id to the function object it uses or defines, nil
// otherwise.
func FuncOf(info *types.Info, id *ast.Ident) *types.Func {
	if obj, ok := info.Uses[id].(*types.Func); ok {
		return obj
	}
	if obj, ok := info.Defs[id].(*types.Func); ok {
		return obj
	}
	return nil
}
