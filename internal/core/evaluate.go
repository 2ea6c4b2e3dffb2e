package core

import (
	"context"
	"fmt"
	"runtime"

	"ecrpq/internal/graphdb"
	"ecrpq/internal/query"
	"ecrpq/internal/trace"
)

// Strategy selects the evaluation algorithm.
type Strategy int

// Evaluation strategies.
const (
	// Auto picks Reduction when every component is small enough to
	// materialize (Lemma 4.3 applies at tractable cost), else Generic.
	Auto Strategy = iota
	// Generic is the product-search algorithm behind the PSPACE/XNL upper
	// bounds (Proposition 2.2 / Lemma 4.2).
	Generic
	// Reduction is the ECRPQ→CQ reduction of Lemma 4.3 followed by
	// tree-decomposition CQ evaluation (Proposition 2.3).
	Reduction
)

func (s Strategy) String() string {
	switch s {
	case Auto:
		return "auto"
	case Generic:
		return "generic"
	case Reduction:
		return "reduction"
	}
	return fmt.Sprintf("strategy(%d)", int(s))
}

// Options configures evaluation.
type Options struct {
	Strategy Strategy
	// MaxProductStates caps each component product search (0 = default of
	// 20 million states; negative = unlimited).
	MaxProductStates int
	// EagerMerge makes the Generic strategy pre-merge each component's
	// relations into one automaton (Lemma 4.1) before the product search,
	// instead of running the multi-automaton product lazily.
	EagerMerge bool
	// MaxReductionTracks bounds the component arity t for which Auto deems
	// the V^t materialization of Lemma 4.3 affordable (default 3).
	MaxReductionTracks int
	// Parallelism sets the number of worker goroutines for the Lemma 4.3
	// R' sweep (the dominant cost of the reduction strategy). 0 or 1 runs
	// sequentially; negative uses GOMAXPROCS.
	Parallelism int
}

func (o Options) workers() int {
	switch {
	case o.Parallelism < 0:
		return runtime.GOMAXPROCS(0)
	case o.Parallelism == 0:
		return 1
	default:
		return o.Parallelism
	}
}

func (o Options) maxStates() int {
	switch {
	case o.MaxProductStates < 0:
		return 0
	case o.MaxProductStates == 0:
		return 20_000_000
	default:
		return o.MaxProductStates
	}
}

func (o Options) maxReductionTracks() int {
	if o.MaxReductionTracks <= 0 {
		return 3
	}
	return o.MaxReductionTracks
}

// AutoStrategy is the fixed rule the Auto strategy resolves by: Reduction
// exactly when every component's track count is at most
// MaxReductionTracks (the V^t materialization of Lemma 4.3 stays
// affordable), else Generic. trackCounts holds one entry per semantic
// component. Exported so cost-based planners (internal/planner) can fall
// back to the same rule — and so EXPLAIN and execution can never disagree
// on what "auto" means: every resolution site in this package goes
// through this one function.
func AutoStrategy(trackCounts []int, opts Options) Strategy {
	for _, t := range trackCounts {
		if t > opts.maxReductionTracks() {
			return Generic
		}
	}
	return Reduction
}

// resolveStrategy turns the requested strategy into the one that runs:
// Auto goes through AutoStrategy on the decomposed components.
func resolveStrategy(comps []component, opts Options) (Strategy, error) {
	switch opts.Strategy {
	case Generic, Reduction:
		return opts.Strategy, nil
	case Auto:
		counts := make([]int, len(comps))
		for i := range comps {
			counts[i] = len(comps[i].tracks)
		}
		return AutoStrategy(counts, opts), nil
	}
	return 0, fmt.Errorf("core: unknown strategy %v", opts.Strategy)
}

// Result is the outcome of Boolean evaluation, with a full witness when
// satisfied.
type Result struct {
	Sat   bool
	Nodes map[string]int          // node variable → vertex
	Paths map[string]graphdb.Path // path variable → witness path
	Stats Stats
}

// Stats reports work done during evaluation.
type Stats struct {
	StrategyUsed      Strategy
	Components        int // semantic components: those a non-universal atom constrains
	FreeTracks        int // path variables in no such atom, each evaluated as a one-track Σ* component
	ProductChecks     int // generic: component product decisions made (one per completed component per assignment)
	NodeAssignments   int // generic: node-variable assignments tried
	Traversals        int // generic: product traversals begun to make those decisions
	ProductStates     int // generic: product states those traversals expanded
	CQTuples          int // reduction: materialized tuples across relations R'
	MergedStatesTotal int // eager merge: total states of merged relation NFAs
}

// Evaluate decides whether the (Boolean) query holds on the database. For
// queries with free variables it decides existential satisfiability (use
// Answers for the answer set).
func Evaluate(db *graphdb.DB, q *query.Query, opts Options) (*Result, error) {
	return EvaluateContext(context.Background(), db, q, opts)
}

// EvaluateContext is Evaluate with cancellation: the product-space search
// (Lemma 4.2) and the materialization sweep (Lemma 4.3) poll ctx
// periodically and abort with ctx.Err() when it is cancelled or its
// deadline passes. It compiles a plan for this one call and, under the
// Reduction strategy, materializes the whole Lemma 4.3 instance before the
// join, so Stats.CQTuples is the full count (Prepared.EvaluateContext with
// a nil materialization is the lazy first-witness path).
func EvaluateContext(ctx context.Context, db *graphdb.DB, q *query.Query, opts Options) (*Result, error) {
	p, err := prepare(ctx, q, opts, false)
	if err != nil {
		return nil, err
	}
	var mat *Materialization
	if p.strat == Reduction {
		if mat, err = p.Materialize(ctx, db); err != nil {
			return nil, err
		}
	}
	return p.EvaluateContextHinted(ctx, db, mat, nil)
}

// Answers computes the answer set of a query with free variables: all tuples
// of vertices (in Free order) admitting a satisfying assignment, sorted
// lexicographically (see Prepared.Answers).
func Answers(db *graphdb.DB, q *query.Query, opts Options) ([][]int, error) {
	return AnswersContext(context.Background(), db, q, opts)
}

// AnswersContext is Answers with cancellation (see EvaluateContext).
func AnswersContext(ctx context.Context, db *graphdb.DB, q *query.Query, opts Options) ([][]int, error) {
	p, err := prepare(ctx, q, opts, false)
	if err != nil {
		return nil, err
	}
	return p.Answers(ctx, db, nil)
}

// PlanHints carries db-dependent decisions from a cost-based planner
// (internal/planner) into a Generic evaluation. Hints are advisory and
// never affect the answer, only the order and size of the search:
//
//   - ComponentOrder permutes the sequence in which the backtracking
//     completes components (indices into the plan's component list, a
//     permutation of 0..n-1; ignored when malformed).
//   - Candidates restricts the vertex domain tried for a node variable to
//     a sound superset of its satisfying assignments (ascending vertex
//     ids, typically from Prepared.PushdownCandidates). Variables absent
//     from the map range over all vertices.
//
// The streaming enumeration path deliberately takes no hints: its tuple
// order is a public cursor contract (see internal/server /v1/enumerate)
// and must not depend on per-database planner state.
type PlanHints struct {
	ComponentOrder []int
	Candidates     map[string][]int
}

// candidatesFor returns the hinted domain for a node variable.
func (h *PlanHints) candidatesFor(v string) ([]int, bool) {
	if h == nil || h.Candidates == nil {
		return nil, false
	}
	c, ok := h.Candidates[v]
	return c, ok
}

// componentOrder validates and returns the hinted permutation, or nil.
func (h *PlanHints) componentOrder(n int) []int {
	if h == nil || len(h.ComponentOrder) != n {
		return nil
	}
	seen := make([]bool, n)
	for _, i := range h.ComponentOrder {
		if i < 0 || i >= n || seen[i] {
			return nil
		}
		seen[i] = true
	}
	return h.ComponentOrder
}

// genericComp is one component of a generic evaluation: its product search
// and where its tracks' endpoints sit in the assignment order.
type genericComp struct {
	componentSearch
	srcPos, dstPos []int // per track: position of the endpoint variable in the order
	srcs, dsts     []int // per track: the endpoints under the current assignment
}

// endpoints reads the component's endpoint tuples off the assignment.
func (g *genericComp) endpoints(assign []int) {
	for k := range g.srcPos {
		g.srcs[k] = assign[g.srcPos[k]]
		g.dsts[k] = assign[g.dstPos[k]]
	}
}

// genericSearch is a generic evaluation set up once (newGenericSearch) and
// decided any number of times, each under the current values of pinned.
// Each component keeps one product kernel for all of them (componentSearch),
// and since a component's sources precede its other variables in the order,
// consecutive checks of a component share their sources until a source
// moves: one traversal per source assignment answers for every destination
// guessed under it.
type genericSearch struct {
	db        *graphdb.DB
	pinned    map[string]int
	hints     *PlanHints
	order     []string
	gcs       []genericComp
	compReady [][]int // by assigned prefix length: the components fully assigned there
	assign    []int
	stats     Stats
}

// newGenericSearch lays out the backtracking over node variables that checks
// each component's product as soon as all of its node variables are
// assigned. hints (may be nil) reorder the component completion sequence and
// restrict node variable domains; they never change the decision or the
// witness shape; paths says the caller will want the paths of the assignment
// a decide accepts. The caller must call release.
//
//ecrpq:charged query-sized: the order, positions and ready lists are bounded by the query's node variables and tracks
func (p *Prepared) newGenericSearch(db *graphdb.DB, pinned map[string]int, hints *PlanHints, paths bool) *genericSearch {
	g := &genericSearch{db: db, pinned: pinned, hints: hints}
	workComps := p.comps
	if p.opts.EagerMerge {
		workComps, g.stats.MergedStatesTotal = p.merged, p.mergedSt
	}

	// Node variable universe and ordering: pinned first, then component by
	// component so components complete early. A planner hint permutes the
	// component sequence so the most selective (or cheapest) component's
	// variables are assigned — and its product checked — first.
	pos := make(map[string]int)
	add := func(v string) {
		if _, ok := pos[v]; !ok {
			pos[v] = len(g.order)
			g.order = append(g.order, v)
		}
	}
	for v := range pinned {
		add(v)
	}
	compSeq := hints.componentOrder(len(workComps))
	if compSeq == nil {
		compSeq = make([]int, len(workComps))
		for i := range compSeq {
			compSeq[i] = i
		}
	}
	for _, ci := range compSeq {
		for _, v := range workComps[ci].nodeVars {
			add(v)
		}
	}
	for _, v := range p.q.NodeVars() {
		add(v)
	}

	g.gcs = make([]genericComp, len(workComps))
	g.compReady = make([][]int, len(g.order)+1)
	for ci := range workComps {
		c := &workComps[ci]
		t := len(c.tracks)
		gc := &g.gcs[ci]
		gc.componentSearch = componentSearch{db: db, c: c, maxStates: p.opts.maxStates(), paths: paths}
		gc.srcPos, gc.dstPos = make([]int, t), make([]int, t)
		gc.srcs, gc.dsts = make([]int, t), make([]int, t)
		ready := 0
		for k, tr := range c.tracks {
			gc.srcPos[k], gc.dstPos[k] = pos[tr.srcVar], pos[tr.dstVar]
			ready = max(ready, gc.srcPos[k]+1, gc.dstPos[k]+1)
		}
		g.compReady[ready] = append(g.compReady[ready], ci)
	}
	g.assign = make([]int, len(g.order))
	return g
}

func (g *genericSearch) release() {
	for i := range g.gcs {
		g.gcs[i].release()
	}
}

// decide runs the search and leaves the assignment it accepts in g.assign.
func (g *genericSearch) decide(ctx context.Context) (bool, error) {
	var searchErr error
	check := func(i int) bool {
		for _, ci := range g.compReady[i] {
			gc := &g.gcs[ci]
			gc.endpoints(g.assign)
			ok, err := gc.check(ctx, gc.srcs, gc.dsts)
			g.stats.ProductChecks++
			if err != nil {
				searchErr = err
				return false
			}
			if !ok {
				return false
			}
		}
		return true
	}
	// try extends the assignment by order[i] = d. With memoised traversals a
	// long run of assignments may never enter a search loop, so
	// cancellation and injected faults are polled here, by assignments made.
	var rec func(i int) bool
	try := func(i, d int) bool {
		g.assign[i] = d
		g.stats.NodeAssignments++
		if g.stats.NodeAssignments%cancelCheckInterval == 0 {
			searchErr = pollSearch(ctx)
		}
		return searchErr == nil && check(i+1) && rec(i+1)
	}
	rec = func(i int) bool {
		if i == len(g.order) {
			return true
		}
		v := g.order[i]
		if pv, ok := g.pinned[v]; ok {
			return try(i, pv)
		}
		if cand, ok := g.hints.candidatesFor(v); ok {
			for _, d := range cand {
				if d >= 0 && d < g.db.NumVertices() && try(i, d) {
					return true
				}
				if searchErr != nil {
					return false
				}
			}
			return false
		}
		for d := 0; d < g.db.NumVertices(); d++ {
			if try(i, d) {
				return true
			}
			if searchErr != nil {
				return false
			}
		}
		return false
	}
	// Edge case: zero node variables (no atoms): trivially satisfiable.
	searchErr = ctx.Err()
	sat := searchErr == nil && rec(0)
	return sat, searchErr
}

// report puts the work of every decide so far on the search's span.
func (g *genericSearch) report(psp *trace.Span) {
	g.stats.Traversals, g.stats.ProductStates = 0, 0
	for i := range g.gcs {
		traversals, states := g.gcs[i].work()
		g.stats.Traversals += traversals
		g.stats.ProductStates += states
	}
	psp.SetInt("product_checks", int64(g.stats.ProductChecks))
	psp.SetInt("node_assignments", int64(g.stats.NodeAssignments))
	psp.SetInt("traversals", int64(g.stats.Traversals))
	psp.SetInt("states", int64(g.stats.ProductStates))
}

// evalGeneric is one generic evaluation: set up, decide, and for a yes the
// witness. Paths are only computed for the assignment that wins.
func (p *Prepared) evalGeneric(ctx context.Context, db *graphdb.DB, pinned map[string]int, hints *PlanHints) (*Result, error) {
	g := p.newGenericSearch(db, pinned, hints, true)
	defer g.release()
	_, psp := trace.StartSpan(ctx, "core/product_search")
	sat, err := g.decide(ctx)
	g.report(psp)
	psp.End()
	if err != nil {
		return nil, err
	}
	res := &Result{Sat: sat, Stats: g.stats}
	if !sat {
		return res, nil
	}
	res.Nodes = make(map[string]int, len(g.order))
	for i, v := range g.order {
		res.Nodes[v] = g.assign[i]
	}
	_, wsp := trace.StartSpan(ctx, "core/witness")
	defer wsp.End()
	res.Paths = make(map[string]graphdb.Path)
	for ci := range g.gcs {
		gc := &g.gcs[ci]
		gc.endpoints(g.assign)
		paths, ok, err := gc.witness(ctx, gc.srcs, gc.dsts)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("core: internal error: accepted assignment not realizable in component %d", ci)
		}
		for k, tr := range gc.c.tracks {
			res.Paths[tr.pathVar] = paths[k]
		}
	}
	return res, nil
}

// evalReductionMaterialized decides the query by the reduction strategy
// (Lemma 4.3) on a materialized instance: over the database's vertices,
//
//	R' = { (u1, v1, ..., ut, vt) : ∃ paths ui→vi with labels in R }
//
// per merged component (Lemma 4.1); the conjunctive query with one atom
// R'(x1, y1, ..., xt, yt) per component — its Gaifman graph is exactly
// G^node of the (normalized) abstraction — is evaluated with the
// tree-decomposition dynamic program the plan compiled, and the witness
// paths recovered.
func (p *Prepared) evalReductionMaterialized(ctx context.Context, db *graphdb.DB, mat *Materialization) (*Result, error) {
	// Join intermediates charge through a meter so they are released as a
	// block when the CQ evaluation finishes, whatever path it exits by.
	mem, charge := meterCharge(ctx)
	defer mem.Close()
	_, jsp := trace.StartSpan(ctx, "core/cq_join")
	assign, sat, work, err := p.join.Eval(ctx, mat.st, charge)
	jsp.SetInt("bags", int64(work.Bags))
	jsp.SetInt("rows_in", int64(work.RowsIn))
	jsp.SetInt("rows_peak", int64(work.RowsPeak))
	jsp.End()
	if err != nil {
		return nil, err
	}
	res := &Result{Sat: sat, Stats: mat.stats}
	if !sat {
		return res, nil
	}
	res.Nodes = make(map[string]int, len(assign))
	for _, v := range p.q.NodeVars() {
		res.Nodes[v] = assign[v]
	}
	if err := p.recoverWitnesses(ctx, db, res); err != nil {
		return nil, err
	}
	return res, nil
}

// emptyDBSat is the reduction strategy's verdict on a database with no
// vertices, where there is nothing to sweep, stream or join: satisfiable
// only when the query has no atom at all.
func (p *Prepared) emptyDBSat() bool { return len(p.q.Reach) == 0 }

// recoverWitnesses re-runs each component's product search with the CQ
// witness's endpoints pinned to extract concrete paths. res.Nodes must be
// populated; res.Paths is filled.
func (p *Prepared) recoverWitnesses(ctx context.Context, db *graphdb.DB, res *Result) error {
	_, wsp := trace.StartSpan(ctx, "core/witness")
	defer wsp.End()
	res.Paths = make(map[string]graphdb.Path)
	for ci := range p.comps {
		c := &p.comps[ci]
		srcs := make([]int, len(c.tracks))
		dsts := make([]int, len(c.tracks))
		for k, tr := range c.tracks {
			srcs[k] = res.Nodes[tr.srcVar]
			dsts[k] = res.Nodes[tr.dstVar]
		}
		paths, ok, err := checkComponent(ctx, db, c, srcs, dsts, p.opts.maxStates())
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("core: internal error: CQ witness not realizable in component %d", ci)
		}
		for k, tr := range c.tracks {
			res.Paths[tr.pathVar] = paths[k]
		}
	}
	return nil
}
