package core

import (
	"context"
	"fmt"

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
	// Parallelism is ignored: the evaluation runs on its caller's goroutine,
	// and the Lemma 4.3 sweep's lanes (up to 512 sources a traversal) are its
	// only parallelism. The field stays for callers that still set it.
	Parallelism int
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

// MaxReductionTracks bounds the component arity t for which Auto deems the
// V^t materialization of Lemma 4.3 affordable.
const MaxReductionTracks = 3

// AutoStrategy is the fixed rule the Auto strategy resolves by: Reduction
// exactly when every component's track count is at most
// MaxReductionTracks (the V^t materialization of Lemma 4.3 stays
// affordable), else Generic. trackCounts holds one entry per semantic
// component. Exported so cost-based planners (internal/planner) can fall
// back to the same rule — and so EXPLAIN and execution can never disagree
// on what "auto" means: every resolution site in this package goes
// through this one function.
func AutoStrategy(trackCounts []int) Strategy {
	for _, t := range trackCounts {
		if t > MaxReductionTracks {
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
		return AutoStrategy(counts), nil
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
	ProductChecks     int // generic: product decisions made, one per complete guess of a component's variables
	NodeAssignments   int // generic: node-variable values guessed, each variable counted where it is (re)set
	Traversals        int // walk: product traversals its kernels began, before any witness was read off them
	ProductStates     int // walk: product states those traversals expanded
	CQTuples          int // reduction: R' tuples materialized, or streamed by the walk
	MergedStatesTotal int // total states of the merged relation NFAs (Lemma 4.1) the kernels walk
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
// a nil materialization is the lazy first-witness path). The plan and the
// materialization are dropped on return, and with them what they charged
// to ctx's reservation.
func EvaluateContext(ctx context.Context, db *graphdb.DB, q *query.Query, opts Options) (*Result, error) {
	p, err := prepare(ctx, q, opts)
	if err != nil {
		return nil, err
	}
	defer p.releaseMerge(ctx)
	var mat *Materialization
	if p.strat == Reduction {
		if mat, err = p.Materialize(ctx, db); err != nil {
			return nil, err
		}
		defer mat.release(ctx)
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
	p, err := prepare(ctx, q, opts)
	if err != nil {
		return nil, err
	}
	defer p.releaseMerge(ctx)
	var mat *Materialization
	if p.strat == Reduction && len(q.Free) > 0 {
		if mat, err = p.Materialize(ctx, db); err != nil {
			return nil, err
		}
		defer mat.release(ctx)
	}
	return p.Answers(ctx, db, mat)
}

// PlanHints carries db-dependent decisions from a cost-based planner
// (internal/planner) into a Generic evaluation. Hints are advisory and
// never affect the answer, only the order and size of the search:
//
//   - ComponentOrder is the walk's level order (indices into the plan's
//     component list, a permutation of 0..n-1; ignored when malformed),
//     each component where its last variable is bound.
//   - Candidates restricts the vertex domain a node variable is guessed
//     over to a sound superset of its satisfying assignments (ascending
//     vertex ids, typically from Prepared.PushdownCandidates). Variables
//     absent from the map range over all vertices.
//
// The streaming enumeration path deliberately takes no hints: its tuple
// order is a public cursor contract (see internal/server /v1/enumerate)
// and must not depend on per-database planner state.
type PlanHints struct {
	ComponentOrder []int
	Candidates     map[string][]int
}

// domain returns the hinted candidates of a node variable, nil when it
// ranges over every vertex.
func (h *PlanHints) domain(v string) []int {
	c, ok := h.Candidates[v]
	if ok && c == nil {
		return []int{} // listed, with no vertex
	}
	return c
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

// evalReductionMaterialized decides the query by the reduction strategy
// (Lemma 4.3) on a materialized instance: over the database's vertices,
//
//	R' = { (u1, v1, ..., ut, vt) : ∃ paths ui→vi with labels in R }
//
// per merged component (Lemma 4.1); the conjunctive query with one atom
// R'(x1, y1, ..., xt, yt) per component — its Gaifman graph is exactly
// G^node of the (normalized) abstraction — is evaluated with the
// tree-decomposition dynamic program the plan compiled, and the witness
// paths recovered. A Boolean plan runs it once, in Materialize; a plan with
// free variables on every existential evaluation over mat.
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
	src := p.newSource(ctx, db)
	defer src.release()
	if err := p.recoverWitnesses(ctx, src, res); err != nil {
		return nil, err
	}
	return res, nil
}

// emptyDBSat is the reduction strategy's verdict on a database with no
// vertices, where there is nothing to sweep, stream or join: satisfiable
// only when the query has no atom at all.
func (p *Prepared) emptyDBSat() bool { return len(p.q.Reach) == 0 }

// recoverWitnesses reads the paths for res.Nodes off src's kernels, one
// component at a time: a kernel whose live traversal decided those
// endpoints resumes it, any other begins one. res.Paths is filled.
func (p *Prepared) recoverWitnesses(ctx context.Context, src *sweepSource, res *Result) error {
	_, wsp := trace.StartSpan(ctx, "core/witness")
	defer wsp.End()
	res.Paths = make(map[string]graphdb.Path)
	for ci := range p.merged {
		c := &p.merged[ci]
		ends := make([]int, 2*len(c.tracks))
		srcs, dsts := ends[:len(c.tracks)], ends[len(c.tracks):]
		for k, tr := range c.tracks {
			srcs[k] = res.Nodes[tr.srcVar]
			dsts[k] = res.Nodes[tr.dstVar]
		}
		paths, ok, err := src.fp(ci).witness(ctx, srcs, dsts, p.opts.maxStates())
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("core: internal error: accepted assignment not realizable in component %d", ci)
		}
		for k, tr := range c.tracks {
			res.Paths[tr.pathVar] = paths[k]
		}
	}
	return nil
}
