package core

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"ecrpq/internal/cq"
	"ecrpq/internal/govern"
	"ecrpq/internal/graphdb"
	"ecrpq/internal/query"
	"ecrpq/internal/trace"
	"ecrpq/internal/twolevel"
)

// Prepared is a query compiled for evaluation: validation, component
// decomposition, strategy resolution, the Lemma 4.1 component merges and
// the Lemma 4.3 conjunctive query with its compiled join are all done once
// by prepare, and every evaluation, answer set and enumeration is a method
// on the result. Prepared values are immutable after construction and safe
// for concurrent use — this is what internal/plancache stores for the
// query server, and what the package-level one-shot entry points build and
// drop.
type Prepared struct {
	q        *query.Query
	opts     Options
	strat    Strategy    // resolved: never Auto
	comps    []component // every path variable is a track of one of them
	merged   []component // Lemma 4.1 single-relation views, one per component: what every kernel searches
	mergedSt int         // total merged NFA states
	mergeMem int64       // what mergedViews charged to the preparing context's reservation
	empty    bool        // some merged view has no state: its relation, and so every answer set, is ∅
	cqq      *cq.Query   // the Lemma 4.3 query in the walk's level order, q.Free its free tuple
	answersQ *cq.Query   // what the answers walk runs: cqq, after a Generic plan's domain atoms
	join     *cq.Plan    // Reduction plans: the compiled Prop 2.3 join of cqq
	measures twolevel.Measures
	memBytes int
}

// Prepare compiles the query under the given options. The strategy is
// resolved immediately (Auto picks Reduction exactly when every component
// has at most MaxReductionTracks tracks, as in Evaluate).
func Prepare(q *query.Query, opts Options) (*Prepared, error) {
	return PrepareContext(context.Background(), q, opts)
}

// PrepareContext is Prepare with context threading: when ctx carries an
// internal/trace trace, the decomposition and Lemma 4.1 merge stages are
// recorded as spans and the resolved strategy and structural measures
// land on the core/prepare span as attributes. A plan made here is meant
// to be kept: it knows its measures and retained size, and the merge stays
// charged to ctx's reservation.
func PrepareContext(ctx context.Context, q *query.Query, opts Options) (*Prepared, error) {
	ctx, sp := trace.StartSpan(ctx, "core/prepare")
	defer sp.End()
	p, err := prepare(ctx, q, opts)
	if err != nil {
		return nil, err
	}
	p.measures = twolevel.QueryMeasures(q)
	p.memBytes = p.estimateBytes()
	sp.SetStr("strategy", p.strat.String())
	sp.SetInt("components", int64(len(p.comps)))
	sp.SetInt("cc_vertex", int64(p.measures.CCVertex))
	sp.SetInt("treewidth_upper", int64(p.measures.TreewidthUpper))
	return p, nil
}

// prepare is the only compiler: validate, decompose, resolve the strategy,
// merge (Lemma 4.1), build and compile the Lemma 4.3 query. Every plan has
// its merged views: they are the one automaton per component that every
// kernel — product search, sweep, witness — walks. A view with no state is
// the empty relation, so the plan is decided here: it has no answer on any
// database, and its walks and sweeps read nothing.
func prepare(ctx context.Context, q *query.Query, opts Options) (*Prepared, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	_, dsp := trace.StartSpan(ctx, "core/decompose")
	comps, err := decompose(q)
	dsp.End()
	if err != nil {
		return nil, err
	}
	p := &Prepared{q: q, opts: opts, comps: comps}
	if p.strat, err = resolveStrategy(comps, opts); err != nil {
		return nil, err
	}
	if p.merged, p.mergedSt, p.mergeMem, err = mergedViews(ctx, q, comps); err != nil {
		return nil, err
	}
	p.empty = slices.ContainsFunc(p.merged, func(c component) bool { return c.nfa.NumStates() == 0 })
	// A Generic answers walk leads with the free variables when others are existential.
	p.cqq = walkQuery(comps, q.Free, nil, false)
	p.answersQ = walkQuery(comps, q.Free, nil, p.strat == Generic && len(q.Free) < len(q.NodeVars()))
	if p.strat == Reduction {
		if p.join, err = cq.Compile(p.cqq); err != nil {
			p.releaseMerge(ctx)
			return nil, err
		}
	}
	return p, nil
}

// releaseMerge gives back what mergedViews charged to ctx's reservation,
// for a caller that drops the plan it prepared under ctx.
func (p *Prepared) releaseMerge(ctx context.Context) { govern.FromContext(ctx).Shrink(p.mergeMem) }

// Strategy returns the resolved evaluation strategy.
func (p *Prepared) Strategy() Strategy { return p.strat }

// Measures returns the query's structural measures (computed at Prepare
// time).
func (p *Prepared) Measures() twolevel.Measures { return p.measures }

// MemBytes approximates the retained size of the compiled plan, for cache
// byte budgeting. It counts the merged relation NFAs (the dominant term)
// plus fixed per-component overhead; it is an estimate, not an accounting.
func (p *Prepared) MemBytes() int { return p.memBytes }

// relTransitionBytes approximates the footprint of one transition of a
// synchro.Table (tuple slice + target).
const relTransitionBytes = 48

func (p *Prepared) estimateBytes() int {
	total := 256 // struct + slice headers
	count := func(cs []component) {
		for i := range cs {
			total += 128 + 64*len(cs[i].tracks)
			for _, r := range cs[i].rels {
				states, trans := r.Size()
				total += 32*states + relTransitionBytes*trans
			}
			if t := cs[i].nfa; t != nil {
				total += 32*t.NumStates() + relTransitionBytes*t.NumTransitions()
			}
		}
	}
	count(p.comps)
	count(p.merged)
	return total
}

// Materialization is the db-dependent half of a reduction-strategy plan:
// the Lemma 4.3 relational structure (the materialized R' relations) for
// one (query, database) pair and, for a Boolean query, the answer decided
// over it. It is immutable after Materialize and safe for concurrent
// EvaluateContext use; cache it keyed by the database generation and drop
// it when the database is replaced.
type Materialization struct {
	st    *cq.Structure
	stats Stats
	// decided is a Boolean plan's Result over st: the Prop 2.3 join and the
	// witness recovery, run once by Materialize. Its maps are shared with
	// every Result read off it and are never written.
	decided  *Result
	charged  int64 // what Materialize left on its context's reservation: rows and decided
	memBytes int
}

// MemBytes is the retained size of the materialized instance: its R' row
// arrays, as the sweep charged them, the decided answer of a Boolean plan,
// and a fixed 512 for what is around them.
func (m *Materialization) MemBytes() int { return m.memBytes }

// Tuples returns the number of materialized CQ tuples (the R' rows).
func (m *Materialization) Tuples() int { return m.stats.CQTuples }

// release gives back the charge Materialize leaves on ctx's reservation,
// for a caller that drops the materialization it built under ctx.
func (m *Materialization) release(ctx context.Context) {
	govern.FromContext(ctx).Shrink(m.charged)
}

// Materialize runs the Lemma 4.3 R' sweep for this plan against the
// database and, when the query is Boolean, decides it over the rows: the
// compiled join and the witness recovery run here, once, and every
// evaluation over the result returns that answer (Lemma 4.3 and Prop 2.3
// make it a function of the plan and the database alone). It is only
// meaningful for the Reduction strategy; calling it on a Generic plan is
// an error. ctx cancels both phases; a failed call leaves nothing charged.
func (p *Prepared) Materialize(ctx context.Context, db *graphdb.DB) (*Materialization, error) {
	if p.strat != Reduction {
		return nil, fmt.Errorf("core: Materialize on a %v-strategy plan", p.strat)
	}
	if err := p.checkDB(db); err != nil {
		return nil, err
	}
	mctx, sp := trace.StartSpan(ctx, "core/materialize")
	st, stats, err := p.buildReductionMerged(mctx, db)
	sp.SetInt("cq_tuples", int64(stats.CQTuples))
	sp.End()
	if err != nil {
		return nil, err
	}
	m := &Materialization{st: st, stats: stats, charged: int64(st.RowBytes())}
	if len(p.q.Free) == 0 {
		if err := p.decide(ctx, db, m); err != nil {
			m.release(ctx)
			return nil, err
		}
	}
	m.memBytes = 512 + int(m.charged)
	return m, nil
}

// decide sets m.decided to the Boolean answer over m's rows and charges
// its size to ctx's reservation beside them.
func (p *Prepared) decide(ctx context.Context, db *graphdb.DB, m *Materialization) error {
	res := &Result{Sat: p.emptyDBSat()}
	if db.NumVertices() > 0 {
		var err error
		if res, err = p.evalReductionMaterialized(ctx, db, m); err != nil {
			return err
		}
	}
	n := resultBytes(res)
	if err := govern.FromContext(ctx).Grow(n); err != nil {
		return err
	}
	m.decided, m.charged = res, m.charged+n
	return nil
}

// resultBytes approximates what a Result retains: the struct, a map entry
// per node and path variable, and the witness paths' edges.
func resultBytes(r *Result) int64 {
	n := 128 + 48*len(r.Nodes)
	for _, path := range r.Paths {
		n += 64 + 16*len(path.Edges)
	}
	return int64(n)
}

func (p *Prepared) checkDB(db *graphdb.DB) error {
	if db.Alphabet().Size() != p.q.Alphabet().Size() {
		return fmt.Errorf("core: query alphabet size %d ≠ database alphabet size %d",
			p.q.Alphabet().Size(), db.Alphabet().Size())
	}
	return nil
}

// EvaluateContext evaluates the prepared query on the database. For a
// Reduction plan, mat supplies a cached Materialization for this database:
// a Boolean query reads the answer Materialize decided off it, a shallow
// copy whose Nodes and Paths maps are shared and must not be written;
// passing nil runs the streaming first-witness path instead (the walk opens
// R' lazily and stops at the first satisfying assignment), which never
// builds the full R' tables — on satisfiable instances it does a fraction
// of the sweep, and Stats.CQTuples reports only the rows actually streamed.
// Generic plans ignore mat. Sat/Nodes/Paths are identical to
// core.EvaluateContext with the same options either way.
func (p *Prepared) EvaluateContext(ctx context.Context, db *graphdb.DB, mat *Materialization) (*Result, error) {
	return p.EvaluateContextHinted(ctx, db, mat, nil)
}

// EvaluateContextHinted is EvaluateContext with planner hints. Hints only
// affect the Generic strategy, whose first-witness walk takes its level
// order from ComponentOrder and its guesses' domains from Candidates (see
// PlanHints); Reduction plans ignore them. nil hints is exactly
// EvaluateContext.
func (p *Prepared) EvaluateContextHinted(ctx context.Context, db *graphdb.DB, mat *Materialization, hints *PlanHints) (*Result, error) {
	if err := p.checkDB(db); err != nil {
		return nil, err
	}
	var res *Result
	var err error
	switch {
	case p.strat == Generic || mat == nil && db.NumVertices() > 0:
		res, err = p.evaluateStreaming(ctx, db, hints)
	case mat != nil && mat.decided != nil:
		r := *mat.decided
		res = &r
	case db.NumVertices() == 0:
		res = &Result{Sat: p.emptyDBSat()}
	default:
		res, err = p.evalReductionMaterialized(ctx, db, mat)
	}
	if err != nil {
		return nil, err
	}
	res.Stats.StrategyUsed = p.strat
	res.Stats.MergedStatesTotal = p.mergedSt
	res.Stats.FreeTracks = plainTracks(p.comps)
	res.Stats.Components = len(p.comps) - res.Stats.FreeTracks
	return res, nil
}

// Answers computes the answer set of a query with free variables on the
// database: all tuples of vertices (in Free order) admitting a satisfying
// assignment, sorted lexicographically. A Reduction plan runs its own
// compiled join over mat, the Materialization for this database (nil: it is
// built first), and reads the answers off the reduced tables; a Generic plan
// ignores mat, refuses more than 2³² candidate tuples, and sorts the walk's.
// Either way the intermediates and every row kept are charged to ctx's
// reservation for the length of the call.
func (p *Prepared) Answers(ctx context.Context, db *graphdb.DB, mat *Materialization) ([][]int, error) {
	if len(p.q.Free) == 0 {
		return nil, fmt.Errorf("core: Answers on a Boolean query; use Evaluate")
	}
	if err := p.checkDB(db); err != nil {
		return nil, err
	}
	if _, err := sweepSources(db.NumVertices(), len(p.q.Free)); err != nil && p.strat == Generic {
		return nil, err
	}
	mem, charge := meterCharge(ctx)
	defer mem.Close()
	if p.strat == Generic {
		var out [][]int
		var denied error
		err := p.streamAnswers(ctx, db, func(row []int) bool {
			if denied = mem.Grow(int64(24 + 8*len(row))); denied != nil {
				return false
			}
			out = append(out, slices.Clone(row))
			return true
		})
		slices.SortFunc(out, slices.Compare[[]int])
		return out, cmp.Or(err, denied)
	}
	if db.NumVertices() == 0 {
		return nil, nil
	}
	if mat == nil {
		var err error
		if mat, err = p.Materialize(ctx, db); err != nil {
			return nil, err
		}
	}
	_, jsp := trace.StartSpan(ctx, "core/cq_join")
	out, err := p.join.Answers(ctx, mat.st, charge)
	jsp.SetInt("rows_out", int64(len(out)))
	jsp.End()
	return out, err
}

// meterCharge opens a meter over ctx's reservation for intermediates that
// are released as a block, and returns its Charge in the shape the joins
// take — nil, which turns their accounting off, when ctx carries none.
func meterCharge(ctx context.Context) (*govern.Meter, func(int64) error) {
	mem := govern.MeterFrom(ctx)
	if mem == nil {
		return nil, nil
	}
	return mem, mem.Charge
}
