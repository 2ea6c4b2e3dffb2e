package core

import (
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
	merged   []component // Lemma 4.1 single-relation views, one per component; nil when none were built
	mergedSt int         // total merged NFA states
	cqq      *cq.Query   // Reduction plans: the Lemma 4.3 query, q.Free its free tuple
	join     *cq.Plan    // Reduction plans: the compiled Prop 2.3 join of cqq
	measures twolevel.Measures
	memBytes int
}

// Prepare compiles the query under the given options. The strategy is
// resolved immediately (Auto picks Reduction exactly when every component
// has at most opts.MaxReductionTracks tracks, as in Evaluate).
func Prepare(q *query.Query, opts Options) (*Prepared, error) {
	return PrepareContext(context.Background(), q, opts)
}

// PrepareContext is Prepare with context threading: when ctx carries an
// internal/trace trace, the decomposition and Lemma 4.1 merge stages are
// recorded as spans and the resolved strategy and structural measures
// land on the core/prepare span as attributes. A plan made here is meant
// to be kept: its views are always built (PushdownCandidates reads them)
// and it knows its measures and retained size.
func PrepareContext(ctx context.Context, q *query.Query, opts Options) (*Prepared, error) {
	ctx, sp := trace.StartSpan(ctx, "core/prepare")
	defer sp.End()
	p, err := prepare(ctx, q, opts, true)
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
// merge (Lemma 4.1), build and compile the Lemma 4.3 query. With views
// false the merge is skipped when nothing will read it — a lazy Generic
// plan searches the unmerged product — which is what the one-shot entry
// points ask for.
func prepare(ctx context.Context, q *query.Query, opts Options, views bool) (*Prepared, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	_, dsp := trace.StartSpan(ctx, "core/decompose")
	comps, err := decompose(q)
	dsp.End()
	if err != nil {
		return nil, err
	}
	for ci := range comps {
		comps[ci].nfas = nfaViews(comps[ci].rels)
	}
	p := &Prepared{q: q, opts: opts, comps: comps}
	if p.strat, err = resolveStrategy(comps, opts); err != nil {
		return nil, err
	}
	if views || p.strat == Reduction || opts.EagerMerge {
		if p.merged, p.mergedSt, err = mergedViews(ctx, q, comps); err != nil {
			return nil, err
		}
	}
	if p.strat == Reduction {
		p.cqq = reductionQuery(comps, q.Free)
		if p.join, err = cq.Compile(p.cqq); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// Strategy returns the resolved evaluation strategy.
func (p *Prepared) Strategy() Strategy { return p.strat }

// Measures returns the query's structural measures (computed at Prepare
// time).
func (p *Prepared) Measures() twolevel.Measures { return p.measures }

// Query returns the compiled query.
func (p *Prepared) Query() *query.Query { return p.q }

// MemBytes approximates the retained size of the compiled plan, for cache
// byte budgeting. It counts the merged relation NFAs (the dominant term)
// plus fixed per-component overhead; it is an estimate, not an accounting.
func (p *Prepared) MemBytes() int { return p.memBytes }

// relTransitionBytes approximates the footprint of one NFA transition in
// the decoded nfaView representation (tuple slice + indices).
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
		}
	}
	count(p.comps)
	count(p.merged)
	return total
}

// Materialization is the db-dependent half of a reduction-strategy plan:
// the Lemma 4.3 relational structure (the materialized R' relations) for
// one (query, database) pair. It is immutable after
// Materialize and safe for concurrent EvaluateContext use; cache it keyed
// by the database generation and drop it when the database is replaced.
type Materialization struct {
	st       *cq.Structure
	stats    Stats
	memBytes int
}

// MemBytes is the retained size of the materialized instance: its R' row
// arrays, as the sweep charged them, plus a fixed 512 for what is around them.
func (m *Materialization) MemBytes() int { return m.memBytes }

// Tuples returns the number of materialized CQ tuples (the R' rows).
func (m *Materialization) Tuples() int { return m.stats.CQTuples }

// Materialize runs the Lemma 4.3 R' sweep for this plan against the
// database. It is only meaningful for the Reduction strategy; calling it
// on a Generic plan is an error. ctx cancels the sweep.
func (p *Prepared) Materialize(ctx context.Context, db *graphdb.DB) (*Materialization, error) {
	if p.strat != Reduction {
		return nil, fmt.Errorf("core: Materialize on a %v-strategy plan", p.strat)
	}
	if err := p.checkDB(db); err != nil {
		return nil, err
	}
	ctx, sp := trace.StartSpan(ctx, "core/materialize")
	st, stats, err := p.buildReductionMerged(ctx, db)
	sp.SetInt("cq_tuples", int64(stats.CQTuples))
	sp.End()
	if err != nil {
		return nil, err
	}
	return &Materialization{st: st, stats: stats, memBytes: 512 + st.RowBytes()}, nil
}

func (p *Prepared) checkDB(db *graphdb.DB) error {
	if db.Alphabet().Size() != p.q.Alphabet().Size() {
		return fmt.Errorf("core: query alphabet size %d ≠ database alphabet size %d",
			p.q.Alphabet().Size(), db.Alphabet().Size())
	}
	return nil
}

// EvaluateContext evaluates the prepared query on the database. For a
// Reduction plan, mat supplies a cached Materialization for this database;
// passing nil runs the streaming first-witness path instead (enumerate
// lazily, stop at the first satisfying assignment), which never builds
// the full R' tables — on satisfiable instances it does a fraction of the
// sweep, and Stats.CQTuples reports only the rows actually streamed.
// Generic plans ignore mat. Sat/Nodes/Paths are identical to
// core.EvaluateContext with the same options either way.
func (p *Prepared) EvaluateContext(ctx context.Context, db *graphdb.DB, mat *Materialization) (*Result, error) {
	return p.EvaluateContextHinted(ctx, db, mat, nil)
}

// EvaluateContextHinted is EvaluateContext with planner hints. Hints only
// affect the Generic strategy (component completion order and node-variable
// candidate domains); Reduction plans ignore them. nil hints is exactly
// EvaluateContext.
func (p *Prepared) EvaluateContextHinted(ctx context.Context, db *graphdb.DB, mat *Materialization, hints *PlanHints) (*Result, error) {
	if err := p.checkDB(db); err != nil {
		return nil, err
	}
	var res *Result
	var err error
	switch {
	case p.strat == Generic:
		res, err = p.evalGeneric(ctx, db, nil, hints)
	case db.NumVertices() == 0:
		res = &Result{Sat: p.emptyDBSat()}
	case mat == nil:
		res, err = p.evaluateReductionStreaming(ctx, db)
	default:
		res, err = p.evalReductionMaterialized(ctx, db, mat)
	}
	if err != nil {
		return nil, err
	}
	res.Stats.StrategyUsed = p.strat
	res.Stats.FreeTracks = plainTracks(p.comps)
	res.Stats.Components = len(p.comps) - res.Stats.FreeTracks
	return res, nil
}

// Answers computes the answer set of a query with free variables on the
// database: all tuples of vertices (in Free order) admitting a satisfying
// assignment, sorted lexicographically. A Reduction plan runs its own
// compiled join over mat, the Materialization for this database (nil: it is
// built first), and reads the answers off the reduced tables; a Generic plan
// ignores mat and drains the candidate-pinning enumerator, whose order is
// lexicographic already. Either way the intermediates and every row kept
// are charged to ctx's reservation for the length of the call.
func (p *Prepared) Answers(ctx context.Context, db *graphdb.DB, mat *Materialization) ([][]int, error) {
	if len(p.q.Free) == 0 {
		return nil, fmt.Errorf("core: Answers on a Boolean query; use Evaluate")
	}
	if err := p.checkDB(db); err != nil {
		return nil, err
	}
	mem, charge := meterCharge(ctx)
	defer mem.Close()
	if p.strat == Generic {
		pe, err := newPinnedEnum(ctx, db, p)
		if err != nil {
			return nil, err
		}
		defer pe.Close()
		var out [][]int
		//ecrpq:bounded each iteration consumes one of the enumerator's finitely many candidates
		for row, ok := pe.Next(); ok; row, ok = pe.Next() {
			if err := mem.Grow(int64(24 + 8*len(row))); err != nil {
				return nil, err
			}
			out = append(out, slices.Clone(row))
		}
		return out, pe.Err()
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
