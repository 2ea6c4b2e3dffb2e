package core

// Streaming enumeration: the lazy half of the Lemma 4.3 pipeline.
// Materializing evaluation sweeps all V^t source tuples of every
// component into R' tables before the CQ join runs; here the same R'
// rows are produced on demand by pull iterators (internal/stream) feeding
// the streaming CQ join (cq.StreamAssignments), so the sweep advances
// only as far as the consumer pulls. First witness and first page become
// output-sensitive: they cost a prefix of the sweep, not all of it.

import (
	"context"
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"

	"ecrpq/internal/cq"
	"ecrpq/internal/govern"
	"ecrpq/internal/graphdb"
	"ecrpq/internal/stream"
	"ecrpq/internal/trace"
)

// compRowBytes is what one streamed R' row of a t-track component is charged:
// 2t ints plus a slice header (a materialised row is its 8t bytes of array).
func compRowBytes(t int) int64 { return int64(24 + 16*t) }

// reductionQuery builds the conjunctive query of the Lemma 4.3 instance,
// whose Gaifman graph is G^node of the normalized abstraction, over the
// relations buildReductionMerged materializes (and sweepSource streams).
// It depends on the query alone, so a plan builds and compiles it once.
// One atom per component, in index order (decompose puts the Σ* components
// of unconstrained path variables last). The order is part of the
// enumeration contract: it fixes the answer order the /v1/enumerate cursor
// offsets into.
//
//ecrpq:charged plan construction: O(atoms) slices owned by the prepared plan, counted by Prepared.MemBytes
func reductionQuery(comps []component, free []string) *cq.Query {
	cqq := &cq.Query{Free: append([]string(nil), free...)}
	for ci := range comps {
		c := &comps[ci]
		args := make([]string, 0, 2*len(c.tracks))
		for _, tr := range c.tracks {
			args = append(args, tr.srcVar, tr.dstVar)
		}
		cqq.Atoms = append(cqq.Atoms, cq.Atom{Rel: fmt.Sprintf("__comp%d", ci), Args: args})
	}
	return cqq
}

// sweepSource implements cq.AtomSource over the database: each Open of a
// __comp relation is a lazy R' sweep (restricted by the bound pattern). The
// source owns the shared scratch — one reusable fast product per component,
// the destination memo, trace spans — and release() frees all of it;
// streams returned by Open are independently closeable.
//
// Not safe for concurrent use: the streaming join pulls sequentially.
type sweepSource struct {
	ctx    context.Context
	db     *graphdb.DB
	merged []component
	opts   Options
	n      int

	res *govern.Reservation
	fps []*fastProduct // per component, nil until its first Open is pulled
	// memo keeps, per component and source tuple, the destination list
	// componentReachSet gave: a nested join level re-opens its atom with a
	// pinned source once per prefix row, mostly with sources it has pinned
	// before. Only Opens that pin a source consult it — an unpinned sweep
	// meets each source once. Entries are charged to mem and released at
	// release(); one the reservation refuses is simply not kept.
	memo   []map[string][]int
	mem    *govern.Meter
	keyBuf []byte

	spans    []*trace.Span // per component, opened with its fast product
	spanRows []int64       // rows streamed per component across its Opens
	rows     int64         // total R' rows streamed across all Opens
	released bool
}

func newSweepSource(ctx context.Context, db *graphdb.DB, merged []component, opts Options) *sweepSource {
	res := govern.FromContext(ctx)
	return &sweepSource{
		ctx:      ctx,
		db:       db,
		merged:   merged,
		opts:     opts,
		n:        db.NumVertices(),
		res:      res,
		fps:      make([]*fastProduct, len(merged)),
		memo:     make([]map[string][]int, len(merged)),
		mem:      res.NewMeter(),
		spans:    make([]*trace.Span, len(merged)),
		spanRows: make([]int64, len(merged)),
	}
}

// release frees the product-search scratch, the memo's ledger charge, and
// ends the per-stage spans. Idempotent.
func (s *sweepSource) release() {
	if s.released {
		return
	}
	s.released = true
	for _, fp := range s.fps {
		fp.releaseMem()
	}
	s.mem.Close()
	for ci, sp := range s.spans {
		sp.SetInt("rows", s.spanRows[ci])
		sp.End()
	}
}

// fp returns the component's reusable fast product, opening the
// component's stage span with it. The span ends at release() — a per-Open
// span would flood the trace with one span per join probe.
func (s *sweepSource) fp(ci int) *fastProduct {
	if s.fps[ci] == nil {
		s.fps[ci] = newFastProduct(s.db, &s.merged[ci])
		//ecrpq:ignore spanend -- span lifetime is the source's; release() ends every span in s.spans on all paths
		_, sp := trace.StartSpan(s.ctx, "core/sweep")
		sp.SetInt("component", int64(ci))
		sp.SetInt("tracks", int64(len(s.merged[ci].tracks)))
		sp.SetStr("mode", "stream")
		s.spans[ci] = sp
	}
	return s.fps[ci]
}

// destinations is componentReachSet for component ci through the memo: the
// list comes back shared and must not be written to.
func (s *sweepSource) destinations(ci int, srcs []int) ([]int, error) {
	s.keyBuf = s.keyBuf[:0]
	for _, v := range srcs {
		s.keyBuf = binary.LittleEndian.AppendUint32(s.keyBuf, uint32(v))
	}
	if dsts, ok := s.memo[ci][string(s.keyBuf)]; ok {
		return dsts, nil
	}
	dsts, err := componentReachSet(s.ctx, s.fp(ci), srcs, s.opts.maxStates(), nil)
	if err != nil {
		return nil, err
	}
	if s.mem.Grow(int64(8*cap(dsts)+len(s.keyBuf))+memoEntryBytes) == nil {
		if s.memo[ci] == nil {
			s.memo[ci] = make(map[string][]int)
		}
		s.memo[ci][string(s.keyBuf)] = dsts
	}
	return dsts, nil
}

// memoEntryBytes approximates a memo entry beyond its key and list: the
// map slot, the string and slice headers.
const memoEntryBytes = 64

// Open implements cq.AtomSource for the reduction relations.
func (s *sweepSource) Open(rel string, bound []int) (stream.Tuples, error) {
	num, ok := strings.CutPrefix(rel, "__comp")
	ci, err := strconv.Atoi(num)
	if !ok || err != nil || ci < 0 || ci >= len(s.merged) {
		return nil, fmt.Errorf("core: unknown streamed relation %q", rel)
	}
	t := len(s.merged[ci].tracks)
	if len(bound) != 2*t {
		return nil, fmt.Errorf("core: %s bound pattern has %d positions, want %d", rel, len(bound), 2*t)
	}
	cs, err := newCompStream(s, ci, bound)
	if err != nil {
		return nil, err
	}
	return stream.Metered(cs, s.res.NewMeter(), compRowBytes(t)), nil
}

// compStream lazily enumerates the rows of one component's R' relation
// matching a bound pattern: source tuples in the materializing sweep's
// mixed-radix order (track 0 varies fastest; pinned source positions are
// skipped, yielding a subsequence of the unbound order), destination
// tuples per source in lexicographic order (componentReachSet's order) —
// exactly the sweepComponent order, produced on demand.
type compStream struct {
	s        *sweepSource
	ci, t    int
	fixedSrc []int // per track: bound source vertex, or -1
	boundDst []int // per track: bound destination vertex, or -1
	freePos  []int // track indices whose source position is free
	idx      int   // next mixed-radix index over the free positions
	total    int

	srcs []int // current source tuple
	dsts []int // destination tuples for the current source, t vertices each; the memo's list when a source is pinned
	di   int   // offset of the next destination tuple in dsts
	row  []int // reused output row
	err  error
	done bool
}

//ecrpq:charged O(tracks) pattern scratch; streamed rows are charged by the stream.Metered wrapper in Open
func newCompStream(s *sweepSource, ci int, bound []int) (*compStream, error) {
	t := len(s.merged[ci].tracks)
	cs := &compStream{
		s:        s,
		ci:       ci,
		t:        t,
		fixedSrc: make([]int, t),
		boundDst: make([]int, t),
		srcs:     make([]int, t),
		row:      make([]int, 2*t),
	}
	for k := 0; k < t; k++ {
		cs.fixedSrc[k] = bound[2*k]
		cs.boundDst[k] = bound[2*k+1]
		if bound[2*k] < 0 {
			cs.freePos = append(cs.freePos, k)
		}
	}
	var err error
	cs.total, err = sweepSources(s.n, len(cs.freePos))
	return cs, err
}

// decode fills srcs for mixed-radix index idx: pinned positions keep
// their bound vertex; free positions advance with the lowest track index
// fastest, matching decodeSource.
func (cs *compStream) decode(idx int) {
	copy(cs.srcs, cs.fixedSrc)
	for _, k := range cs.freePos {
		cs.srcs[k] = idx % cs.s.n
		idx /= cs.s.n
	}
}

func (cs *compStream) Next() ([]int, bool) {
	if cs.err != nil || cs.done {
		return nil, false
	}
	//ecrpq:bounded each iteration either yields a row or advances idx toward total; both are finite
	for {
		//ecrpq:bounded di advances through the current source's finite destination list
		for cs.di < len(cs.dsts) {
			d := cs.dsts[cs.di : cs.di+cs.t]
			cs.di += cs.t
			if !cs.dstMatches(d) {
				continue
			}
			for k := 0; k < cs.t; k++ {
				cs.row[2*k] = cs.srcs[k]
				cs.row[2*k+1] = d[k]
			}
			cs.s.spanRows[cs.ci]++
			cs.s.rows++
			return cs.row, true
		}
		if cs.idx >= cs.total {
			cs.done = true
			return nil, false
		}
		if err := cs.s.ctx.Err(); err != nil {
			cs.err = err
			return nil, false
		}
		cs.decode(cs.idx)
		cs.idx++
		var err error
		if len(cs.freePos) < cs.t {
			cs.dsts, err = cs.s.destinations(cs.ci, cs.srcs)
		} else { // an unpinned sweep meets each source once: no memo, and dsts stays its own buffer
			cs.dsts, err = componentReachSet(cs.s.ctx, cs.s.fp(cs.ci), cs.srcs, cs.s.opts.maxStates(), cs.dsts[:0])
		}
		if err != nil {
			cs.err = err
			return nil, false
		}
		cs.di = 0
	}
}

func (cs *compStream) dstMatches(d []int) bool {
	for k, want := range cs.boundDst {
		if want >= 0 && d[k] != want {
			return false
		}
	}
	return true
}

func (cs *compStream) Err() error { return cs.err }
func (cs *compStream) Close()     { cs.done = true; cs.dsts = nil }

// Enumerate streams the query's answers over db incrementally: tuples in
// q.Free order for a query with free variables, at most one empty tuple
// for a Boolean query. The enumeration order is deterministic (fixed by
// the plan), duplicates are suppressed, and answers match Answers as a
// set. The iterator charges the ledger per chunk when ctx carries a
// govern reservation, honors ctx cancellation at every Next, and must be
// Closed on all paths — Close releases all reservations and scratch.
//
// Reduction plans stream the R' sweep lazily; Generic plans pin candidate
// tuples lazily in lexicographic order.
func (p *Prepared) Enumerate(ctx context.Context, db *graphdb.DB) (stream.Tuples, error) {
	if err := p.checkDB(db); err != nil {
		return nil, err
	}
	if p.strat == Generic {
		pe, err := newPinnedEnum(ctx, db, p)
		if err != nil {
			return nil, err
		}
		return stream.WithContext(ctx, pe), nil
	}
	if db.NumVertices() == 0 {
		if len(p.q.Free) == 0 && p.emptyDBSat() {
			return stream.Once(nil), nil
		}
		return stream.Empty(), nil
	}
	src, charge, release := p.openSweep(ctx, db)
	ans, err := cq.StreamAnswers(src, p.cqq, charge)
	if err != nil {
		release()
		return nil, err
	}
	return stream.WithContext(ctx, stream.OnClose(ans, release)), nil
}

// openSweep starts the lazy Lemma 4.3 pipeline over db: the source the
// streaming join pulls R' rows from, and the charge for what the join
// itself buffers (dedup set, hash levels). release frees both.
func (p *Prepared) openSweep(ctx context.Context, db *graphdb.DB) (src *sweepSource, charge func(int64) error, release func()) {
	src = newSweepSource(ctx, db, p.merged, p.opts)
	mem, charge := meterCharge(ctx)
	return src, charge, func() {
		mem.Close()
		src.release()
	}
}

// evaluateReductionStreaming is the first-witness fast path: enumerate
// full CQ assignments lazily and stop at the first one, instead of
// materializing every R' table before the join. Satisfiability of a
// satisfiable instance costs a prefix of the sweep; unsatisfiable
// instances still sweep fully (the join must prove exhaustion), matching
// the materializing path's worst case without retaining its tables.
func (p *Prepared) evaluateReductionStreaming(ctx context.Context, db *graphdb.DB) (*Result, error) {
	src, charge, release := p.openSweep(ctx, db)
	defer release()
	_, jsp := trace.StartSpan(ctx, "core/cq_join")
	jsp.SetStr("mode", "stream")
	asg, vars, err := cq.StreamAssignments(src, p.cqq, charge)
	if err != nil {
		jsp.End()
		return nil, err
	}
	it := stream.WithContext(ctx, asg)
	defer it.Close()
	row, ok := it.Next()
	err = it.Err()
	jsp.End()
	if err != nil {
		return nil, err
	}
	res := &Result{Sat: ok, Stats: Stats{CQTuples: int(src.rows)}}
	if !ok {
		return res, nil
	}
	res.Nodes = make(map[string]int, len(vars))
	for i, v := range vars {
		res.Nodes[v] = row[i]
	}
	if err := p.recoverWitnesses(ctx, db, res); err != nil {
		return nil, err
	}
	return res, nil
}

// pinnedEnum is the Generic strategy's answer enumerator: one search set up
// for the whole enumeration with the free variables pinned, which then
// decides each candidate tuple in lexicographic order — no paths, and one
// core/product_search span however many candidates there are. A Boolean
// query is a single decision yielding at most one empty tuple. Close
// releases the kernels the search keeps between candidates.
type pinnedEnum struct {
	ctx   context.Context
	g     *genericSearch // nil once closed
	sp    *trace.Span
	free  []string
	tuple []int
	idx   int
	total int
	err   error
}

func newPinnedEnum(ctx context.Context, db *graphdb.DB, p *Prepared) (*pinnedEnum, error) {
	f := len(p.q.Free)
	total, err := sweepSources(db.NumVertices(), f)
	if err != nil {
		return nil, err
	}
	pinned := make(map[string]int, f)
	for _, v := range p.q.Free {
		pinned[v] = 0
	}
	//ecrpq:ignore spanend -- the span's lifetime is the enumeration's; Close ends it, which streamclose enforces on all paths
	_, sp := trace.StartSpan(ctx, "core/product_search")
	return &pinnedEnum{ctx: ctx, g: p.newGenericSearch(db, pinned, nil, false), sp: sp, free: p.q.Free, tuple: make([]int, f), total: total}, nil
}

func (pe *pinnedEnum) Next() ([]int, bool) {
	if pe.err != nil || pe.g == nil {
		return nil, false
	}
	//ecrpq:bounded each iteration consumes one candidate index; total is finite
	for pe.idx < pe.total {
		if pe.err = pe.ctx.Err(); pe.err != nil {
			return nil, false
		}
		// Candidate idx in lexicographic order: the last free variable
		// varies fastest.
		n := pe.g.db.NumVertices()
		for i, rest := len(pe.tuple)-1, pe.idx; i >= 0; i-- {
			pe.tuple[i], rest = rest%n, rest/n
			pe.g.pinned[pe.free[i]] = pe.tuple[i]
		}
		pe.idx++
		var sat bool
		if sat, pe.err = pe.g.decide(pe.ctx); pe.err != nil {
			return nil, false
		}
		if sat {
			return pe.tuple, true
		}
	}
	pe.Close()
	return nil, false
}

func (pe *pinnedEnum) Err() error { return pe.err }

func (pe *pinnedEnum) Close() {
	if pe.g != nil {
		pe.g.report(pe.sp)
		pe.sp.End()
		pe.g.release()
		pe.g = nil
	}
}
