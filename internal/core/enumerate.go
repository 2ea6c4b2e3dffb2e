//go:build go1.23

package core

// Streaming enumeration, the lazy half of the Lemma 4.3 pipeline:
// sweepSource.Scan produces R' rows on demand for the streaming join, which
// stops the sweep when its consumer stops, so first witness and first page
// cost a prefix of the sweep rather than every R' table.

import (
	"cmp"
	"context"
	"encoding/binary"
	"fmt"
	"iter"
	"slices"
	"strconv"
	"strings"

	"ecrpq/internal/cq"
	"ecrpq/internal/govern"
	"ecrpq/internal/graphdb"
	"ecrpq/internal/trace"
)

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

// sweepSource implements cq.AtomSource over the database: each Scan of a
// __comp relation is a lazy R' sweep restricted by the bound pattern. It
// holds one reusable fast product per component and the destination memo
// for as long as Prepared.sweep runs. Not safe for concurrent use.
type sweepSource struct {
	ctx context.Context
	db  *graphdb.DB
	p   *Prepared
	res *govern.Reservation
	fps []*fastProduct // per component, nil until its first Scan
	// memo keeps, per component and pinned source tuple, the destination
	// list componentReachSet gave: a nested level re-scans its atom once per
	// prefix row, mostly with sources pinned before. Entries are charged to
	// mem, the join's meter; one the reservation refuses is simply not kept.
	memo   []map[string][]int
	mem    *govern.Meter
	keyBuf []byte
	rows   []int64 // R' rows scanned per component
}

// fp returns the component's reusable fast product.
func (s *sweepSource) fp(ci int) *fastProduct {
	if s.fps[ci] == nil {
		s.fps[ci] = newFastProduct(s.db, &s.p.merged[ci])
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
	dsts, err := componentReachSet(s.ctx, s.fp(ci), srcs, s.p.opts.maxStates(), nil)
	if err != nil {
		return nil, err
	}
	// Beyond key and list, an entry holds a map slot and three headers: 64 bytes.
	if s.mem.Grow(int64(8*cap(dsts)+len(s.keyBuf))+64) == nil {
		if s.memo[ci] == nil {
			s.memo[ci] = make(map[string][]int)
		}
		s.memo[ci][string(s.keyBuf)] = dsts
	}
	return dsts, nil
}

// Scan yields the rows of one component's R' matching bound in the
// materializing sweep's order: sources mixed-radix with track 0 fastest
// (pinned positions skipped), each source's destinations lexicographic.
// ctx is polled once per source. Every 64 rows, once yield asks for more,
// the chunk is charged to a meter closed on return: 24 + 16t bytes a row,
// its 2t ints and a slice header (a materialised row is its 8t bytes).
//
//ecrpq:charged O(tracks) pattern scratch; the rows are charged in chunks to the Scan's meter
func (s *sweepSource) Scan(rel string, bound []int, yield func([]int) bool) error {
	num, ok := strings.CutPrefix(rel, "__comp")
	ci, err := strconv.Atoi(num)
	if !ok || err != nil || ci < 0 || ci >= len(s.p.merged) || len(bound) != 2*len(s.p.merged[ci].tracks) {
		return fmt.Errorf("core: no streamed relation %q of arity %d", rel, len(bound))
	}
	t := len(bound) / 2
	srcs, row := make([]int, t), make([]int, 2*t)
	var free []int // the tracks whose source is not pinned
	for k := range srcs {
		if srcs[k] = bound[2*k]; srcs[k] < 0 {
			free = append(free, k)
		}
	}
	n := s.db.NumVertices()
	total, err := sweepSources(n, len(free))
	if err != nil {
		return err
	}
	m := s.res.NewMeter()
	defer m.Close()
	var dsts []int // t vertices per destination tuple; the memo's list when a source is pinned
	for idx, pending := 0, 0; idx < total; idx++ {
		if err := s.ctx.Err(); err != nil {
			return err
		}
		for j, rest := 0, idx; j < len(free); j++ {
			srcs[free[j]], rest = rest%n, rest/n
		}
		if len(free) < t {
			dsts, err = s.destinations(ci, srcs)
		} else { // an unpinned sweep meets each source once: no memo, and dsts stays its own buffer
			dsts, err = componentReachSet(s.ctx, s.fp(ci), srcs, s.p.opts.maxStates(), dsts[:0])
		}
		if err != nil {
			return err
		}
	dests:
		for d := 0; d < len(dsts); d += t {
			for k := 0; k < t; k++ {
				if b := bound[2*k+1]; b >= 0 && dsts[d+k] != b {
					continue dests
				}
				row[2*k], row[2*k+1] = srcs[k], dsts[d+k]
			}
			if s.rows[ci]++; !yield(row) {
				return nil
			}
			if pending++; pending == 64 {
				if err := m.Grow(64 * int64(24+16*t)); err != nil {
					return err
				}
				pending = 0
			}
		}
	}
	return nil
}

// sweep runs walk over a lazy R' source on db with the charge for what the
// join buffers, which the memo's entries share, and releases the source's
// kernels, the charges and the per-component core/sweep spans when walk
// returns.
func (p *Prepared) sweep(ctx context.Context, db *graphdb.DB, walk func(src *sweepSource, charge cq.ChargeFunc) error) error {
	mem, charge := meterCharge(ctx)
	defer mem.Close()
	n := len(p.merged)
	src := &sweepSource{ctx: ctx, db: db, p: p, res: govern.FromContext(ctx), fps: make([]*fastProduct, n),
		memo: make([]map[string][]int, n), mem: mem, rows: make([]int64, n)}
	spans := make([]*trace.Span, n)
	for ci := range spans {
		_, sp := trace.StartSpan(ctx, "core/sweep")
		defer sp.End()
		sp.SetInt("component", int64(ci))
		sp.SetInt("tracks", int64(len(p.merged[ci].tracks)))
		sp.SetStr("mode", "stream")
		spans[ci] = sp
	}
	defer func() { // before the spans end
		for ci, fp := range src.fps {
			fp.releaseMem()
			spans[ci].SetInt("rows", src.rows[ci])
		}
	}()
	return walk(src, charge)
}

// Enumeration is the pull view of one enumeration: the push walk runs as a
// coroutine (iter.Pull), and each Next resumes it up to its next row.
type Enumeration struct {
	ctx  context.Context
	next func() ([]int, bool)
	stop func()
	err  error
}

// Next returns the next answer, or false when the enumeration is exhausted
// or failed (check Err). The row is only valid until the next call. ctx is
// checked on every call.
func (e *Enumeration) Next() ([]int, bool) {
	if e.err = cmp.Or(e.err, e.ctx.Err()); e.err != nil {
		return nil, false
	}
	return e.next()
}

// Err returns the error that ended the enumeration, nil on exhaustion.
func (e *Enumeration) Err() error { return e.err }

// Close ends the enumeration on all paths: a walk suspended at a row sees
// its yield return false, so every deferred release runs — kernels, spans
// and govern charges. Idempotent.
func (e *Enumeration) Close() { e.stop() }

// Enumerate streams the answers over db, Answers' set without duplicates
// in an order fixed by the plan: tuples in q.Free order, at most one empty
// tuple for a Boolean query. Reduction plans sweep R' lazily; Generic plans
// decide candidates in lexicographic order, refusing more than 2³² up
// front. It charges ctx's reservation as it goes and must be Closed.
func (p *Prepared) Enumerate(ctx context.Context, db *graphdb.DB) (*Enumeration, error) {
	if err := p.checkDB(db); err != nil {
		return nil, err
	}
	if p.strat == Generic {
		if _, err := sweepSources(db.NumVertices(), len(p.q.Free)); err != nil {
			return nil, err
		}
	}
	e := &Enumeration{ctx: ctx}
	e.next, e.stop = iter.Pull(func(yield func([]int) bool) {
		var err error
		if p.strat == Generic {
			err = p.decideCandidates(ctx, db, yield)
		} else { // on an empty database only an atom-free query has a row, the empty one
			err = p.sweep(ctx, db, func(src *sweepSource, charge cq.ChargeFunc) error {
				return cq.StreamAnswers(src, p.cqq, charge, yield)
			})
		}
		if err != nil { // a stopped walk returns nil: keep what ended it
			e.err = err
		}
	})
	return e, nil
}

// evaluateReductionStreaming is the first-witness fast path: the join's
// yield keeps the first assignment and stops the sweep. Satisfiability of a
// satisfiable instance costs a prefix of the sweep; an unsatisfiable one
// still sweeps fully (the join must prove exhaustion), without the tables.
func (p *Prepared) evaluateReductionStreaming(ctx context.Context, db *graphdb.DB) (*Result, error) {
	res := &Result{}
	var vars []string
	var first []int
	err := p.sweep(ctx, db, func(src *sweepSource, charge cq.ChargeFunc) error {
		_, jsp := trace.StartSpan(ctx, "core/cq_join")
		defer jsp.End()
		jsp.SetStr("mode", "stream")
		var err error
		vars, err = cq.StreamAssignments(src, p.cqq, charge, func(row []int) bool {
			res.Sat, first = true, slices.Clone(row)
			return false
		})
		for _, n := range src.rows {
			res.Stats.CQTuples += int(n)
		}
		return err
	})
	if err == nil && res.Sat {
		res.Nodes = make(map[string]int, len(vars))
		for i, v := range vars {
			res.Nodes[v] = first[i]
		}
		err = p.recoverWitnesses(ctx, db, res)
	}
	return res, err
}

// decideCandidates is the Generic answer walk: one search with the free
// variables pinned decides each candidate tuple in lexicographic order
// (last variable fastest) and yields the satisfiable ones — no paths, one
// core/product_search span. A Boolean query is one decision.
func (p *Prepared) decideCandidates(ctx context.Context, db *graphdb.DB, yield func([]int) bool) error {
	f, n := len(p.q.Free), db.NumVertices()
	total, err := sweepSources(n, f)
	if err != nil {
		return err
	}
	pinned := make(map[string]int, f)
	for _, v := range p.q.Free {
		pinned[v] = 0
	}
	_, sp := trace.StartSpan(ctx, "core/product_search")
	g := p.newGenericSearch(db, pinned, nil, false)
	defer g.release()
	defer sp.End()
	defer g.report(sp)
	tuple := make([]int, f)
	for idx := 0; idx < total; idx++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		for i, rest := f-1, idx; i >= 0; i-- {
			tuple[i], rest = rest%n, rest/n
			g.pinned[p.q.Free[i]] = tuple[i]
		}
		if sat, err := g.decide(ctx); err != nil || sat && !yield(tuple) {
			return err // nil when the consumer stopped
		}
	}
	return nil
}
