//go:build go1.23

package core

// The walk, the one join over node variables: cq.StreamAssignments and
// cq.StreamAnswers bind one atom per level, and sweepSource.Scan reads each
// in the plan's access mode. It stops when its consumer stops, so a first
// witness or a first page costs a prefix of the work.

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

// walkQuery is the walk's conjunctive query, an atom __comp<i>(x1, y1, …)
// per component over its R': G^node of the normalized abstraction. The
// components come in seq (nil: index order, where decompose puts the Σ*
// components of unconstrained path variables last), each where its last
// variable is bound: one whose variables the atoms before it all bind, a
// filter, moves up to right after the atom that binds the last of them,
// which changes no row the walk yields nor their order — the order the
// /v1/enumerate cursor offsets into. With domains, an atom __free<i>(v) per
// free variable, read as v's candidates, comes first, so that a Generic
// answers walk stops at each candidate's first derivation.
//
//ecrpq:charged plan construction: query-sized, one entry per node variable and atom, owned by the prepared plan
func walkQuery(comps []component, free []string, seq []int, domains bool) *cq.Query {
	binder := make(map[string]int) // variable → the group of the atom that binds it
	var groups [][]cq.Atom
	for i, v := range free {
		if domains {
			binder[v] = len(groups)
			groups = append(groups, []cq.Atom{{Rel: fmt.Sprintf("__free%d", i), Args: []string{v}}})
		}
	}
	for i := range comps {
		ci := i
		if seq != nil {
			ci = seq[i]
		}
		at := cq.Atom{Rel: fmt.Sprintf("__comp%d", ci)}
		for _, tr := range comps[ci].tracks {
			at.Args = append(at.Args, tr.srcVar, tr.dstVar)
		}
		last, binds := -1, false
		for _, v := range comps[ci].nodeVars {
			if g, ok := binder[v]; ok {
				last = max(last, g)
			} else {
				binder[v], binds = len(groups), true
			}
		}
		if binds {
			groups = append(groups, []cq.Atom{at})
		} else {
			groups[last] = append(groups[last], at)
		}
	}
	return &cq.Query{Free: slices.Clone(free), Atoms: slices.Concat(groups...)}
}

// sweepSource implements cq.AtomSource over the database, one kernel per
// component, for as long as Prepared.sweep runs. A Reduction plan's opens
// R' lazily, from the bound sources; a Generic plan's checks, with no
// tables. Not safe for concurrent use.
type sweepSource struct {
	ctx  context.Context
	db   *graphdb.DB
	p    *Prepared
	res  *govern.Reservation
	fps  []*fastProduct // per component, nil until its first Scan
	rows []int64        // rows yielded per component
	// memo keeps, per component and pinned source tuple, the destination
	// list componentReachSet gave: a nested level re-scans its atom once per
	// prefix row, mostly with sources pinned before. Entries are charged to
	// mem, the join's meter; one the reservation refuses is simply not kept.
	memo    []map[string][]int
	mem     *govern.Meter
	keyBuf  []byte
	scratch [][]int // per component, its Scans' buffer: they never nest
	// The check mode (Generic plans): the guesses' domains, whether the
	// kernels record for a witness, and the guesses and decisions made.
	check bool
	paths bool
	hints *PlanHints
	work  Stats
	spans []*trace.Span // core/sweep per component, or core/product_search
}

// newSource is a source over db with no kernel built yet; release gives
// back the kernels' tables and charges.
func (p *Prepared) newSource(ctx context.Context, db *graphdb.DB) *sweepSource {
	n := len(p.merged)
	return &sweepSource{ctx: ctx, db: db, p: p, res: govern.FromContext(ctx), fps: make([]*fastProduct, n),
		rows: make([]int64, n), memo: make([]map[string][]int, n), scratch: make([][]int, n)}
}

func (s *sweepSource) release() {
	for _, fp := range s.fps {
		fp.releaseMem()
	}
}

// fp returns the component's reusable fast product.
func (s *sweepSource) fp(ci int) *fastProduct {
	if s.fps[ci] == nil {
		s.fps[ci] = newFastProduct(s.db, &s.p.merged[ci])
		s.fps[ci].paths = s.paths
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

// Scan yields the rows of an atom matching bound, guessing unbound
// variables, the last fastest. In check mode: all of them in nodeVars
// order over their candidates, each value counted (ctx polled every
// cancelCheckInterval), each complete guess decided on the kernel. Opening
// R': the distinct source variables, the last track's most significant
// (the sweep's order), ctx polled once per source, whose destinations come
// off the kernel lexicographically. Every 64 rows yielded are charged to a
// meter closed on return, 24 + 16t bytes each.
//
//ecrpq:charged O(tracks) pattern scratch kept per component; the rows are charged in chunks to the Scan's meter
func (s *sweepSource) Scan(rel string, bound []int, yield func([]int) bool) error {
	num, ok := strings.CutPrefix(rel, "__comp")
	ci, err := strconv.Atoi(num)
	var c *component
	if ok && err == nil && ci >= 0 && ci < len(s.p.merged) && len(bound) == 2*len(s.p.merged[ci].tracks) {
		c = &s.p.merged[ci]
	} else if num, ok = strings.CutPrefix(rel, "__free"); ok && len(bound) == 1 { // a free variable's domain: one variable, no track
		if fi, err := strconv.Atoi(num); err == nil && fi >= 0 && fi < len(s.p.q.Free) {
			ci, c = -1, &component{nodeVars: s.p.q.Free[fi : fi+1], ends: []int{0}}
		}
	}
	if c == nil {
		return fmt.Errorf("core: no streamed relation %q of arity %d", rel, len(bound))
	}
	t, nv, n := len(c.tracks), len(c.nodeVars), s.db.NumVertices()
	// Per variable its value (-1 while unbound), the variables guessed, per
	// guessed one its place in its domain, and a guess's endpoints.
	var buf []int
	if ci >= 0 && cap(s.scratch[ci]) >= 3*nv+4*t {
		buf = s.scratch[ci][:3*nv+4*t]
	} else if buf = make([]int, 3*nv+4*t); ci >= 0 {
		s.scratch[ci] = buf
	}
	vals, digits, pos := buf[:nv], buf[nv:nv:2*nv], buf[2*nv:3*nv]
	srcs, want, row := buf[3*nv:3*nv+t], buf[3*nv+t:3*nv+2*t], buf[3*nv+2*t:]
	var dsts []int // t vertices per destination tuple; the memo's list when a source is pinned
	for i := range vals {
		vals[i], pos[i] = -1, -1
	}
	pinned := false // a source is bound: the memo serves the Scans that repeat it
	for i, b := range bound {
		if b >= 0 {
			vals[c.ends[i]], pinned = b, pinned || i%2 == 0
		}
	}
	var doms [][]int // per digit: its candidates, nil for every vertex
	if s.check {
		for v := range vals {
			if vals[v] < 0 {
				digits = append(digits, v)
				if s.hints != nil {
					doms = append(doms, s.hints.domain(c.nodeVars[v]))
				}
			}
		}
	} else {
		for _, v := range c.pat.digits {
			if vals[v] < 0 {
				digits = append(digits, v)
			}
		}
		if _, err := sweepSources(n, len(digits)); err != nil {
			return err
		}
	}
	var fp *fastProduct
	if ci >= 0 {
		fp = s.fp(ci)
	}
	ends, maxStates := c.ends, s.p.opts.maxStates()
	var m *govern.Meter // made at the first chunk
	defer func() { m.Close() }()
	for j, pending := 0, 0; j >= 0; {
		if j < len(digits) { // move digit j to its next value that is a vertex, or back out of it
			pos[j]++
			d, end := pos[j], n
			if doms != nil && doms[j] != nil {
				if end = len(doms[j]); d < end {
					d = doms[j][d]
				}
			}
			if pos[j] >= end {
				pos[j], j = -1, j-1
			} else if d >= 0 && d < n {
				vals[digits[j]], j = d, j+1
				if s.check {
					if s.work.NodeAssignments++; s.work.NodeAssignments%cancelCheckInterval == 0 {
						if err := pollSearch(s.ctx); err != nil {
							return err
						}
					}
				}
			}
			continue
		}
		j-- // a complete guess; the next pass moves the last digit
		if ci < 0 {
			if !yield(vals) {
				return nil
			}
			continue
		}
		for k := range srcs {
			srcs[k], want[k] = vals[ends[2*k]], vals[ends[2*k+1]]
		}
		if s.check {
			reached, err := fp.reach(s.ctx, srcs, want, maxStates)
			if s.work.ProductChecks++; err != nil {
				return err
			} else if !reached {
				continue
			}
			dsts = want
		} else if err = s.ctx.Err(); err != nil {
			return err
		} else if pinned {
			dsts, err = s.destinations(ci, srcs)
		} else { // an unpinned sweep meets each source once: no memo, and dsts stays its own buffer
			dsts, err = componentReachSet(s.ctx, fp, srcs, maxStates, dsts[:0])
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
			if !c.pat.keeps(row) {
				continue
			}
			if s.rows[ci]++; !yield(row) {
				return nil
			}
			if pending++; pending == 64 {
				if m == nil {
					m = s.res.NewMeter()
				}
				if err := m.Grow(64 * int64(24+16*t)); err != nil {
					return err
				}
				pending = 0
			}
		}
	}
	return nil
}

// end puts the walk's work on its spans, ends them and returns it. A walk
// ends its source when it returns, before any paths are read off it.
func (s *sweepSource) end() Stats {
	st := s.work
	for ci, fp := range s.fps {
		if fp != nil {
			st.Traversals += fp.traversals
			st.ProductStates += fp.expanded
		}
		if !s.check {
			st.CQTuples += int(s.rows[ci])
			s.spans[ci].SetInt("rows", s.rows[ci])
			s.spans[ci].End()
		}
	}
	if s.check {
		s.spans[0].SetInt("product_checks", int64(st.ProductChecks))
		s.spans[0].SetInt("node_assignments", int64(st.NodeAssignments))
		s.spans[0].SetInt("traversals", int64(st.Traversals))
		s.spans[0].SetInt("states", int64(st.ProductStates))
		s.spans[0].End()
	}
	return st
}

// sweep runs walk over a source on db, with the charge for what the join
// buffers (the memo's entries share it): one core/sweep span per component
// opening R', or one core/product_search span checking under hints, with
// paths recorded when asked. It releases kernels, charges and spans. A plan
// with an empty relation has no row to walk to: walk is not run.
func (p *Prepared) sweep(ctx context.Context, db *graphdb.DB, hints *PlanHints, paths bool, walk func(src *sweepSource, charge cq.ChargeFunc) error) error {
	if err := ctx.Err(); err != nil || p.empty {
		return err
	}
	mem, charge := meterCharge(ctx)
	defer mem.Close()
	src := p.newSource(ctx, db)
	defer src.release()
	src.mem, src.check = mem, p.strat == Generic
	if src.check {
		src.paths, src.hints = paths, hints
		_, sp := trace.StartSpan(ctx, "core/product_search")
		defer sp.End()
		src.spans = append(src.spans, sp)
	} else {
		for ci := range p.merged {
			_, sp := trace.StartSpan(ctx, "core/sweep")
			defer sp.End()
			sp.SetInt("component", int64(ci))
			sp.SetInt("tracks", int64(len(p.merged[ci].tracks)))
			sp.SetStr("mode", "stream")
			src.spans = append(src.spans, sp)
		}
	}
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
// tuple for a Boolean query. It is the walk under either strategy; a
// Generic plan refuses more than 2³² candidate tuples up front. It charges
// ctx's reservation as it goes and must be Closed.
func (p *Prepared) Enumerate(ctx context.Context, db *graphdb.DB) (*Enumeration, error) {
	if err := p.checkDB(db); err != nil {
		return nil, err
	}
	if _, err := sweepSources(db.NumVertices(), len(p.q.Free)); err != nil && p.strat == Generic {
		return nil, err
	}
	e := &Enumeration{ctx: ctx}
	e.next, e.stop = iter.Pull(func(yield func([]int) bool) {
		// On an empty database only an atom-free query has a row, the empty one.
		if err := p.streamAnswers(ctx, db, yield); err != nil { // a stopped walk returns nil: keep what ended it
			e.err = err
		}
	})
	return e, nil
}

// streamAnswers is the walk's answers, deduplicated, yielded in its order
// until yield returns false.
func (p *Prepared) streamAnswers(ctx context.Context, db *graphdb.DB, yield func([]int) bool) error {
	return p.sweep(ctx, db, nil, false, func(src *sweepSource, charge cq.ChargeFunc) error {
		defer src.end()
		return cq.StreamAnswers(src, p.answersQ, charge, yield)
	})
}

// evaluateStreaming is the walk's first witness: the join's yield keeps the
// first assignment and stops the walk, and the paths are read off the
// source's kernels. Opening R', a satisfiable instance costs a prefix of
// the sweep and an unsatisfiable one a full sweep without the tables.
func (p *Prepared) evaluateStreaming(ctx context.Context, db *graphdb.DB, hints *PlanHints) (*Result, error) {
	res, q := &Result{}, p.cqq
	if seq := hints.componentOrder(len(p.comps)); seq != nil && p.strat == Generic {
		q = walkQuery(p.comps, p.q.Free, seq, false)
	}
	err := p.sweep(ctx, db, hints, true, func(src *sweepSource, charge cq.ChargeFunc) error {
		var jsp *trace.Span
		if !src.check {
			_, jsp = trace.StartSpan(ctx, "core/cq_join")
			jsp.SetStr("mode", "stream")
		}
		var first []int
		vars, err := cq.StreamAssignments(src, q, charge, func(row []int) bool {
			res.Sat, first = true, slices.Clone(row)
			return false
		})
		jsp.End()
		if res.Stats = src.end(); err != nil || !res.Sat {
			return err
		}
		res.Nodes = make(map[string]int, len(vars))
		for i, v := range vars {
			res.Nodes[v] = first[i]
		}
		return p.recoverWitnesses(ctx, src, res)
	})
	return res, err
}
