package cq

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"ecrpq/internal/invariant"
	"ecrpq/internal/rowset"
)

// ChargeFunc accounts join-intermediate bytes during tree-decomposition
// evaluation: positive deltas charge, negative deltas release (a table was
// replaced by a smaller one). Returning an error aborts the evaluation —
// the caller's budget is exhausted. A nil ChargeFunc disables accounting.
// The evaluation never hands back what its final tables hold: the caller
// releases the total when the evaluation returns, whichever way it ends.
type ChargeFunc func(deltaBytes int64) error

// take reports delta to c; a nil c accounts nothing.
func (c ChargeFunc) take(delta int64) error {
	if c == nil {
		return nil
	}
	return c(delta)
}

// Work reports what one evaluation of a Plan did.
type Work struct {
	Bags     int // bag tables in the plan
	RowsIn   int // relation rows scanned
	RowsPeak int // rows of the largest bag table built
	WideKeys int // joins and semijoins whose key columns did not pack into 64 bits
}

// flatTable is a bag table: rows back to back in one slice, stride values
// each. rows is explicit because a table over no columns still has a row
// count (the bag with no atoms starts from the one empty row).
type flatTable struct {
	data   []int32
	stride int
	rows   int
}

func (t *flatTable) row(i int) []int32 { return t.data[i*t.stride : (i+1)*t.stride] }

func (t *flatTable) reset(stride int) { t.data, t.stride, t.rows = t.data[:0], stride, 0 }

// resize returns s with length n, reusing its array when that is large
// enough. The contents are unspecified.
func resize[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }

// scratch is every buffer one evaluation uses. It is pooled: the slices
// keep their capacity from one evaluation to the next, so a steady stream
// of evaluations allocates nothing here.
type scratch struct {
	base      []flatTable // per bag: its table
	atom, out flatTable   // a join's scanned atom; a join's or an extension's output
	set       []uint64    // dense semijoin key set
	idx       rowIndex
	charged   []int64 // per bag: bytes reported through the ChargeFunc
	bagScans  []bagScan
	tuple     []int
	answers   []int      // Answers: the rows the walk yields, back to back
	walk      streamPlan // the walk's state over the reduced tables
}

// bagScan is what the walk's Scans of one bag keep: the tuple they hand
// out, how often the bag was probed, and an index on its separator columns
// once one is built.
type bagScan struct {
	tuple  []int
	probes int
	idx    rowIndex
}

// maxPooledWords bounds what an idle scratch may hold on to (32-bit words
// over all its buffers; 16 MiB). A larger one is dropped for the collector.
const maxPooledWords = 4 << 20

func (sc *scratch) words() int {
	n := cap(sc.atom.data) + cap(sc.out.data) + 2*cap(sc.set) + sc.idx.words() + 2*cap(sc.answers) + 2*cap(sc.walk.flat)
	for i := range sc.base {
		n += cap(sc.base[i].data) + sc.bagScans[i].idx.words()
	}
	for i := range sc.walk.seen {
		n += int(sc.walk.seen[i].Bytes() / 4)
	}
	return n
}

// scratchPool hands out scratches and counts the ones in use, so tests can
// assert that every exit path of the kernel returns what it took.
type scratchPool struct {
	pool sync.Pool
	out  atomic.Int64
}

var scratches scratchPool

func (sp *scratchPool) get() *scratch {
	sp.out.Add(1)
	if sc, ok := sp.pool.Get().(*scratch); ok {
		return sc
	}
	return new(scratch)
}

func (sp *scratchPool) put(sc *scratch) {
	sp.out.Add(-1)
	if sc.words() <= maxPooledWords {
		sp.pool.Put(sc)
	}
}

// pollRows is how many rows (or backtracking steps) an evaluation goes
// through between context polls.
const pollRows = 4096

// poller polls a context once every pollRows ticks.
type poller struct {
	ctx  context.Context
	left int
}

// tick counts one row towards the next poll.
func (p *poller) tick() error {
	if p.left--; p.left > 0 {
		return nil
	}
	p.left = pollRows
	return p.ctx.Err()
}

// run is one evaluation of a plan over a structure.
type run struct {
	*scratch
	poller
	p      *Plan
	s      *Structure
	charge ChargeFunc
	bits   int // bits per domain value in a packed key
	work   Work
}

// start validates the plan's query against the structure and takes a
// scratch; the caller must call done.
func (p *Plan) start(ctx context.Context, s *Structure, charge ChargeFunc) (*run, error) {
	if err := p.q.checkSignature(s); err != nil {
		return nil, err
	}
	if s.Domain > math.MaxInt32 {
		return nil, fmt.Errorf("cq: domain %d exceeds the join kernel's 32-bit values", s.Domain)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	r := &run{scratch: scratches.get(), poller: poller{ctx, pollRows}, p: p, s: s, charge: charge}
	if s.Domain > 1 {
		r.bits = bits.Len(uint(s.Domain - 1))
	}
	r.work.Bags = len(p.bags)
	r.base = resize(r.base, len(p.bags))
	r.charged = resize(r.charged, len(p.bags))
	clear(r.charged)
	r.bagScans = resize(r.bagScans, len(p.bags))
	for i := range r.bagScans {
		r.bagScans[i].probes, r.bagScans[i].idx.t = 0, nil
	}
	return r, nil
}

func (r *run) done() { scratches.put(r.scratch) }

// Eval decides the plan's query on s by the Proposition 2.3 dynamic
// program: every bag's table is the join of its atoms, extended over the
// bag variables none of them mentions; a bottom-up semijoin pass leaves a
// root table empty exactly when the query is unsatisfiable; the walk's
// first row over the reduced tables is a satisfying assignment, verified
// atom by atom. For a decomposition of width w this takes time polynomial
// in |Domain|^(w+1).
//
// Tables are flat []int32 rows. Relation rows are distinct and joins,
// extensions and semijoins of distinct rows are distinct, so nothing is
// ever deduplicated. Every table build, extension and replacement is
// reported to charge as the change in 4·columns·rows; an error from it, or
// from ctx (polled every pollRows rows), aborts the evaluation.
func (p *Plan) Eval(ctx context.Context, s *Structure, charge ChargeFunc) (Assignment, bool, Work, error) {
	r, err := p.start(ctx, s, charge)
	if err != nil {
		return nil, false, Work{}, err
	}
	defer r.done()
	sat, err := r.reduce()
	if err != nil || !sat {
		return nil, false, r.work, err
	}
	assign, err := r.first()
	return assign, err == nil, r.work, err
}

// reduce builds every bag table bottom-up and semijoins each with its
// children as soon as it exists. It reports false as soon as a table is
// empty: the query is a conjunction, so one empty bag decides it.
func (r *run) reduce() (bool, error) {
	for b := len(r.p.bags) - 1; b >= 0; b-- {
		t := &r.base[b]
		if err := r.build(b, t); err != nil {
			return false, err
		}
		for _, c := range r.p.bags[b].kids {
			if t.rows == 0 {
				break
			}
			kid := &r.p.bags[c]
			if err := r.semijoin(t, kid.parentSep, &r.base[c], kid.sep, &r.bagScans[c].idx); err != nil {
				return false, err
			}
			if err := r.account(b, t.stride, t.rows); err != nil {
				return false, err
			}
		}
		if t.rows == 0 {
			return false, nil
		}
	}
	return true, nil
}

// build joins the bag's atoms into t and extends it over the bag's
// uncovered variables. It stops early on an empty table.
func (r *run) build(b int, t *flatTable) error {
	bag := &r.p.bags[b]
	t.reset(0)
	t.rows = 1
	for i := range bag.steps {
		st := &bag.steps[i]
		if i == 0 {
			if err := r.scan(st.atom, t); err != nil {
				return err
			}
			if err := r.account(b, t.stride, t.rows); err != nil {
				return err
			}
		} else {
			if err := r.scan(st.atom, &r.atom); err != nil {
				return err
			}
			if err := r.join(b, t, st, &r.atom); err != nil {
				return err
			}
		}
		if t.rows == 0 {
			return nil
		}
	}
	for range bag.vars[bag.covered:] {
		if err := r.extend(b, t); err != nil {
			return err
		}
	}
	return nil
}

// account reports bag b's table as now holding rows rows of stride values.
func (r *run) account(b, stride, rows int) error {
	r.work.RowsPeak = max(r.work.RowsPeak, rows)
	now := 4 * int64(stride) * int64(rows)
	if err := r.charge.take(now - r.charged[b]); err != nil {
		return err
	}
	r.charged[b] = now
	return nil
}

// scan loads an atom's relation into t: one column per distinct variable,
// keeping the rows on which a repeated variable's positions agree.
func (r *run) scan(atom int, t *flatTable) error {
	pa := &r.p.atoms[atom]
	rel := r.s.Relation(r.p.q.Atoms[atom].Rel)
	r.work.RowsIn += rel.Len()
	stride := len(pa.cols)
	data := resize(t.data, rel.Len()*stride)
	n := 0
rows:
	for tup := rel.data; len(tup) > 0; tup = tup[rel.Arity:] {
		if err := r.tick(); err != nil {
			return err
		}
		for _, e := range pa.eq {
			if tup[e[0]] != tup[e[1]] {
				continue rows
			}
		}
		for c, pos := range pa.cols {
			data[n+c] = tup[pos]
		}
		n += stride
	}
	t.data, t.stride, t.rows = data[:n], stride, n/stride
	return nil
}

// join replaces bag b's table t by its natural join with the scanned atom
// a: t's columns, then a's columns t does not have. With no shared column
// every key is 0 and the result is the cross product.
func (r *run) join(b int, t *flatTable, st *joinStep, a *flatTable) error {
	x := &r.idx
	if err := r.index(x, a, st.atomKey); err != nil {
		return err
	}
	out := &r.out
	out.reset(t.stride + len(st.extra))
	for i := 0; i < t.rows; i++ {
		row := t.row(i)
		for h := find(x, row, st.tabKey); h != 0; h = x.next[h-1] {
			if err := r.tick(); err != nil {
				return err
			}
			out.data = append(out.data, row...)
			arow := a.row(int(h - 1))
			for _, c := range st.extra {
				out.data = append(out.data, arow[c])
			}
			out.rows++
		}
		if err := r.tick(); err != nil {
			return err
		}
	}
	*t, *out = *out, *t
	return r.account(b, t.stride, t.rows)
}

// extend replaces bag b's table t by t × Domain: one more column, ranging
// over every domain value. The result's size is known, so it is charged
// before it is built.
func (r *run) extend(b int, t *flatTable) error {
	dom := r.s.Domain
	if int64(t.rows)*int64(dom) > math.MaxInt32 {
		return fmt.Errorf("cq: extending a table of %d rows over a domain of %d exceeds the join kernel's 32-bit row ids", t.rows, dom)
	}
	out := &r.out
	out.stride, out.rows = t.stride+1, t.rows*dom
	if err := r.account(b, out.stride, out.rows); err != nil {
		return err
	}
	out.data = resize(out.data, out.rows*out.stride)
	n := 0
	for i := 0; i < t.rows; i++ {
		row := t.row(i)
		for d := 0; d < dom; d++ {
			if err := r.tick(); err != nil {
				return err
			}
			copy(out.data[n:], row)
			out.data[n+t.stride] = int32(d)
			n += out.stride
		}
	}
	*t, *out = *out, *t
	return nil
}

// semijoin keeps, in place, the rows of t whose tcols values occur as the
// ccols values of some row of c. The key set is a bitset when the packed
// key space is no larger than a pass over the rows, else x, an index on c
// by ccols. With no key columns every key is 0: t survives iff c has a row.
func (r *run) semijoin(t *flatTable, tcols []int, c *flatTable, ccols []int, x *rowIndex) error {
	width := len(ccols) * r.bits
	dense := width <= 30 && 1<<width>>6 <= t.rows+c.rows+1024
	if dense {
		r.set = resize(r.set, 1<<width>>6+1)
		clear(r.set)
		for i := 0; i < c.rows; i++ {
			if err := r.tick(); err != nil {
				return err
			}
			k := packKey(c.row(i), ccols, r.bits)
			r.set[k>>6] |= 1 << (k & 63)
		}
	} else if err := r.index(x, c, ccols); err != nil {
		return err
	}
	keep := 0
	for i := 0; i < t.rows; i++ {
		if err := r.tick(); err != nil {
			return err
		}
		row := t.row(i)
		var hit bool
		if dense {
			k := packKey(row, tcols, r.bits)
			hit = r.set[k>>6]&(1<<(k&63)) != 0
		} else {
			hit = find(x, row, tcols) != 0
		}
		if hit {
			copy(t.data[keep*t.stride:], row)
			keep++
		}
	}
	t.data, t.rows = t.data[:keep*t.stride], keep
	return nil
}

// packKey packs the row's cols values, width bits each, into one word.
func packKey(row []int32, cols []int, width int) uint64 {
	var k uint64
	for _, c := range cols {
		k = k<<width | uint64(row[c])
	}
	return k
}

// rowIndex indexes a table's rows by some of their columns: the distinct
// values of those columns are the rows of a rowset.Set, and the table rows
// of each are chained in ascending order.
type rowIndex struct {
	t     *flatTable // the indexed table; nil until built
	keys  rowset.Set
	heads []int32 // per key: 1 + its first row
	next  []int32 // per row: 1 + the next row with the same key; 0 = last
	probe []int32 // the key being looked up, sized by index
}

func (x *rowIndex) words() int {
	return int(x.keys.Bytes()/4) + cap(x.heads) + cap(x.next) + cap(x.probe)
}

// index builds x over t's rows keyed by cols.
func (r *run) index(x *rowIndex, t *flatTable, cols []int) error {
	if t.rows > math.MaxInt32 {
		return fmt.Errorf("cq: a table of %d rows exceeds the join kernel's 32-bit row ids", t.rows)
	}
	if len(cols)*r.bits > 64 {
		r.work.WideKeys++
	}
	x.t, x.probe = t, resize(x.probe, len(cols))
	x.keys.Reset(len(cols), r.bits, t.rows)
	x.heads, x.next = resize(x.heads, t.rows), resize(x.next, t.rows)
	for i := t.rows - 1; i >= 0; i-- {
		if err := r.tick(); err != nil {
			return err
		}
		id, fresh := x.keys.Add(gather(x.probe, t.row(i), cols))
		if fresh {
			x.heads[id] = 0
		}
		x.next[i], x.heads[id] = x.heads[id], int32(i+1)
	}
	return nil
}

// gather fills key, len(cols) long, with row's cols values.
func gather[T int | int32](key []int32, row []T, cols []int) []int32 {
	for j, c := range cols {
		key[j] = int32(row[c])
	}
	return key
}

// find returns 1 + the first row x indexes whose key columns equal row's
// cols values, or 0.
func find[T int | int32](x *rowIndex, row []T, cols []int) int32 {
	if id := x.keys.Find(gather(x.probe, row, cols)); id >= 0 {
		return x.heads[id]
	}
	return 0
}

// Scan makes the reduced bag tables the walk's AtomSource: rel names a bag
// by its index, and a tuple is a row. The walk visits a tree's bags parents
// first, so a bag's bound columns are its separator. Its rows come off an
// index on those, built by the semijoin or on the bag's second probe; the
// first reads the rows in order, which serves Eval's one probe per bag.
func (r *run) Scan(rel string, bound []int, yield func([]int) bool) error {
	b, _ := strconv.Atoi(rel) // rel is a bag index Compile wrote
	t, sep, bs := &r.base[b], r.p.bags[b].sep, &r.bagScans[b]
	bs.tuple = resize(bs.tuple, t.stride)
	i, h, indexed := -1, int32(0), false
	if len(sep) > 0 && bound[sep[0]] >= 0 {
		if bs.probes++; bs.probes > 1 && bs.idx.t == nil {
			if err := r.index(&bs.idx, t, sep); err != nil {
				return err
			}
		}
		if indexed = bs.idx.t != nil; indexed {
			h = find(&bs.idx, bound, sep)
		}
	}
	for {
		if indexed {
			if h == 0 {
				return nil
			}
			i, h = int(h-1), bs.idx.next[h-1]
		} else if i++; i == t.rows {
			return nil
		}
		if err := r.tick(); err != nil {
			return err
		}
		if !emit(t.row(i), bound, bs.tuple, yield) {
			return nil
		}
	}
}

// first is the walk's first row over every reduced bag, verified atom by
// atom: no row, or a row that violates an atom, means the reduction is
// wrong, and is reported as that rather than decided a second way.
func (r *run) first() (Assignment, error) {
	var assign Assignment
	sp := r.p.allBags
	err := sp.walk(&r.walk, r, r.charge, func(row []int) bool {
		assign = make(Assignment, len(row))
		for c, v := range sp.vars {
			assign[v] = row[c]
		}
		return false
	})
	if err != nil {
		return nil, err
	}
	if assign == nil {
		return nil, &invariant.Violation{Msg: "cq: the walk over the reduced tables yields no row"}
	}
	for ai, at := range r.p.q.Atoms {
		r.tuple = resize(r.tuple, len(at.Args))
		for i, v := range at.Args {
			r.tuple[i] = assign[v]
		}
		if !r.s.Contains(at.Rel, r.tuple...) {
			return nil, &invariant.Violation{Msg: fmt.Sprintf("cq: the assignment read off the reduced tables violates atom %d, %s%v", ai, at.Rel, r.tuple)}
		}
	}
	return assign, nil
}

// Answers computes the answer set over the query's free variables, in
// lexicographic order: the walk over the reduced tables of the bags whose
// subtree holds a free variable, which meets no dead end, drained and
// sorted. Its memo makes the work follow the rows projected onto the free
// variables and the separators ahead, not the derivations, and the domain
// is never iterated. charge sees the bag tables as Eval's does, the
// seen-sets, and every answer row.
func (p *Plan) Answers(ctx context.Context, s *Structure, charge ChargeFunc) ([][]int, error) {
	if len(p.q.Free) == 0 {
		return nil, fmt.Errorf("cq: Plan.Answers on a Boolean query")
	}
	r, err := p.start(ctx, s, charge)
	if err != nil {
		return nil, err
	}
	defer r.done()
	if ok, err := r.reduce(); err != nil || !ok {
		return nil, err
	}
	var refused error
	sp, n := p.freeBags, len(p.freeBags.free)
	r.answers = r.answers[:0]
	err = sp.walk(&r.walk, r, charge, func(row []int) bool {
		for _, c := range sp.free {
			r.answers = append(r.answers, row[c])
		}
		refused = charge.take(int64(24 + 8*n))
		return refused == nil
	})
	if err = cmp.Or(err, refused); err != nil {
		return nil, err
	}
	flat, out := slices.Clone(r.answers), make([][]int, len(r.answers)/n)
	for i := range out {
		out[i] = flat[i*n : (i+1)*n : (i+1)*n]
	}
	slices.SortFunc(out, slices.Compare[[]int])
	return out, nil
}
