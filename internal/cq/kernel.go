package cq

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"ecrpq/internal/invariant"
)

// ChargeFunc accounts join-intermediate bytes during tree-decomposition
// evaluation: positive deltas charge, negative deltas release (a table was
// replaced by a smaller one). Returning an error aborts the evaluation —
// the caller's budget is exhausted. A nil ChargeFunc disables accounting.
// The evaluation never hands back what its final tables hold: the caller
// releases the total when the evaluation returns, whichever way it ends.
type ChargeFunc func(deltaBytes int64) error

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
	atom, out flatTable   // a join's scanned atom, or the front of the answer walk; a join's, an extension's or a projection's output
	set       []uint64    // dense semijoin key set
	idx       rowIndex
	charged   []int64 // per bag, then the front: bytes reported through the ChargeFunc
	vals      []int   // witness: variable id → value
	tuple     []int
}

// maxPooledWords bounds what an idle scratch may hold on to (32-bit words
// over all its buffers; 16 MiB). A larger one is dropped for the collector.
const maxPooledWords = 4 << 20

func (sc *scratch) words() int {
	n := cap(sc.atom.data) + cap(sc.out.data) + 2*cap(sc.set) + sc.idx.words()
	for i := range sc.base {
		n += cap(sc.base[i].data)
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
	r.charged = resize(r.charged, len(p.bags)+1)
	clear(r.charged)
	r.vals = resize(r.vals, len(p.vars))
	return r, nil
}

func (r *run) done() { scratches.put(r.scratch) }

// Eval decides the plan's query on s by the Proposition 2.3 dynamic
// program: every bag's table is the join of its atoms, extended over the
// bag variables none of them mentions; a bottom-up semijoin pass leaves a
// root table empty exactly when the query is unsatisfiable; a satisfying
// assignment is read off top-down and verified atom by atom. For a
// decomposition of width w this takes time polynomial in |Domain|^(w+1).
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
	assign, sat, err := r.witness()
	return assign, sat, r.work, err
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
			if err := r.semijoin(t, kid.parentSep, &r.base[c], kid.sep); err != nil {
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
	if r.charge == nil {
		return nil
	}
	now := 4 * int64(stride) * int64(rows)
	if err := r.charge(now - r.charged[b]); err != nil {
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
	x, err := r.index(a, st.atomKey, true)
	if err != nil {
		return err
	}
	out := &r.out
	out.reset(t.stride + len(st.extra))
	for i := 0; i < t.rows; i++ {
		row := t.row(i)
		for h := x.find(row, st.tabKey); h != 0; h = x.next[h-1] {
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
// key space is no larger than a pass over the rows, else the row index.
// With no key columns every key is 0: t survives iff c has a row.
func (r *run) semijoin(t *flatTable, tcols []int, c *flatTable, ccols []int) error {
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
	} else if _, err := r.index(c, ccols, false); err != nil {
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
			hit = r.idx.find(row, tcols) != 0
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

// rowIndex is an open-addressing hash index of a table's rows by some of
// their columns. When the columns pack into 64 bits the packed value is the
// key and equal keys mean equal columns; past that the key is a hash of the
// columns and a hit is confirmed by comparing them — the same table and
// probe either way.
type rowIndex struct {
	t     *flatTable
	cols  []int
	bits  int
	exact bool
	keys  []uint64 // per slot
	heads []int32  // per slot: 1 + the first row with the slot's key; 0 = empty
	next  []int32  // per row: 1 + the next row with the same key; 0 = last (chained indexes only)
	shift int
}

func (x *rowIndex) words() int { return 2*cap(x.keys) + cap(x.heads) + cap(x.next) }

// index builds r.idx over t's rows keyed by cols. Rows of one key are
// chained in ascending order when chain is set; otherwise only the first is
// kept, which is all a membership test or a projection needs.
func (r *run) index(t *flatTable, cols []int, chain bool) (*rowIndex, error) {
	if t.rows > math.MaxInt32 {
		return nil, fmt.Errorf("cq: a table of %d rows exceeds the join kernel's 32-bit row ids", t.rows)
	}
	x := &r.idx
	x.t, x.cols, x.bits = t, cols, r.bits
	if x.exact = len(cols)*r.bits <= 64; !x.exact {
		r.work.WideKeys++
	}
	size := 8
	for size < 2*t.rows {
		size <<= 1
	}
	x.shift = 64 - bits.TrailingZeros(uint(size))
	x.keys = resize(x.keys, size)
	x.heads = resize(x.heads, size)
	clear(x.heads)
	if chain {
		x.next = resize(x.next, t.rows)
	}
	for i := t.rows - 1; i >= 0; i-- {
		if err := r.tick(); err != nil {
			return nil, err
		}
		row := t.row(i)
		k := x.key(row, cols)
		s := x.slot(k, row, cols)
		if chain {
			x.next[i] = x.heads[s]
		}
		x.keys[s], x.heads[s] = k, int32(i+1)
	}
	return x, nil
}

// key is the index key of row's cols values (of the indexed table or of a
// probing one).
func (x *rowIndex) key(row []int32, cols []int) uint64 {
	if x.exact {
		return packKey(row, cols, x.bits)
	}
	k := uint64(14695981039346656037)
	for _, c := range cols {
		k = (k ^ uint64(row[c])) * 1099511628211
	}
	return k
}

// slot returns the slot holding key k with row's cols values, or the empty
// slot where it belongs.
func (x *rowIndex) slot(k uint64, row []int32, cols []int) int {
	mask := len(x.heads) - 1
	for s := int(k * 0x9E3779B97F4A7C15 >> x.shift); ; s = (s + 1) & mask {
		h := x.heads[s]
		if h == 0 || x.keys[s] == k && (x.exact || x.same(int(h-1), row, cols)) {
			return s
		}
	}
}

func (x *rowIndex) same(i int, row []int32, cols []int) bool {
	mine := x.t.row(i)
	for j, c := range x.cols {
		if mine[c] != row[cols[j]] {
			return false
		}
	}
	return true
}

// find returns 1 + the first indexed row whose key columns equal row's cols
// values, or 0.
func (x *rowIndex) find(row []int32, cols []int) int32 {
	return x.heads[x.slot(x.key(row, cols), row, cols)]
}

// witness reads a satisfying assignment off the reduced tables top-down: a
// root's first row, then for each child the first row agreeing with its
// parent's pick on the separator — one exists after the semijoin pass, and
// the separator is all the child shares with anything picked before it. The
// assignment is then verified against every atom; a bag with no row to pick
// or an atom the assignment violates means the reduction is wrong, and is
// reported as that rather than decided a second way.
func (r *run) witness() (Assignment, bool, error) {
	for b := range r.p.bags {
		bag := &r.p.bags[b]
		t := &r.base[b]
		pick := -1
	rows:
		for i := 0; i < t.rows && pick < 0; i++ {
			if err := r.tick(); err != nil {
				return nil, false, err
			}
			row := t.row(i)
			for _, c := range bag.sep {
				if int(row[c]) != r.vals[bag.vars[c]] {
					continue rows
				}
			}
			pick = i
		}
		if pick < 0 {
			return nil, false, &invariant.Violation{Msg: fmt.Sprintf("cq: reduced bag %d has no row agreeing with its parent's pick", b)}
		}
		for c, v := range t.row(pick) {
			r.vals[bag.vars[c]] = int(v)
		}
	}
	for ai, at := range r.p.q.Atoms {
		args := r.p.atoms[ai].args
		r.tuple = resize(r.tuple, len(args))
		for i, v := range args {
			r.tuple[i] = r.vals[v]
		}
		if !r.s.Contains(at.Rel, r.tuple...) {
			return nil, false, &invariant.Violation{Msg: fmt.Sprintf("cq: the assignment read off the reduced tables violates atom %d, %s%v", ai, at.Rel, r.tuple)}
		}
	}
	assign := make(Assignment, len(r.p.vars))
	for v, name := range r.p.vars {
		assign[name] = r.vals[v]
	}
	return assign, true, nil
}

// Answers computes the answer set over the query's free variables, in
// lexicographic order, by one top-down pass over the tables reduce leaves.
// After the bottom-up semijoins every row of a bag extends into each of its
// subtrees, so joining the walked bags parent to child on their separators
// meets no dead end. Each bag is first projected onto the columns the walk
// reads, and the front onto those it still will, both deduplicated, so a
// variable that is neither free nor in a separator never multiplies a row:
// for a free-connex query the front never outgrows the answer set, and
// otherwise the same projection is what removes the duplicates. The domain
// is never iterated. charge sees the bag tables as Eval's does, the front,
// and every answer row.
func (p *Plan) Answers(ctx context.Context, s *Structure, charge ChargeFunc) ([][]int, error) {
	if len(p.q.Free) == 0 {
		return nil, fmt.Errorf("cq: AllAnswers on a Boolean query")
	}
	r, err := p.start(ctx, s, charge)
	if err != nil {
		return nil, err
	}
	defer r.done()
	if ok, err := r.reduce(); err != nil || !ok {
		return nil, err
	}
	front, slot := &r.atom, len(p.bags)
	front.reset(0)
	front.rows = 1
	for i := range p.walk {
		w := &p.walk[i]
		bag := &r.base[w.bag]
		if err := r.project(w.bag, bag, w.proj); err != nil {
			return nil, err
		}
		if err := r.join(slot, front, &w.join, bag); err != nil {
			return nil, err
		}
		if err := r.project(slot, front, w.keep); err != nil {
			return nil, err
		}
	}
	free := len(p.answer)
	if charge != nil {
		if err := charge(int64(front.rows) * int64(24+8*free)); err != nil {
			return nil, err
		}
	}
	flat := make([]int, front.rows*free)
	out := make([][]int, front.rows)
	for i := range out {
		if err := r.tick(); err != nil {
			return nil, err
		}
		out[i] = flat[i*free : (i+1)*free : (i+1)*free]
		row := front.row(i)
		for k, c := range p.answer {
			out[i][k] = int(row[c])
		}
	}
	slices.SortFunc(out, slices.Compare[[]int])
	return out, nil
}

// project replaces t, charged as bag b's table, by its cols columns (which
// ascend), one row per distinct value: the index keeps the first row of
// every key, and only that row is copied.
func (r *run) project(b int, t *flatTable, cols []int) error {
	if len(cols) == t.stride {
		return nil // rows are distinct already
	}
	x, err := r.index(t, cols, false)
	if err != nil {
		return err
	}
	out := &r.out
	out.reset(len(cols))
	for i := 0; i < t.rows; i++ {
		if err := r.tick(); err != nil {
			return err
		}
		row := t.row(i)
		if x.find(row, cols) != int32(i+1) {
			continue
		}
		for _, c := range cols {
			out.data = append(out.data, row[c])
		}
		out.rows++
	}
	*t, *out = *out, *t
	return r.account(b, t.stride, t.rows)
}
