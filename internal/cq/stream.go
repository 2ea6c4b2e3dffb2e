package cq

// Streaming CQ evaluation, the one top-down pass: StreamAnswers binds the
// atoms left to right, one recursive call per level, pushing bound
// variables down into each atom scan and handing every row to a yield
// callback. The walk returns as soon as yield returns false, so the Lemma
// 4.3 sweep behind the scans is only forced as far as the consumer reads.
// Plan.Eval and Plan.Answers run the same walk over the bag tables their
// semijoin pass leaves.

import (
	"errors"
	"fmt"
	"slices"

	"ecrpq/internal/rowset"
)

// AtomSource scans a relation with binding pushdown: Scan calls yield with
// each tuple of rel matching bound (bound[i] >= 0 pins position i, -1
// leaves it free) until yield returns false, and may omit those the atom's
// repeated variables rule out. A tuple is valid during its call. Equal
// Scans yield equal sequences, a bound Scan a subsequence of the unbound
// one: the /v1/enumerate cursor needs a deterministic order.
type AtomSource interface {
	Scan(rel string, bound []int, yield func(tuple []int) bool) error
}

// ErrUnconstrained reports a free variable that appears in no atom: the
// streaming join binds variables only through atom scans, so it has no
// values to enumerate for it.
var ErrUnconstrained = errors.New("cq: free variable not constrained by any atom")

// Scan makes a Structure an AtomSource, scanning in insertion order.
func (s *Structure) Scan(rel string, bound []int, yield func([]int) bool) error {
	r := s.Relation(rel)
	if r == nil || len(bound) != r.Arity {
		return fmt.Errorf("cq: no relation %q of arity %d", rel, len(bound))
	}
	buf := make([]int, r.Arity)
	for i := 0; i < r.Len() && emit(r.Row(i), bound, buf, yield); i++ {
	}
	return nil
}

// emit is one step of a Scan over int32 rows: it hands row to yield as
// tuple unless row disagrees with bound, and reports whether to go on.
func emit(row []int32, bound, tuple []int, yield func([]int) bool) bool {
	for k, v := range row {
		if bound[k] >= 0 && int(v) != bound[k] {
			return true
		}
		tuple[k] = int(v)
	}
	return yield(tuple)
}

// streamLevel is one join level: an atom, the row column of each of its
// args, and scratch reused by its scans, which run one at a time.
type streamLevel struct {
	rel      string
	cols     []int
	disjoint bool // shares no variable with earlier levels
	bound    []int
	buf      []int // a disjoint level's tuples, back to back; nil until scanned
	// memo keys the rows this level hands on in an answers walk: the free
	// columns bound so far and those later levels read. Rows of one key
	// have the same answers, so a key seen holds is not walked again.
	memo []int
	seen *rowset.Set
}

// streamPlan lays out assignments as fixed-width rows, one column per
// variable in first-occurrence order over the atoms, and holds the state
// of a walk. Compile's plans are read-only, each walk running in a pooled
// streamPlan; a plan walked once runs in itself.
type streamPlan struct {
	vars    []string
	free    []int // the column of each free variable
	binds   []int // per column: the level that binds it
	levels  []streamLevel
	cut     int          // a complete row ends the scans of the levels past this one: the last that binds a free variable
	rows    [][]int      // rows[i]: the row level i extends; rows[0] binds nothing
	flat    []int        // the rows' and the levels' bound patterns' values
	seen    []rowset.Set // the levels' memo keys
	key     []int32      // the memo key being looked up, one column per variable
	src     AtomSource
	charge  ChargeFunc
	yield   func([]int) bool
	scan    func(tuple []int) bool // bind at the level whose scan runs innermost
	at      int                    // that level
	held    int64                  // bytes charged for the disjoint levels' buffers
	reached bool                   // a row was complete since the scans up to cut last moved
	stop    bool                   // yield returned false, a scan failed or charge refused
	err     error
}

// planStream lays out q's walk. An answers walk stops the levels past cut
// at a complete row, and memoizes at each level whose key leaves a bound
// column out and at the last, whose key is the answer: a source may yield
// a tuple twice. With sets, the source's relations are sets in memory:
// complete rows are distinct, and a disjoint level is scanned again rather
// than buffered.
//
//ecrpq:charged plan-shaped scratch: O(atoms × arity) buffers sized by the query, not the data
func planStream(q *Query, answers, sets bool) (*streamPlan, error) {
	p := &streamPlan{cut: -1, levels: make([]streamLevel, len(q.Atoms))}
	var last []int // per column: the last level to read it, past them all if free
	for i, at := range q.Atoms {
		lvl := &p.levels[i]
		lvl.rel, lvl.disjoint, lvl.cols = at.Rel, !sets, make([]int, len(at.Args))
		before := len(p.vars) // the columns earlier levels bind
		for j, v := range at.Args {
			col := slices.Index(p.vars, v)
			if col < 0 {
				col, p.vars, p.binds, last = len(p.vars), append(p.vars, v), append(p.binds, i), append(last, i)
			}
			lvl.cols[j], lvl.disjoint, last[col] = col, lvl.disjoint && col >= before, i
		}
	}
	for _, f := range q.Free {
		col := slices.Index(p.vars, f)
		if col < 0 {
			return nil, fmt.Errorf("%w: %q", ErrUnconstrained, f)
		}
		p.free, p.cut, last[col] = append(p.free, col), max(p.cut, p.binds[col]), len(p.levels)
	}
	if !answers {
		p.cut = len(p.levels)
	}
	for i := 0; answers && i < len(p.levels); i++ {
		memo, bound := []int{}, 0 // columns ascend with the level that binds them
		for ; bound < len(p.vars) && p.binds[bound] <= i; bound++ {
			if last[bound] > i {
				memo = append(memo, bound)
			}
		}
		if len(memo) < bound || i == len(p.levels)-1 && !sets {
			p.levels[i].memo = memo
		}
	}
	return p, nil
}

// walk is the streaming join, run in w (p itself, for a plan walked once),
// whose buffers from an earlier walk it reuses. A row holds -1 in the
// columns no level has bound, so a level scans its atom with the prefix
// row's values as the bound pattern — pushdown, once per prefix row — and
// drops tuples that disagree with the row. A level sharing no variable
// with the prefix (after the first) is scanned once, on the first prefix
// row that reaches it, into a buffer charged 48 + 16·arity bytes a row
// until walk returns. A complete row ends the scans of the levels past
// p.cut, and a row whose memo key its level has seen goes no further; a
// seen-set entry is charged 64 bytes plus 4 a key column, and stays
// charged. walk returns when yield returns false, a scan fails or charge
// refuses.
func (p *streamPlan) walk(w *streamPlan, src AtomSource, charge ChargeFunc, yield func([]int) bool) error {
	levels, rows, flat, seen, key := w.levels, w.rows, w.flat, w.seen, w.key
	*w = *p
	n, size := len(p.vars), (len(p.levels)+1)*len(p.vars)
	for _, lvl := range p.levels {
		size += len(lvl.cols)
	}
	w.src, w.charge, w.yield, w.levels = src, charge, yield, append(levels[:0], p.levels...)
	w.rows, w.flat, w.seen, w.key = resize(rows, len(p.levels)+1), resize(flat, size), seen, resize(key, n)
	flat = w.flat
	for i := range w.rows {
		w.rows[i], flat = flat[:n:n], flat[n:]
	}
	for c := range w.rows[0] {
		w.rows[0][c] = -1
	}
	for i := range w.levels {
		lvl, k := &w.levels[i], len(w.levels[i].cols)
		if lvl.bound, flat = flat[:k:k], flat[k:]; lvl.memo != nil {
			if len(w.seen) < len(w.levels) {
				w.seen = resize(w.seen, len(w.levels))
			}
			lvl.seen = &w.seen[i]
			lvl.seen.Reset(len(lvl.memo), 32, lvl.seen.Len()) // a source's values may take all 31 bits
		}
	}
	w.scan = func(tup []int) bool { return w.bind(w.at, tup) }
	defer func() {
		if w.held > 0 {
			_ = charge.take(-w.held) // a release is never refused
		}
		w.src, w.charge, w.yield, w.scan = nil, nil, nil, nil // a pooled w keeps no source alive
	}()
	w.level(0)
	return w.err
}

// level runs level i's scan for the extensions of rows[i].
func (p *streamPlan) level(i int) {
	if i == len(p.levels) {
		p.reached, p.stop = true, !p.yield(p.rows[i])
		return
	}
	lvl := &p.levels[i]
	for k, col := range lvl.cols {
		lvl.bound[k] = p.rows[i][col]
	}
	if p.at = i; !lvl.disjoint || i == 0 {
		p.fail(p.src.Scan(lvl.rel, lvl.bound, p.scan))
		return
	}
	if lvl.buf == nil {
		lvl.buf = []int{}
		p.fail(p.src.Scan(lvl.rel, lvl.bound, func(tup []int) bool {
			n := 48 + 16*int64(len(tup))
			if p.fail(p.charge.take(n)) {
				return false
			}
			p.held += n
			lvl.buf = append(lvl.buf, tup...)
			return true
		}))
	}
	for k, a := 0, len(lvl.cols); k < len(lvl.buf) && !p.stop && p.bind(i, lvl.buf[k:k+a]); k += a {
	}
}

// fail records err, if any, as what ends the walk, and reports whether the
// walk is ending.
func (p *streamPlan) fail(err error) bool {
	if err != nil && p.err == nil {
		p.err, p.stop = err, true
	}
	return p.stop
}

// bind is level i's scan callback: the row extending rows[i] by tup, if
// they agree, goes on to the next level unless its memo key was seen.
func (p *streamPlan) bind(i int, tup []int) bool {
	lvl, row := &p.levels[i], p.rows[i+1]
	copy(row, p.rows[i])
	for k, col := range lvl.cols {
		if row[col] >= 0 && row[col] != tup[k] {
			return true
		}
		row[col] = tup[k]
	}
	fresh := lvl.memo == nil
	if !fresh {
		_, fresh = lvl.seen.Add(gather(p.key[:len(lvl.memo)], row, lvl.memo))
	}
	switch {
	case lvl.memo == nil:
		p.level(i + 1)
	case !fresh:
		p.reached = p.reached || i == len(p.levels)-1 // a complete row, its answer yielded before
	case !p.fail(p.charge.take(64 + 4*int64(len(lvl.memo)))):
		p.level(i + 1)
	}
	if p.at = i; p.stop || p.reached && i > p.cut {
		return false
	}
	p.reached = false
	return true
}

// StreamAssignments calls yield with the satisfying assignments of q over
// src until it returns false: fixed-width rows, one column per variable of
// vars, every column bound, valid only during the call. Distinct
// derivations of one assignment repeat. charge accounts the buffers of
// prefix-disjoint levels; nil disables accounting.
func StreamAssignments(src AtomSource, q *Query, charge ChargeFunc, yield func(row []int) bool) (vars []string, err error) {
	p, err := planStream(q, false, false)
	if err != nil {
		return nil, err
	}
	return p.vars, p.walk(p, src, charge, yield)
}

// StreamAnswers calls yield with the answers of q over src in q.Free
// order until it returns false, deduplicated: the first derivation wins.
// The levels past the last that binds a free variable stop at a complete
// row, as all they could add repeats its answer, and a level skips a row
// whose memo key it has expanded already, as all it could add repeats
// answers yielded before: the answers and their order are the first
// occurrences of StreamAssignments' rows, projected onto q.Free, at work
// bounded by the projected rows rather than the derivations. A Boolean
// query yields at most one empty tuple.
func StreamAnswers(src AtomSource, q *Query, charge ChargeFunc, yield func(answer []int) bool) error {
	p, err := planStream(q, true, false)
	if err != nil {
		return err
	}
	out := make([]int, len(p.free))
	return p.walk(p, src, charge, func(row []int) bool {
		for i, c := range p.free {
			out[i] = row[c]
		}
		return yield(out)
	})
}
