package cq

// Streaming CQ evaluation: a pipelined join over atom streams, built on
// the internal/stream combinators. Where EvalTreeDecomp materializes bag
// tables bottom-up, StreamAnswers binds atoms left to right with one
// pull-iterator per level, pushing already-bound variables down into
// each atom scan. Answers come out incrementally, so "first witness" and
// "first page" cost a fraction of the full join — the Lemma 4.3 sweep
// behind the atom streams is only forced as far as the consumer pulls.

import (
	"errors"
	"fmt"
	"slices"

	"ecrpq/internal/stream"
)

// AtomSource streams the tuples of a relation with binding pushdown:
// Open returns an iterator over the tuples of rel matching the bound
// pattern, where bound[i] >= 0 pins position i and -1 leaves it free.
//
// Two Opens with equal arguments must yield equal sequences, and the
// sequence with bindings must be a subsequence of the unbound one —
// streaming enumeration order (and with it the /v1/enumerate cursor) is
// deterministic only if every source is.
type AtomSource interface {
	Open(rel string, bound []int) (stream.Tuples, error)
}

// ErrUnconstrained reports a free variable that appears in no atom: the
// streaming join cannot enumerate its bindings. Callers fall back to a
// domain-sweeping evaluator.
var ErrUnconstrained = errors.New("cq: free variable not constrained by any atom")

// structSource adapts a materialized Structure to AtomSource, scanning
// relation tuples in insertion order.
type structSource struct{ s *Structure }

// NewStructSource streams a Structure's relations in insertion order.
func NewStructSource(s *Structure) AtomSource { return structSource{s: s} }

func (ss structSource) Open(rel string, bound []int) (stream.Tuples, error) {
	r := ss.s.Relation(rel)
	if r == nil {
		return nil, fmt.Errorf("cq: unknown relation %q", rel)
	}
	if len(bound) != r.Arity {
		return nil, fmt.Errorf("cq: relation %q arity %d, bound pattern %v", rel, r.Arity, bound)
	}
	return &relStream{r: r, pat: slices.Clone(bound), buf: make([]int, r.Arity)}, nil
}

// relStream yields a relation's rows matching pat, in storage order, via buf.
type relStream struct {
	r        *Relation
	pat, buf []int
	i        int
}

func (s *relStream) Next() ([]int, bool) {
rows:
	for s.i < s.r.Len() {
		row := s.r.Row(s.i)
		s.i++
		for k, b := range s.pat {
			if b >= 0 && int(row[k]) != b {
				continue rows
			}
		}
		for k, v := range row {
			s.buf[k] = int(v)
		}
		return s.buf, true
	}
	return nil, false
}

func (s *relStream) Err() error { return nil }
func (s *relStream) Close()     { s.i = s.r.Len() }

// streamLevel is one join level: an atom, the full-row column of each of
// its args, and whether this level binds that column for the first time.
type streamLevel struct {
	atom     Atom
	cols     []int
	isNew    []bool
	disjoint bool // shares no variable with earlier levels
	// per-level reusable scratch (levels run strictly sequentially)
	outerBuf []int
	boundBuf []int
	rowBuf   []int
}

// streamPlan lays out assignments as fixed-width rows, one column per
// variable in first-occurrence order over the atoms.
type streamPlan struct {
	vars   []string
	varCol map[string]int
	levels []*streamLevel
}

//ecrpq:charged plan-shaped scratch: O(atoms × arity) buffers sized by the query, not the data
func planStream(q *Query) (*streamPlan, error) {
	p := &streamPlan{varCol: make(map[string]int)}
	for _, at := range q.Atoms {
		for _, v := range at.Args {
			if _, ok := p.varCol[v]; !ok {
				p.varCol[v] = len(p.vars)
				p.vars = append(p.vars, v)
			}
		}
	}
	for _, f := range q.Free {
		if _, ok := p.varCol[f]; !ok {
			return nil, fmt.Errorf("%w: %q", ErrUnconstrained, f)
		}
	}
	w := len(p.vars)
	boundSoFar := make(map[string]bool)
	for _, at := range q.Atoms {
		lvl := &streamLevel{
			atom:     at,
			cols:     make([]int, len(at.Args)),
			isNew:    make([]bool, len(at.Args)),
			disjoint: true,
			outerBuf: make([]int, w),
			boundBuf: make([]int, len(at.Args)),
			rowBuf:   make([]int, w),
		}
		inAtom := make(map[string]bool)
		for k, v := range at.Args {
			lvl.cols[k] = p.varCol[v]
			// A repeated variable inside one atom is "new" at both
			// positions when no earlier level bound it: neither position
			// has a value at Open time, so equality is enforced at merge.
			lvl.isNew[k] = !boundSoFar[v]
			if boundSoFar[v] {
				lvl.disjoint = false
			}
			inAtom[v] = true
		}
		for v := range inAtom {
			boundSoFar[v] = true
		}
		p.levels = append(p.levels, lvl)
	}
	return p, nil
}

// merge writes the atom tuple into a copy of the prefix row held in
// lvl.rowBuf, rejecting tuples inconsistent with existing bindings
// (including intra-atom repeated variables).
func (lvl *streamLevel) merge(prefix, tup []int) ([]int, bool) {
	copy(lvl.rowBuf, prefix)
	for k, col := range lvl.cols {
		v := tup[k]
		if lvl.rowBuf[col] >= 0 && lvl.rowBuf[col] != v {
			return nil, false
		}
		lvl.rowBuf[col] = v
	}
	return lvl.rowBuf, true
}

// StreamAssignments streams the satisfying assignments of q over src as
// fixed-width rows (one column per returned variable; every column is
// bound on yielded rows). Assignments are not deduplicated — distinct
// atom-tuple derivations of the same assignment yield repeats; project
// and Dedup downstream (StreamAnswers does both). charge accounts the
// buffered state of disjoint-atom hash joins; nil disables accounting.
//
// Atoms join in the order given. Levels that share a variable with the
// prefix run as nested-loop joins with binding pushdown; levels sharing
// none (after the first) run as buffered cross hash-joins, since
// re-scanning an unconstrained atom per prefix row would be quadratic.
func StreamAssignments(src AtomSource, q *Query, charge stream.ChargeFunc) (stream.Tuples, []string, error) {
	plan, err := planStream(q)
	if err != nil {
		return nil, nil, err
	}
	w := len(plan.vars)
	init := make([]int, w)
	for i := range init {
		init[i] = -1
	}
	it := stream.Once(init)
	for i, lvl := range plan.levels {
		if lvl.disjoint && i > 0 {
			next, err := hashLevel(src, it, lvl, w, charge)
			if err != nil {
				it.Close()
				return nil, nil, err
			}
			it = next
		} else {
			it = nestedLevel(src, it, lvl)
		}
	}
	return it, plan.vars, nil
}

// nestedLevel joins one atom by nested loop: per prefix row, open the
// atom stream with the prefix's bindings pushed down.
func nestedLevel(src AtomSource, outer stream.Tuples, lvl *streamLevel) stream.Tuples {
	return stream.NestedLoop(outer, func(prefix []int) (stream.Tuples, error) {
		copy(lvl.outerBuf, prefix) // prefix is only valid until the next outer pull
		for k, col := range lvl.cols {
			if lvl.isNew[k] {
				lvl.boundBuf[k] = -1
			} else {
				lvl.boundBuf[k] = lvl.outerBuf[col]
			}
		}
		ts, err := src.Open(lvl.atom.Rel, lvl.boundBuf)
		if err != nil {
			return nil, err
		}
		return stream.Map(ts, func(tup []int) ([]int, bool) {
			return lvl.merge(lvl.outerBuf, tup)
		}), nil
	})
}

// hashLevel joins a prefix-disjoint atom by buffering its tuples once
// (HashJoin's build side, charged) and cross-joining the prefix stream
// against them.
func hashLevel(src AtomSource, outer stream.Tuples, lvl *streamLevel, w int, charge stream.ChargeFunc) (stream.Tuples, error) {
	for k := range lvl.boundBuf {
		lvl.boundBuf[k] = -1
	}
	ts, err := src.Open(lvl.atom.Rel, lvl.boundBuf)
	if err != nil {
		return nil, err
	}
	joined := stream.HashJoin(outer, ts, nil, nil, charge)
	return stream.Map(joined, func(r []int) ([]int, bool) {
		return lvl.merge(r[:w], r[w:])
	}), nil
}

// StreamAnswers streams the answers of q over src in q.Free order,
// deduplicated (first derivation wins; the seen set is charged). Boolean
// queries yield at most one empty tuple. Free variables appearing in no
// atom fail with ErrUnconstrained.
func StreamAnswers(src AtomSource, q *Query, charge stream.ChargeFunc) (stream.Tuples, error) {
	asg, vars, err := StreamAssignments(src, q, charge)
	if err != nil {
		return nil, err
	}
	col := make(map[string]int, len(vars))
	for i, v := range vars {
		col[v] = i
	}
	cols := make([]int, len(q.Free))
	for i, f := range q.Free {
		cols[i] = col[f]
	}
	return stream.Dedup(stream.Project(asg, cols), charge), nil
}
