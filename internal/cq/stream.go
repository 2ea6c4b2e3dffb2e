package cq

// Streaming CQ evaluation: where Plan.Answers reads the answers off
// materialized tables, StreamAnswers binds the atoms left to right, one
// recursive call per level, pushing bound variables down into each atom
// scan and handing every row to a yield callback. The walk returns as soon
// as yield returns false, so the Lemma 4.3 sweep behind the scans is only
// forced as far as the consumer reads.

import (
	"encoding/binary"
	"errors"
	"fmt"
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
rows:
	for i := 0; i < r.Len(); i++ {
		for k, v := range r.Row(i) {
			if bound[k] >= 0 && int(v) != bound[k] {
				continue rows
			}
			buf[k] = int(v)
		}
		if !yield(buf) {
			return nil
		}
	}
	return nil
}

// streamLevel is one join level: an atom, the row column of each of its
// args, and scratch reused by its scans, which run one at a time.
type streamLevel struct {
	rel        string
	cols       []int
	disjoint   bool // shares no variable with earlier levels
	bound, row []int
	buf        []int // a disjoint level's tuples, back to back; nil until scanned
}

// streamPlan lays out assignments as fixed-width rows, one column per
// variable in first-occurrence order over the atoms.
type streamPlan struct {
	vars   []string
	free   []int // the column of each free variable
	binds  []int // per column: the level that binds it
	levels []*streamLevel
	cut    int // a complete row ends the scans of the levels past this one: the last that binds a free variable
}

//ecrpq:charged plan-shaped scratch: O(atoms × arity) buffers sized by the query, not the data
func planStream(q *Query) (*streamPlan, error) {
	p, varCol := &streamPlan{cut: -1}, make(map[string]int)
	for _, at := range q.Atoms {
		lvl := &streamLevel{rel: at.Rel, disjoint: true, bound: make([]int, len(at.Args))}
		before := len(p.vars) // the columns earlier levels bind
		for _, v := range at.Args {
			col, ok := varCol[v]
			if !ok {
				col = len(p.vars)
				varCol[v] = col
				p.vars, p.binds = append(p.vars, v), append(p.binds, len(p.levels))
			}
			lvl.cols = append(lvl.cols, col)
			lvl.disjoint = lvl.disjoint && col >= before
		}
		p.levels = append(p.levels, lvl)
	}
	for _, f := range q.Free {
		col, ok := varCol[f]
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrUnconstrained, f)
		}
		p.free, p.cut = append(p.free, col), max(p.cut, p.binds[col])
	}
	for _, lvl := range p.levels {
		lvl.row = make([]int, len(p.vars))
	}
	return p, nil
}

// walk is the streaming join. A row holds -1 in the columns no level has
// bound, so a level scans its atom with the prefix row's values as the
// bound pattern — pushdown, once per prefix row — and drops tuples that
// disagree with the row. A level sharing no variable with the prefix
// (after the first) is scanned once, on the first prefix row that reaches
// it, into a buffer charged 48 + 16·arity bytes a row until walk returns.
// A complete row ends the scans of the levels past p.cut. walk returns
// when yield returns false, a scan fails or charge refuses.
func (p *streamPlan) walk(src AtomSource, charge ChargeFunc, yield func([]int) bool) (err error) {
	held, reached := int64(0), false // reached: a row was complete since the scans up to p.cut last moved
	defer func() {
		if held > 0 {
			_ = charge(-held) // a release is never refused
		}
	}()
	var level func(i int, prefix []int) bool
	level = func(i int, prefix []int) bool {
		if i == len(p.levels) {
			reached = true
			return yield(prefix)
		}
		lvl := p.levels[i]
		for k, col := range lvl.cols {
			lvl.bound[k] = prefix[col]
		}
		more := true
		next := func(tup []int) bool {
			copy(lvl.row, prefix)
			for k, col := range lvl.cols {
				if lvl.row[col] >= 0 && lvl.row[col] != tup[k] {
					return true
				}
				lvl.row[col] = tup[k]
			}
			more = level(i+1, lvl.row)
			if reached && i > p.cut {
				return false
			}
			reached = false
			return more
		}
		if !lvl.disjoint || i == 0 {
			if e := src.Scan(lvl.rel, lvl.bound, next); e != nil {
				err, more = e, false
			}
			return more
		}
		if lvl.buf == nil {
			lvl.buf = []int{}
			e := src.Scan(lvl.rel, lvl.bound, func(tup []int) bool {
				n := 48 + 16*int64(len(tup))
				if charge != nil {
					if err = charge(n); err != nil {
						return false
					}
					held += n
				}
				lvl.buf = append(lvl.buf, tup...)
				return true
			})
			if e != nil {
				err = e
			}
			if err != nil {
				return false
			}
		}
		for k, a := 0, len(lvl.cols); k < len(lvl.buf) && next(lvl.buf[k:k+a]); k += a {
		}
		return more
	}
	init := make([]int, len(p.vars))
	for i := range init {
		init[i] = -1
	}
	level(0, init)
	return err
}

// StreamAssignments calls yield with the satisfying assignments of q over
// src until it returns false: fixed-width rows, one column per variable of
// vars, every column bound, valid only during the call. Distinct
// derivations of one assignment repeat. charge accounts the buffers of
// prefix-disjoint levels; nil disables accounting.
func StreamAssignments(src AtomSource, q *Query, charge ChargeFunc, yield func(row []int) bool) (vars []string, err error) {
	p, err := planStream(q)
	if err != nil {
		return nil, err
	}
	p.cut = len(p.levels) // every assignment, not only the first of an answer
	return p.vars, p.walk(src, charge, yield)
}

// StreamAnswers calls yield with the answers of q over src in q.Free
// order until it returns false, deduplicated: the first derivation wins,
// and each seen-set entry is charged 64 bytes plus its key; the levels
// past the last that binds a free variable stop at a complete row, as all
// they could add repeats its answer. A Boolean query yields at most one
// empty tuple.
func StreamAnswers(src AtomSource, q *Query, charge ChargeFunc, yield func(answer []int) bool) error {
	p, err := planStream(q)
	if err != nil {
		return err
	}
	out, key := make([]int, len(p.free)), make([]byte, 4*len(p.free))
	seen := make(map[string]struct{})
	var refused error
	if err := p.walk(src, charge, func(row []int) bool {
		for i, c := range p.free {
			out[i] = row[c]
			binary.LittleEndian.PutUint32(key[4*i:], uint32(out[i]))
		}
		if _, dup := seen[string(key)]; dup {
			return true
		}
		if charge != nil {
			if refused = charge(64 + int64(len(key))); refused != nil {
				return false
			}
		}
		seen[string(key)] = struct{}{}
		return yield(out)
	}); err != nil {
		return err
	}
	return refused
}
