// Package cq implements conjunctive queries over finite relational
// structures with one evaluator, the tree-decomposition dynamic program that
// makes bounded-treewidth evaluation polynomial (Proposition 2.3 of the
// paper; Compile, Plan.Eval, Plan.Answers), and one reference it is tested
// against, exhaustive backtracking (EvalBacktrack). It is the target of the
// ECRPQ-to-CQ reduction of Lemma 4.3, whose R' relations it stores as the
// evaluator reads them: one flat []int32 of rows each (Relation).
package cq

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"ecrpq/internal/invariant"
	"ecrpq/internal/twolevel"
)

// Structure is a finite relational structure with domain {0, ..., Domain-1}
// and named relations.
type Structure struct {
	Domain int
	rels   map[string]*Relation
}

// Relation is a named relation: a set of tuples over the domain, stored as the
// join kernel reads them — rows back to back in one pointer-free []int32. It is
// built tuple by tuple (AddTuple; membership through a hash index beside the
// rows) or bulk-loaded sorted (LoadSorted; membership by binary search, no index).
type Relation struct {
	Arity int
	data  []int32         // Len() rows of Arity values each
	index map[string]bool // AddTuple-built relations; nil when bulk-loaded
	order []int           // bulk-loaded: rows ascend strictly under this column order
}

// Len returns the number of rows.
func (r *Relation) Len() int { return len(r.data) / r.Arity }

// Row returns row i, a read-only slice into the relation's array.
func (r *Relation) Row(i int) []int32 { return r.data[i*r.Arity : (i+1)*r.Arity : (i+1)*r.Arity] }

// NewStructure returns a structure with the given domain size.
func NewStructure(domain int) *Structure {
	return &Structure{Domain: domain, rels: make(map[string]*Relation)}
}

// AddRelation declares a relation. Re-declaring a name is an error.
func (s *Structure) AddRelation(name string, arity int) error {
	if _, ok := s.rels[name]; ok {
		return fmt.Errorf("cq: duplicate relation %q", name)
	}
	if arity < 1 {
		return fmt.Errorf("cq: relation %q arity %d < 1", name, arity)
	}
	s.rels[name] = &Relation{Arity: arity, index: make(map[string]bool)}
	return nil
}

// LoadSorted declares a relation and bulk-loads it from flat, which holds
// the rows back to back (arity values each). The rows must be distinct and
// strictly ascending when compared column by column in the order given by
// order (a permutation of 0..arity-1); this is verified in place, in one
// pass, along with the domain bounds. The relation takes ownership of flat
// as its row store: nothing is copied or indexed, and Contains binary-searches
// the row indices. A bulk-loaded relation is immutable (AddTuple on it fails).
func (s *Structure) LoadSorted(name string, arity int, flat []int32, order []int) error {
	if _, ok := s.rels[name]; ok {
		return fmt.Errorf("cq: duplicate relation %q", name)
	}
	if arity < 1 {
		return fmt.Errorf("cq: relation %q arity %d < 1", name, arity)
	}
	if len(flat)%arity != 0 {
		return fmt.Errorf("cq: relation %q: %d values do not divide into arity-%d rows", name, len(flat), arity)
	}
	seen := make([]bool, arity)
	for _, c := range order {
		if c >= 0 && c < arity {
			seen[c] = true
		}
	}
	if len(order) != arity || slices.Contains(seen, false) { // arity entries naming every column: a permutation
		return fmt.Errorf("cq: relation %q: column order %v is not a permutation of its %d columns", name, order, arity)
	}
	r := &Relation{Arity: arity, data: flat, order: slices.Clone(order)}
	unsorted := 0 // the first row not above its predecessor; a value outside the domain, wherever it is, is reported first
	for i, n := 0, r.Len(); i < n; i++ {
		row := r.Row(i)
		for _, v := range row {
			if v < 0 || int(v) >= s.Domain {
				return fmt.Errorf("cq: tuple value %d outside domain", v)
			}
		}
		if unsorted == 0 && i > 0 && compareRows(r.order, row, r.Row(i-1)) <= 0 {
			unsorted = i
		}
	}
	if unsorted > 0 {
		return fmt.Errorf("cq: relation %q: rows %d and %d are not strictly ascending under column order %v", name, unsorted-1, unsorted, order)
	}
	s.rels[name] = r
	return nil
}

// compareRows orders a tuple (a caller's []int, or another row) against a
// row, column by column in the given order.
func compareRows[T int | int32](order []int, tuple []T, row []int32) int {
	for _, c := range order {
		if a, b := int(tuple[c]), int(row[c]); a != b {
			if a < b {
				return -1
			}
			return 1
		}
	}
	return 0
}

// AddTuple inserts a tuple into a declared relation. Duplicates are ignored.
func (s *Structure) AddTuple(name string, tuple ...int) error {
	r, ok := s.rels[name]
	if !ok {
		return fmt.Errorf("cq: unknown relation %q", name)
	}
	if r.index == nil {
		return fmt.Errorf("cq: relation %q is bulk-loaded and immutable", name)
	}
	if len(tuple) != r.Arity {
		return fmt.Errorf("cq: relation %q arity %d, tuple %v", name, r.Arity, tuple)
	}
	for _, v := range tuple {
		if v < 0 || v >= s.Domain || v > math.MaxInt32 { // rows hold int32; Eval refuses a wider domain outright
			return fmt.Errorf("cq: tuple value %d outside domain", v)
		}
	}
	k := key(tuple)
	if r.index[k] {
		return nil
	}
	r.index[k] = true
	n := len(r.data)
	r.data = slices.Grow(r.data, r.Arity)[:n+r.Arity]
	for i, v := range tuple {
		r.data[n+i] = int32(v)
	}
	return nil
}

// MustAddTuple is AddTuple, panicking on error.
func (s *Structure) MustAddTuple(name string, tuple ...int) {
	invariant.NoError(s.AddTuple(name, tuple...), "cq: MustAddTuple")
}

// Contains reports whether the relation holds the tuple.
func (s *Structure) Contains(name string, tuple ...int) bool {
	r, ok := s.rels[name]
	if !ok || len(tuple) != r.Arity {
		return false
	}
	if r.index != nil {
		return r.index[key(tuple)]
	}
	_, found := sort.Find(r.Len(), func(i int) int { return compareRows(r.order, tuple, r.Row(i)) })
	return found
}

// RelationNames returns the declared relation names, sorted.
//
//ecrpq:charged schema-sized accessor (one string per declared relation)
func (s *Structure) RelationNames() []string {
	out := make([]string, 0, len(s.rels))
	for n := range s.rels {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Relation returns the named relation (nil if absent).
func (s *Structure) Relation(name string) *Relation { return s.rels[name] }

// NumTuples returns the total number of tuples across relations.
func (s *Structure) NumTuples() int {
	n := 0
	for _, r := range s.rels {
		n += r.Len()
	}
	return n
}

// RowBytes returns the bytes the relations' rows occupy: 4 per value.
func (s *Structure) RowBytes() int {
	n := 0
	for _, r := range s.rels {
		n += 4 * len(r.data)
	}
	return n
}

func key(tuple []int) string {
	buf := make([]byte, 4*len(tuple))
	for i, v := range tuple {
		buf[4*i] = byte(v)
		buf[4*i+1] = byte(v >> 8)
		buf[4*i+2] = byte(v >> 16)
		buf[4*i+3] = byte(v >> 24)
	}
	return string(buf)
}

// Atom is a conjunctive-query atom Rel(Args...).
type Atom struct {
	Rel  string
	Args []string
}

// Query is a conjunctive query. Free lists the free variables (empty means
// Boolean).
type Query struct {
	Atoms []Atom
	Free  []string
}

// Vars returns the variables of the query in first-occurrence order.
//
//ecrpq:charged query-sized accessor (one entry per distinct variable)
func (q *Query) Vars() []string {
	seen := make(map[string]bool)
	var out []string
	for _, f := range q.Free {
		if !seen[f] {
			seen[f] = true
			out = append(out, f)
		}
	}
	for _, at := range q.Atoms {
		for _, v := range at.Args {
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	return out
}

// Validate checks atoms against the structure's signature, and the query's
// variables.
func (q *Query) Validate(s *Structure) error {
	if err := q.checkSignature(s); err != nil {
		return err
	}
	return q.checkVars()
}

// checkSignature is the half of Validate that depends on the structure:
// every atom names a declared relation at its arity.
func (q *Query) checkSignature(s *Structure) error {
	for i, at := range q.Atoms {
		r := s.Relation(at.Rel)
		if r == nil {
			return fmt.Errorf("cq: atom %d uses unknown relation %q", i, at.Rel)
		}
		if len(at.Args) != r.Arity {
			return fmt.Errorf("cq: atom %d has %d args for arity-%d relation %q",
				i, len(at.Args), r.Arity, at.Rel)
		}
	}
	return nil
}

// checkVars is the query-only half of Validate: no variable is empty and
// every free variable occurs in an atom.
func (q *Query) checkVars() error {
	varSeen := make(map[string]bool)
	for i, at := range q.Atoms {
		for _, v := range at.Args {
			if v == "" {
				return fmt.Errorf("cq: atom %d has empty variable", i)
			}
			varSeen[v] = true
		}
	}
	for _, f := range q.Free {
		if !varSeen[f] {
			return fmt.Errorf("cq: free variable %q not in query", f)
		}
	}
	return nil
}

// GaifmanGraph returns the Gaifman (primal) graph of the query together with
// the variable order indexing its vertices.
func (q *Query) GaifmanGraph() (*twolevel.SimpleGraph, []string) {
	vars := q.Vars()
	idx := make(map[string]int, len(vars))
	for i, v := range vars {
		idx[v] = i
	}
	g := twolevel.NewSimpleGraph(len(vars))
	for _, at := range q.Atoms {
		for i := 0; i < len(at.Args); i++ {
			for j := i + 1; j < len(at.Args); j++ {
				g.AddEdge(idx[at.Args[i]], idx[at.Args[j]])
			}
		}
	}
	return g, vars
}

// Treewidth returns treewidth bounds of the query's Gaifman graph.
func (q *Query) Treewidth() (lower, upper int, exact bool) {
	g, _ := q.GaifmanGraph()
	return g.Treewidth()
}
