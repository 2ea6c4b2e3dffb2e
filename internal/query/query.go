// Package query defines ECRPQ and CRPQ queries (Section 2 of the paper):
// abstract syntax, a fluent builder, well-formedness validation, and a small
// textual DSL (see Parse).
//
// An ECRPQ is a pair (γ, ρ): the reachability subquery γ is a conjunction of
// atoms  z --π--> z'  in which every path variable π occurs exactly once,
// and the relation subquery ρ is a conjunction of atoms R(π1, ..., πr) over
// pairwise-distinct path variables, with R a synchronous relation.
package query

import (
	"fmt"
	"sort"

	"ecrpq/internal/alphabet"
	"ecrpq/internal/invariant"
	"ecrpq/internal/rex"
	"ecrpq/internal/synchro"
)

// ReachAtom is a reachability atom  Src --Path--> Dst  connecting two node
// variables through a path variable.
type ReachAtom struct {
	Src, Dst string // node variables
	Path     string // path variable
}

// RelAtom is a relation atom R(Paths...) constraining the labels of the
// named paths by a synchronous relation.
type RelAtom struct {
	Rel   *synchro.Relation
	Paths []string
}

// Query is an ECRPQ. Node and path variables are strings; every path
// variable appears in exactly one reachability atom. Free lists the free
// node variables (empty means Boolean).
//
// A query returned by Parse or Build is immutable: nothing in this
// repository writes to it or to its relations afterwards, and callers must
// not either. The query daemon relies on this — one parsed *Query is shared
// by every request that sends the same text and by the plans compiled from
// it, concurrently. Normalize and the like return new values.
type Query struct {
	alpha *alphabet.Alphabet
	Free  []string
	Reach []ReachAtom
	Rels  []RelAtom
}

// Alphabet returns the query's edge alphabet.
func (q *Query) Alphabet() *alphabet.Alphabet { return q.alpha }

// NodeVars returns all node variables in first-occurrence order.
func (q *Query) NodeVars() []string {
	seen := make(map[string]bool)
	var out []string
	add := func(v string) {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	for _, f := range q.Free {
		add(f)
	}
	for _, r := range q.Reach {
		add(r.Src)
		add(r.Dst)
	}
	return out
}

// PathVars returns all path variables in reachability-atom order.
func (q *Query) PathVars() []string {
	out := make([]string, len(q.Reach))
	for i, r := range q.Reach {
		out[i] = r.Path
	}
	return out
}

// ReachAtomFor returns the reachability atom containing the path variable.
func (q *Query) ReachAtomFor(path string) (ReachAtom, bool) {
	for _, r := range q.Reach {
		if r.Path == path {
			return r, true
		}
	}
	return ReachAtom{}, false
}

// IsBoolean reports whether the query has no free variables.
func (q *Query) IsBoolean() bool { return len(q.Free) == 0 }

// IsCRPQ reports whether the query satisfies the CRPQ restrictions: every
// relation has arity one, and no path variable appears in more than one
// relation atom.
func (q *Query) IsCRPQ() bool {
	used := make(map[string]int)
	for _, ra := range q.Rels {
		if ra.Rel.Arity() != 1 {
			return false
		}
		for _, p := range ra.Paths {
			used[p]++
			if used[p] > 1 {
				return false
			}
		}
	}
	return true
}

// Validate checks the well-formedness conditions of Section 2.
func (q *Query) Validate() error {
	pathOwner := make(map[string]bool)
	nodeVars := make(map[string]bool)
	for i, r := range q.Reach {
		if r.Src == "" || r.Dst == "" || r.Path == "" {
			return fmt.Errorf("query: reachability atom %d has empty variable", i)
		}
		if pathOwner[r.Path] {
			return fmt.Errorf("query: path variable %q appears in two reachability atoms", r.Path)
		}
		pathOwner[r.Path] = true
		nodeVars[r.Src] = true
		nodeVars[r.Dst] = true
	}
	for i, ra := range q.Rels {
		if ra.Rel == nil {
			return fmt.Errorf("query: relation atom %d has nil relation", i)
		}
		if ra.Rel.Arity() != len(ra.Paths) {
			return fmt.Errorf("query: relation atom %d: arity %d but %d path variables",
				i, ra.Rel.Arity(), len(ra.Paths))
		}
		seen := make(map[string]bool, len(ra.Paths))
		for _, p := range ra.Paths {
			if !pathOwner[p] {
				return fmt.Errorf("query: relation atom %d uses undeclared path variable %q", i, p)
			}
			if seen[p] {
				return fmt.Errorf("query: relation atom %d repeats path variable %q", i, p)
			}
			seen[p] = true
		}
		if ra.Rel.Alphabet().Size() != q.alpha.Size() {
			return fmt.Errorf("query: relation atom %d over an alphabet of size %d, query uses %d",
				i, ra.Rel.Alphabet().Size(), q.alpha.Size())
		}
	}
	seenFree := make(map[string]bool)
	for _, f := range q.Free {
		if !nodeVars[f] {
			return fmt.Errorf("query: free variable %q does not occur in the query", f)
		}
		if seenFree[f] {
			return fmt.Errorf("query: duplicate free variable %q", f)
		}
		seenFree[f] = true
	}
	return nil
}

// Normalize returns an equivalent query in which every path variable occurs
// in at least one relation atom, adding a Universal(1) atom for each
// unconstrained path variable. The input is not modified. Normalization
// never changes satisfiability, answers, or the complexity-relevant measures
// beyond adding singleton components.
func (q *Query) Normalize() *Query {
	covered := make(map[string]bool)
	for _, ra := range q.Rels {
		for _, p := range ra.Paths {
			covered[p] = true
		}
	}
	out := &Query{
		alpha: q.alpha,
		Free:  append([]string(nil), q.Free...),
		Reach: append([]ReachAtom(nil), q.Reach...),
		Rels:  append([]RelAtom(nil), q.Rels...),
	}
	for _, r := range q.Reach {
		if !covered[r.Path] {
			out.Rels = append(out.Rels, RelAtom{
				Rel:   synchro.Universal(q.alpha, 1),
				Paths: []string{r.Path},
			})
		}
	}
	return out
}

// String renders a readable form of the query.
func (q *Query) String() string {
	s := "q("
	for i, f := range q.Free {
		if i > 0 {
			s += ", "
		}
		s += f
	}
	s += ") := "
	for i, r := range q.Reach {
		if i > 0 {
			s += " ∧ "
		}
		s += fmt.Sprintf("%s -[%s]-> %s", r.Src, r.Path, r.Dst)
	}
	for _, ra := range q.Rels {
		name := ra.Rel.Name()
		if name == "" {
			name = "R"
		}
		s += fmt.Sprintf(" ∧ %s(", name)
		for i, p := range ra.Paths {
			if i > 0 {
				s += ", "
			}
			s += p
		}
		s += ")"
	}
	return s
}

// Builder constructs queries incrementally.
type Builder struct {
	alpha   *alphabet.Alphabet
	q       *Query
	anonSeq int
	err     error
}

// NewBuilder returns a builder for queries over the alphabet.
func NewBuilder(a *alphabet.Alphabet) *Builder {
	return &Builder{alpha: a, q: &Query{alpha: a}}
}

// Reach adds the atom src --path--> dst.
func (b *Builder) Reach(src, path, dst string) *Builder {
	b.q.Reach = append(b.q.Reach, ReachAtom{Src: src, Dst: dst, Path: path})
	return b
}

// Rel adds the relation atom rel(paths...).
func (b *Builder) Rel(rel *synchro.Relation, paths ...string) *Builder {
	b.q.Rels = append(b.q.Rels, RelAtom{Rel: rel, Paths: append([]string(nil), paths...)})
	return b
}

// Lang constrains a path variable's label to a regular expression (a unary
// relation atom).
func (b *Builder) Lang(path, regex string) *Builder {
	if b.err != nil {
		return b
	}
	nfa, err := rex.CompileString(b.alpha, regex)
	if err != nil {
		b.err = err
		return b
	}
	return b.Rel(synchro.Lift(b.alpha, nfa).WithName(regex), path)
}

// Edge is the CRPQ convenience  src --regex--> dst : it introduces a fresh
// path variable with the given language constraint.
func (b *Builder) Edge(src, regex, dst string) *Builder {
	b.anonSeq++
	p := fmt.Sprintf("_p%d", b.anonSeq)
	b.Reach(src, p, dst)
	return b.Lang(p, regex)
}

// Free declares free node variables.
func (b *Builder) Free(vars ...string) *Builder {
	b.q.Free = append(b.q.Free, vars...)
	return b
}

// Build validates and returns the query.
func (b *Builder) Build() (*Query, error) {
	if b.err != nil {
		return nil, b.err
	}
	if err := b.q.Validate(); err != nil {
		return nil, err
	}
	return b.q, nil
}

// MustBuild is Build, panicking on error.
func (b *Builder) MustBuild() *Query {
	return invariant.Must(b.Build())
}

// SortedNodeVars returns the node variables sorted (test helper for
// deterministic comparisons).
func (q *Query) SortedNodeVars() []string {
	vs := q.NodeVars()
	sort.Strings(vs)
	return vs
}
