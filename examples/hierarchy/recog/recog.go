// Package recog implements recognizable word relations — the weakest class
// in the hierarchy Recognizable ⊊ Synchronous ⊊ Rational discussed in the
// paper's introduction. A k-ary relation is recognizable iff it is a finite
// union of products L₁ × ... × L_k of regular languages.
//
// The paper notes that CRPQ+Recognizable is equivalent to UCRPQ (finite
// unions of CRPQs); ToUCRPQ implements that translation. Every recognizable
// relation is synchronous; ToSynchronous implements the inclusion.
package recog

import (
	"fmt"

	"ecrpq/internal/alphabet"
	"ecrpq/internal/automata"
	"ecrpq/internal/query"
	"ecrpq/internal/synchro"
)

// Term is one product L₁ × ... × L_k: a tuple belongs to the term iff each
// word belongs to its language.
type Term struct {
	Langs []*automata.NFA[alphabet.Symbol]
}

// Relation is a recognizable k-ary relation: a finite union of product
// terms.
type Relation struct {
	arity int
	alpha *alphabet.Alphabet
	terms []Term
	name  string
}

// New returns a recognizable relation from product terms. Every term must
// have exactly k languages.
func New(a *alphabet.Alphabet, k int, terms ...Term) (*Relation, error) {
	if k < 1 {
		return nil, fmt.Errorf("recog: arity %d < 1", k)
	}
	for i, t := range terms {
		if len(t.Langs) != k {
			return nil, fmt.Errorf("recog: term %d has %d languages, want %d", i, len(t.Langs), k)
		}
		for j, l := range t.Langs {
			if l == nil {
				return nil, fmt.Errorf("recog: term %d language %d is nil", i, j)
			}
		}
	}
	return &Relation{arity: k, alpha: a, terms: terms}, nil
}

// WithName attaches a display name.
func (r *Relation) WithName(name string) *Relation {
	r2 := *r
	r2.name = name
	return &r2
}

// Name returns the display name.
func (r *Relation) Name() string { return r.name }

// Arity returns the number of tracks.
func (r *Relation) Arity() int { return r.arity }

// Terms returns the number of product terms.
func (r *Relation) Terms() int { return len(r.terms) }

// Contains reports whether the word tuple belongs to the relation.
func (r *Relation) Contains(words ...alphabet.Word) (bool, error) {
	if len(words) != r.arity {
		return false, fmt.Errorf("recog: %d words for arity-%d relation", len(words), r.arity)
	}
	for _, t := range r.terms {
		all := true
		for i, l := range t.Langs {
			if !l.Accepts(words[i]) {
				all = false
				break
			}
		}
		if all {
			return true, nil
		}
	}
	return false, nil
}

// ToSynchronous converts the recognizable relation to a synchronous one
// (witnessing Recognizable ⊆ Synchronous): each product term is the join of
// its lifted languages on separate tracks; the union of terms is a union of
// synchronous relations.
func (r *Relation) ToSynchronous() (*synchro.Relation, error) {
	if len(r.terms) == 0 {
		// Empty relation: a start-only automaton accepts nothing.
		nfa := automata.NewNFA[string](1)
		nfa.SetStart(0, true)
		return synchro.FromNFA(r.alpha, r.arity, nfa)
	}
	var out *synchro.Relation
	for _, term := range r.terms {
		rels := make([]*synchro.Relation, r.arity)
		vars := make([][]int, r.arity)
		for i, l := range term.Langs {
			rels[i] = synchro.Lift(r.alpha, l)
			vars[i] = []int{i}
		}
		joined, err := synchro.Join(r.alpha, r.arity, rels, vars)
		if err != nil {
			return nil, err
		}
		if out == nil {
			out = joined
			continue
		}
		out, err = out.Union(joined)
		if err != nil {
			return nil, err
		}
	}
	return out.WithName(r.name), nil
}

// Atom is a relation atom of a CRPQ+Recognizable query: a recognizable
// relation applied to path variables.
type Atom struct {
	Rel   *Relation
	Paths []string
}

// ToUCRPQ implements the paper's remark that CRPQ+Recognizable ≡ UCRPQ:
// given a base CRPQ (reachability atoms with language constraints) extended
// with recognizable relation atoms, distribute the unions: one disjunct per
// choice of product term for each recognizable atom, with the term languages
// intersected into each path variable's language constraint. The base query
// must be a CRPQ; the result is a union of CRPQs over the same reachability
// skeleton.
func ToUCRPQ(base *query.Query, atoms []Atom) (*query.UnionQuery, error) {
	if err := base.Validate(); err != nil {
		return nil, err
	}
	if !base.IsCRPQ() {
		return nil, fmt.Errorf("recog: base query must be a CRPQ")
	}
	pathSet := make(map[string]bool)
	for _, p := range base.PathVars() {
		pathSet[p] = true
	}
	for i, at := range atoms {
		if at.Rel == nil {
			return nil, fmt.Errorf("recog: atom %d has nil relation", i)
		}
		if at.Rel.Arity() != len(at.Paths) {
			return nil, fmt.Errorf("recog: atom %d arity mismatch", i)
		}
		seen := make(map[string]bool)
		for _, p := range at.Paths {
			if !pathSet[p] {
				return nil, fmt.Errorf("recog: atom %d uses unknown path variable %q", i, p)
			}
			if seen[p] {
				return nil, fmt.Errorf("recog: atom %d repeats path variable %q", i, p)
			}
			seen[p] = true
		}
	}
	// Choice vector: one term index per atom.
	choice := make([]int, len(atoms))
	u := &query.UnionQuery{}
	var rec func(i int) error
	rec = func(i int) error {
		if i == len(atoms) {
			disjunct, err := buildDisjunct(base, atoms, choice)
			if err != nil {
				return err
			}
			u.Disjuncts = append(u.Disjuncts, disjunct)
			return nil
		}
		for c := 0; c < len(atoms[i].Rel.terms); c++ {
			choice[i] = c
			if err := rec(i + 1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := rec(0); err != nil {
		return nil, err
	}
	if len(u.Disjuncts) == 0 {
		return nil, fmt.Errorf("recog: some relation is empty (no terms); the query is unsatisfiable and has no UCRPQ form in this translation")
	}
	return u, nil
}

// buildDisjunct intersects the chosen term languages into the base query's
// unary constraints.
func buildDisjunct(base *query.Query, atoms []Atom, choice []int) (*query.Query, error) {
	b := query.NewBuilder(base.Alphabet())
	b.Free(base.Free...)
	for _, ra := range base.Reach {
		b.Reach(ra.Src, ra.Path, ra.Dst)
	}
	// Gather per-path language constraints: base unary atoms plus one
	// language per chosen term occurrence.
	perPath := make(map[string][]*automata.NFA[alphabet.Symbol])
	for _, ra := range base.Rels {
		// CRPQ: all relations are unary lifted languages; recover an
		// automaton by membership-preserving extraction: the synchro
		// relation's NFA letters are single-symbol tuples.
		nfa, err := unaryAutomaton(ra.Rel)
		if err != nil {
			return nil, err
		}
		perPath[ra.Paths[0]] = append(perPath[ra.Paths[0]], nfa)
	}
	for i, at := range atoms {
		term := at.Rel.terms[choice[i]]
		for k, p := range at.Paths {
			perPath[p] = append(perPath[p], term.Langs[k])
		}
	}
	for p, langs := range perPath {
		inter := langs[0]
		for _, l := range langs[1:] {
			inter = inter.Intersect(l).Trim()
		}
		b.Rel(synchro.Lift(base.Alphabet(), inter).WithName("L"), p)
	}
	return b.Build()
}

// unaryAutomaton converts a unary synchronous relation back to a plain NFA
// over symbols.
func unaryAutomaton(rel *synchro.Relation) (*automata.NFA[alphabet.Symbol], error) {
	if rel.Arity() != 1 {
		return nil, fmt.Errorf("recog: expected unary relation, got arity %d", rel.Arity())
	}
	if rel.IsUniversal() {
		out := automata.NewNFA[alphabet.Symbol](1)
		out.SetStart(0, true)
		out.SetAccept(0, true)
		for _, s := range rel.Alphabet().Symbols() {
			out.AddTransition(0, s, 0)
		}
		return out, nil
	}
	src := rel.RawNFA()
	out := automata.NewNFA[alphabet.Symbol](src.NumStates())
	for _, q := range src.StartStates() {
		out.SetStart(q, true)
	}
	for _, q := range src.AcceptStates() {
		out.SetAccept(q, true)
	}
	var convErr error
	src.Transitions(func(p int, l string, q int) {
		t, err := alphabet.TupleFromKey(l)
		if err != nil || len(t) != 1 {
			convErr = fmt.Errorf("recog: malformed unary letter")
			return
		}
		out.AddTransition(p, t[0], q)
	})
	if convErr != nil {
		return nil, convErr
	}
	return out, nil
}
