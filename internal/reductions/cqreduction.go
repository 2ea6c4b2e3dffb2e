package reductions

import (
	"fmt"

	"ecrpq/internal/alphabet"
	"ecrpq/internal/automata"
	"ecrpq/internal/cq"
	"ecrpq/internal/graphdb"
	"ecrpq/internal/query"
	"ecrpq/internal/synchro"
)

// SplitAtom describes one first-level edge of the target 2L graph in
// "collapse form" (Section 5.2): the pair of binary CQ atoms
// R(X, y_c) ∧ Rp(y_c, Xp) obtained by splitting the edge X → Xp at its
// component vertex y_c.
type SplitAtom struct {
	X, R, Rp, Xp string
}

// SplitComponent groups the split atoms sharing one component variable y_c —
// i.e. one connected component of the target abstraction's G^rel.
type SplitComponent struct {
	Paths []SplitAtom
}

// CQToECRPQ implements the FPT reduction of Lemma 5.3: given a binary
// relational structure and a conjunctive query in collapse form (a list of
// components, each with atoms R_i(x_i, y_c) ∧ R'_i(y_c, x'_i) over a shared
// component variable), it produces a graph database D̂ and an ECRPQ q_G such
// that
//
//	D̂ ⊨ q_G  ⇔  D ⊨ q.
//
// D̂ extends D's "edge view" (one labelled edge per binary tuple) with a
// simple {0,1}-labelled cycle per vertex reading that vertex's binary index,
// and each component becomes one synchronous relation atom
// { (R_1·w·R'_1, ..., R_r·w·R'_r) : w ∈ {0,1}+ } forcing all of the
// component's paths through the same middle vertex (identified by w).
func CQToECRPQ(st *cq.Structure, comps []SplitComponent) (*graphdb.DB, *query.Query, error) {
	if st.Domain < 1 {
		return nil, nil, fmt.Errorf("reductions: empty domain")
	}
	// Alphabet: one symbol per relation name, plus 0 and 1.
	names := st.RelationNames()
	symNames := append(append([]string(nil), names...), "0", "1")
	a, err := alphabet.New(symNames...)
	if err != nil {
		return nil, nil, err
	}
	zero, _ := a.Lookup("0")
	one, _ := a.Lookup("1")
	relSym := make(map[string]alphabet.Symbol, len(names))
	for _, n := range names {
		s, _ := a.Lookup(n)
		relSym[n] = s
	}

	db := graphdb.New(a)
	for v := 0; v < st.Domain; v++ {
		db.MustAddVertex(fmt.Sprintf("d%d", v))
	}
	for _, n := range names {
		r := st.Relation(n)
		if r.Arity != 2 {
			return nil, nil, fmt.Errorf("reductions: relation %q has arity %d; Lemma 5.3 needs binary structures", n, r.Arity)
		}
		for i := 0; i < r.Len(); i++ {
			t := r.Row(i)
			db.MustAddEdge(int(t[0]), relSym[n], int(t[1]))
		}
	}
	// Binary-index cycles: vertex i gets a fresh simple cycle reading the
	// n'-bit encoding of i (n' ≥ 1).
	bits := 1
	for 1<<bits < st.Domain {
		bits++
	}
	enc := func(i int) []alphabet.Symbol {
		out := make([]alphabet.Symbol, bits)
		for b := 0; b < bits; b++ {
			if i&(1<<(bits-1-b)) != 0 {
				out[b] = one
			} else {
				out[b] = zero
			}
		}
		return out
	}
	for v := 0; v < st.Domain; v++ {
		word := enc(v)
		cur := v
		for b := 0; b < bits; b++ {
			var next int
			if b == bits-1 {
				next = v
			} else {
				next = db.MustAddVertex("")
			}
			db.MustAddEdge(cur, word[b], next)
			cur = next
		}
	}

	// Query: per component, one relation atom over its paths.
	b := query.NewBuilder(a)
	pathSeq := 0
	for ci, comp := range comps {
		if len(comp.Paths) == 0 {
			return nil, nil, fmt.Errorf("reductions: component %d has no paths", ci)
		}
		var pvs []string
		var firsts, lasts []alphabet.Symbol
		for _, sa := range comp.Paths {
			r1, ok1 := relSym[sa.R]
			r2, ok2 := relSym[sa.Rp]
			if !ok1 || !ok2 {
				return nil, nil, fmt.Errorf("reductions: unknown relation in component %d", ci)
			}
			pathSeq++
			pv := fmt.Sprintf("pi%d", pathSeq)
			pvs = append(pvs, pv)
			b.Reach(sa.X, pv, sa.Xp)
			firsts = append(firsts, r1)
			lasts = append(lasts, r2)
		}
		rel, err := middleWordRelation(a, firsts, lasts, zero, one)
		if err != nil {
			return nil, nil, err
		}
		b.Rel(rel.WithName(fmt.Sprintf("comp%d", ci)), pvs...)
	}
	q, err := b.Build()
	if err != nil {
		return nil, nil, err
	}
	return db, q, nil
}

// middleWordRelation builds { (first_1·w·last_1, ..., first_r·w·last_r) :
// w ∈ {0,1}+ }.
func middleWordRelation(a *alphabet.Alphabet, firsts, lasts []alphabet.Symbol, zero, one alphabet.Symbol) (*synchro.Relation, error) {
	r := len(firsts)
	nfa := automata.NewNFA[string](4)
	nfa.SetStart(0, true)
	nfa.SetAccept(3, true)
	nfa.AddTransition(0, alphabet.Tuple(firsts).Key(), 1)
	all := func(s alphabet.Symbol) string {
		t := make(alphabet.Tuple, r)
		for i := range t {
			t[i] = s
		}
		return t.Key()
	}
	nfa.AddTransition(1, all(zero), 2)
	nfa.AddTransition(1, all(one), 2)
	nfa.AddTransition(2, all(zero), 2)
	nfa.AddTransition(2, all(one), 2)
	nfa.AddTransition(2, alphabet.Tuple(lasts).Key(), 3)
	return synchro.FromNFA(a, r, nfa)
}

// SubdivideCQ converts an arbitrary binary CQ into collapse form over an
// adjusted structure: every atom R(x, x') becomes its own component with the
// split pair R→(x, m) ∧ R←(m, x'), where m ranges over fresh midpoint
// elements, one per tuple of R. Satisfiability is preserved, and the
// collapse multigraph is the subdivision of the query's multigraph (which
// preserves treewidth for tw ≥ 2 — the regime of the W[1] lower bound).
func SubdivideCQ(st *cq.Structure, q *cq.Query) (*cq.Structure, []SplitComponent, error) {
	if err := q.Validate(st); err != nil {
		return nil, nil, err
	}
	// Midpoints: one per (relation, tuple).
	type key struct {
		rel string
		idx int
	}
	names := st.RelationNames()
	total := st.Domain
	mid := make(map[key]int)
	for _, n := range names {
		r := st.Relation(n)
		if r.Arity != 2 {
			return nil, nil, fmt.Errorf("reductions: relation %q not binary", n)
		}
		for i := 0; i < r.Len(); i++ {
			mid[key{n, i}] = total
			total++
		}
	}
	out := cq.NewStructure(total)
	for _, n := range names {
		r := st.Relation(n)
		if err := out.AddRelation(n+"->", 2); err != nil {
			return nil, nil, err
		}
		if err := out.AddRelation(n+"<-", 2); err != nil {
			return nil, nil, err
		}
		for i := 0; i < r.Len(); i++ {
			t, m := r.Row(i), mid[key{n, i}]
			out.MustAddTuple(n+"->", int(t[0]), m)
			out.MustAddTuple(n+"<-", m, int(t[1]))
		}
	}
	var comps []SplitComponent
	for _, at := range q.Atoms {
		comps = append(comps, SplitComponent{Paths: []SplitAtom{{
			X: at.Args[0], R: at.Rel + "->", Rp: at.Rel + "<-", Xp: at.Args[1],
		}}})
	}
	return out, comps, nil
}
