package synchro

import (
	"fmt"

	"ecrpq/internal/alphabet"
	"ecrpq/internal/automata"
	"ecrpq/internal/invariant"
)

// Intersect returns R ∩ S (same arity required).
func (r *Relation) Intersect(s *Relation) (*Relation, error) {
	if r.arity != s.arity {
		return nil, fmt.Errorf("synchro: intersect arities %d and %d", r.arity, s.arity)
	}
	if r.universal {
		return s, nil
	}
	if s.universal {
		return r, nil
	}
	return explicit(r.alpha, r.arity, r.nfa.Intersect(s.nfa).Trim(), ""), nil
}

// Union returns R ∪ S (same arity required).
func (r *Relation) Union(s *Relation) (*Relation, error) {
	if r.arity != s.arity {
		return nil, fmt.Errorf("synchro: union arities %d and %d", r.arity, s.arity)
	}
	if r.universal {
		return r, nil
	}
	if s.universal {
		return s, nil
	}
	return explicit(r.alpha, r.arity, r.nfa.Union(s.nfa), ""), nil
}

// Complement returns (A*)^k \ R. The result accepts exactly the valid
// convolutions of tuples outside R. The construction determinizes over the
// full tuple alphabet, so it is exponential in arity; a guard rejects
// relations whose materialized alphabet would exceed an internal bound.
func (r *Relation) Complement() (*Relation, error) {
	nfa, err := r.NFA()
	if err != nil {
		return nil, err
	}
	if r.universal {
		// Complement of universal is empty.
		empty := automata.NewNFA[string](1)
		empty.SetStart(0, true)
		return explicit(r.alpha, r.arity, empty, ""), nil
	}
	letters := make([]string, 0)
	for _, t := range alphabet.AllTuples(r.alpha, r.arity) {
		letters = append(letters, t.Key())
	}
	if len(letters) > maxMaterializeLetters {
		return nil, fmt.Errorf("synchro: complement of arity-%d relation over %d symbols too large", r.arity, r.alpha.Size())
	}
	comp := nfa.Determinize().Complement(letters).ToNFA()
	// Restrict to valid convolutions.
	valid, err := validConvolutionsNFA(r.alpha, r.arity)
	if err != nil {
		return nil, err
	}
	return explicit(r.alpha, r.arity, comp.Intersect(valid).Trim(), ""), nil
}

// validConvolutionsNFA recognizes exactly the valid convolutions of k-tuples
// of words: per-track padding is suffix-only and no letter is all-pad.
// States are subsets of finished tracks, so the automaton has 2^k states.
func validConvolutionsNFA(a *alphabet.Alphabet, k int) (*automata.NFA[string], error) {
	if k > 16 {
		return nil, fmt.Errorf("synchro: valid-convolution automaton for arity %d too large", k)
	}
	n := automata.NewNFA[string](1 << k)
	n.SetStart(0, true)
	for mask := 0; mask < 1<<k; mask++ {
		n.SetAccept(mask, true)
	}
	for mask := 0; mask < 1<<k; mask++ {
		for _, t := range alphabet.AllTuples(a, k) {
			next := mask
			ok := true
			for track, s := range t {
				if s == alphabet.Pad {
					next |= 1 << track
				} else if mask&(1<<track) != 0 {
					ok = false
					break
				}
			}
			if ok {
				n.AddTransition(mask, t.Key(), next)
			}
		}
	}
	return n, nil
}

// relabel builds an automaton with r's states, start and accepting states,
// and the transitions add makes of each of r's.
func (r *Relation) relabel(add func(out *automata.NFA[string], q int, tr Transition)) *automata.NFA[string] {
	t := r.Table()
	out := automata.NewNFA[string](t.NumStates())
	for _, q := range t.Starts {
		out.SetStart(q, true)
	}
	for q, trs := range t.Trans {
		out.SetAccept(q, t.Accept[q])
		for _, tr := range trs {
			add(out, q, tr)
		}
	}
	return out
}

// Permute returns the relation { (w_{perm[0]}, ..., w_{perm[k-1]}) :
// (w_0,...,w_{k-1}) ∈ R }; that is, track i of the result carries what track
// perm[i] of R carried. perm must be a permutation of 0..k-1.
func (r *Relation) Permute(perm []int) *Relation {
	invariant.Assertf(len(perm) == r.arity,
		"synchro: permutation of length %d for arity %d", len(perm), r.arity)
	seen := make([]bool, r.arity)
	for _, p := range perm {
		invariant.Assertf(p >= 0 && p < r.arity && !seen[p], "synchro: invalid permutation %v", perm)
		seen[p] = true
	}
	if r.universal {
		return r
	}
	out := r.relabel(func(out *automata.NFA[string], q int, tr Transition) {
		nt := make(alphabet.Tuple, len(tr.Tuple))
		for i := range nt {
			nt[i] = tr.Tuple[perm[i]]
		}
		out.AddTransition(q, nt.Key(), tr.To)
	})
	return explicit(r.alpha, r.arity, out, r.name)
}

// Project returns the relation over the kept tracks:
// { (w_{keep[0]},...,w_{keep[m-1]}) : ∃ values for dropped tracks,
// (w_0,...,w_{k-1}) ∈ R }. Letters that become all-padding on the kept
// tracks turn into ε-transitions (the dropped tracks were strictly longer),
// which are then eliminated.
func (r *Relation) Project(keep []int) (*Relation, error) {
	if len(keep) == 0 {
		return nil, fmt.Errorf("synchro: projection must keep at least one track")
	}
	for _, k := range keep {
		if k < 0 || k >= r.arity {
			return nil, fmt.Errorf("synchro: projection track %d out of range", k)
		}
	}
	if r.universal {
		return Universal(r.alpha, len(keep)), nil
	}
	out := r.relabel(func(out *automata.NFA[string], q int, tr Transition) {
		nt := make(alphabet.Tuple, len(keep))
		allPad := true
		for i, src := range keep {
			nt[i] = tr.Tuple[src]
			if tr.Tuple[src] != alphabet.Pad {
				allPad = false
			}
		}
		if allPad {
			out.AddEps(q, tr.To)
		} else {
			out.AddTransition(q, nt.Key(), tr.To)
		}
	})
	clean := out.RemoveEps().Trim()
	// Sanitize: restrict to valid convolutions so that iterated first-order
	// constructions (e.g. Compose chains) never treat pad-gapped junk words
	// as real middle-track witnesses.
	if len(keep) <= 8 {
		if valid, err := validConvolutionsNFA(r.alpha, len(keep)); err == nil {
			clean = clean.Intersect(valid).Trim()
		}
	}
	return explicit(r.alpha, len(keep), clean, ""), nil
}

// Compose returns the composition R ∘ S = { (u, w) : ∃v, (u,v) ∈ R and
// (v,w) ∈ S } of two binary relations: their Lemma 4.1 merge over the
// tracks (u, v, w), projected to (u, w) (synchronous relations are closed
// under first-order operations).
func (r *Relation) Compose(s *Relation) (*Relation, error) {
	if r.arity != 2 || s.arity != 2 {
		return nil, fmt.Errorf("synchro: compose requires binary relations (got %d and %d)", r.arity, s.arity)
	}
	both, err := Join(r.alpha, 3, []*Relation{r, s}, [][]int{{0, 1}, {1, 2}})
	if err != nil {
		return nil, err
	}
	return both.Project([]int{0, 2})
}

// SubsetOf reports whether r ⊆ s, by emptiness of r ∩ complement(s). Both
// relations must have the same arity; the complement construction bounds
// this to small arities (see Complement).
func (r *Relation) SubsetOf(s *Relation) (bool, error) {
	if r.arity != s.arity {
		return false, fmt.Errorf("synchro: subset arities %d and %d", r.arity, s.arity)
	}
	if s.universal {
		return true, nil
	}
	comp, err := s.Complement()
	if err != nil {
		return false, err
	}
	inter, err := r.Intersect(comp)
	if err != nil {
		return false, err
	}
	_, empty := inter.IsEmpty()
	return empty, nil
}

// EquivalentTo reports whether r and s contain exactly the same tuples.
func (r *Relation) EquivalentTo(s *Relation) (bool, error) {
	sub, err := r.SubsetOf(s)
	if err != nil {
		return false, err
	}
	if !sub {
		return false, nil
	}
	return s.SubsetOf(r)
}
