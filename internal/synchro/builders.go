package synchro

import (
	"fmt"
	"sort"

	"ecrpq/internal/alphabet"
	"ecrpq/internal/automata"
	"ecrpq/internal/invariant"
)

// Universal returns the relation (A*)^k. It is kept symbolic; most
// operations special-case it, and NFA() materializes on demand for small
// (|A|+1)^k.
func Universal(a *alphabet.Alphabet, k int) *Relation {
	return &Relation{arity: k, alpha: a, universal: true, name: "universal"}
}

// Lift turns a regular language (an NFA over single symbols) into a unary
// relation.
func Lift(a *alphabet.Alphabet, lang *automata.NFA[alphabet.Symbol]) *Relation {
	clean := lang.RemoveEps()
	n := automata.NewNFA[string](clean.NumStates())
	for _, q := range clean.StartStates() {
		n.SetStart(q, true)
	}
	for _, q := range clean.AcceptStates() {
		n.SetAccept(q, true)
	}
	clean.Transitions(func(p int, s alphabet.Symbol, q int) {
		n.AddTransition(p, alphabet.Tuple{s}.Key(), q)
	})
	return explicit(a, 1, n, "lang")
}

// Equality returns the k-ary relation {(w, ..., w) : w ∈ A*}.
func Equality(a *alphabet.Alphabet, k int) *Relation {
	nfa := automata.NewNFA[string](1)
	nfa.SetStart(0, true)
	nfa.SetAccept(0, true)
	t := make(alphabet.Tuple, k)
	for _, s := range a.Symbols() {
		for i := range t {
			t[i] = s
		}
		nfa.AddTransition(0, t.Key(), 0)
	}
	return explicit(a, k, nfa, "eq")
}

// EqualLength returns the k-ary relation {(w1,...,wk) : |w1| = ... = |wk|}.
// Its NFA has |A|^k letters on a single state; keep k small.
func EqualLength(a *alphabet.Alphabet, k int) *Relation {
	nfa := automata.NewNFA[string](1)
	nfa.SetStart(0, true)
	nfa.SetAccept(0, true)
	t := make(alphabet.Tuple, k)
	var rec func(i int)
	rec = func(i int) {
		if i == k {
			nfa.AddTransition(0, t.Key(), 0)
			return
		}
		for _, s := range a.Symbols() {
			t[i] = s
			rec(i + 1)
		}
	}
	rec(0)
	return explicit(a, k, nfa, "eq-len")
}

// PrefixOf returns the binary relation {(u, v) : u is a prefix of v}.
func PrefixOf(a *alphabet.Alphabet) *Relation {
	// State 0: still reading the common prefix; state 1: u has ended.
	nfa := automata.NewNFA[string](2)
	nfa.SetStart(0, true)
	nfa.SetAccept(0, true)
	nfa.SetAccept(1, true)
	for _, s := range a.Symbols() {
		nfa.AddTransition(0, alphabet.Tuple{s, s}.Key(), 0)
		nfa.AddTransition(0, alphabet.Tuple{alphabet.Pad, s}.Key(), 1)
		nfa.AddTransition(1, alphabet.Tuple{alphabet.Pad, s}.Key(), 1)
	}
	return explicit(a, 2, nfa, "prefix")
}

// HammingAtMost returns the binary relation of equal-length words differing
// in at most d positions.
func HammingAtMost(a *alphabet.Alphabet, d int) *Relation {
	nfa := automata.NewNFA[string](d + 1)
	nfa.SetStart(0, true)
	for i := 0; i <= d; i++ {
		nfa.SetAccept(i, true)
	}
	for i := 0; i <= d; i++ {
		for _, s := range a.Symbols() {
			for _, s2 := range a.Symbols() {
				if s == s2 {
					nfa.AddTransition(i, alphabet.Tuple{s, s2}.Key(), i)
				} else if i < d {
					nfa.AddTransition(i, alphabet.Tuple{s, s2}.Key(), i+1)
				}
			}
		}
	}
	return explicit(a, 2, nfa, fmt.Sprintf("hamming<=%d", d))
}

// LengthDiffAtMost returns the binary relation {(u,v) : ||u|-|v|| ≤ d}.
func LengthDiffAtMost(a *alphabet.Alphabet, d int) *Relation {
	// States: 0 = both running; 1..d = first track padded for i letters;
	// d+1..2d = second track padded.
	nfa := automata.NewNFA[string](2*d + 1)
	nfa.SetStart(0, true)
	for q := 0; q <= 2*d; q++ {
		nfa.SetAccept(q, true)
	}
	for _, s1 := range a.Symbols() {
		for _, s2 := range a.Symbols() {
			nfa.AddTransition(0, alphabet.Tuple{s1, s2}.Key(), 0)
		}
	}
	for _, s := range a.Symbols() {
		for i := 0; i < d; i++ {
			// first track padded: v longer
			from := 0
			if i > 0 {
				from = i
			}
			nfa.AddTransition(from, alphabet.Tuple{alphabet.Pad, s}.Key(), i+1)
			// second track padded: u longer
			from2 := 0
			if i > 0 {
				from2 = d + i
			}
			nfa.AddTransition(from2, alphabet.Tuple{s, alphabet.Pad}.Key(), d+i+1)
		}
	}
	return explicit(a, 2, nfa, fmt.Sprintf("lendiff<=%d", d))
}

// editOne returns the binary relation {(u, v) : ed(u, v) ≤ 1}: equality, one
// substitution, one insertion into u giving v, or one deletion from u giving
// v.
func editOne(a *alphabet.Alphabet) *Relation {
	subst := HammingAtMost(a, 1)
	ins := insertion(a)
	del := ins.Permute([]int{1, 0})
	r := invariant.Must(subst.Union(ins))
	r = invariant.Must(r.Union(del))
	return r.WithName("edit<=1")
}

// insertion returns {(u, v) : v is u with exactly one symbol inserted}.
func insertion(a *alphabet.Alphabet) *Relation {
	// States: 0 = before the insertion point; pending(a) = the insertion
	// happened, u's symbol a is buffered one position behind v; done = u has
	// ended and the buffered symbol was flushed.
	n := a.Size()
	nfa := automata.NewNFA[string](n + 2)
	pre := 0
	pending := func(s alphabet.Symbol) int { return 1 + int(s) }
	done := n + 1
	nfa.SetStart(pre, true)
	nfa.SetAccept(done, true)
	for _, s := range a.Symbols() {
		// Common prefix.
		nfa.AddTransition(pre, alphabet.Tuple{s, s}.Key(), pre)
		// Insertion happens here: v reads the inserted symbol x while u's
		// symbol s becomes pending.
		for _, x := range a.Symbols() {
			nfa.AddTransition(pre, alphabet.Tuple{s, x}.Key(), pending(s))
		}
		// Insertion at the very end of u: u pads, v reads the new symbol.
		nfa.AddTransition(pre, alphabet.Tuple{alphabet.Pad, s}.Key(), done)
	}
	for _, s := range a.Symbols() {
		for _, s2 := range a.Symbols() {
			// v must now read the pending symbol s; u's new symbol s2 is
			// buffered in turn.
			nfa.AddTransition(pending(s), alphabet.Tuple{s2, s}.Key(), pending(s2))
		}
		// u ends; v flushes the last pending symbol.
		nfa.AddTransition(pending(s), alphabet.Tuple{alphabet.Pad, s}.Key(), done)
	}
	return explicit(a, 2, nfa, "insert1")
}

// MaxEditCompositionStates bounds the d-fold composition EditDistanceAtMost
// builds: the distance-1 automaton of s = 2|A|+6 states composed with itself
// d times has up to s^d states before it is minimised, and determinising it
// is exponential in that. A bound past it is refused before any of the work
// is done. d ≤ 2 is built over up to 4 symbols (196 states, 80 ms), d = 3
// over none (1 000 states over 2 symbols took 1.5 s, d = 4 minutes).
const MaxEditCompositionStates = 200

// LimitError is what a relation builder returns instead of building an
// automaton past a fixed size.
type LimitError struct {
	Relation string // the relation asked for, e.g. "edit<=7"
	Symbols  int    // the alphabet size it was asked over
	Limit    int
	Unit     string // what Limit counts
}

func (e *LimitError) Error() string {
	return fmt.Sprintf("synchro: %s over %d symbols would exceed %d %s", e.Relation, e.Symbols, e.Limit, e.Unit)
}

// EditDistanceAtMost returns the binary relation of words at Levenshtein
// distance at most d, built as the d-fold composition of the distance-1
// relation (synchronous relations are closed under composition). The
// construction is exponential in d: past MaxEditCompositionStates it
// returns a *LimitError (the paper's own example uses a constant,
// "edit-distance at most 14", which is out of reach of this construction).
func EditDistanceAtMost(a *alphabet.Alphabet, d int) (*Relation, error) {
	if d < 0 {
		return nil, fmt.Errorf("synchro: negative edit distance bound %d", d)
	}
	if d == 0 {
		return Equality(a, 2).WithName("edit<=0"), nil
	}
	step := editOne(a)
	s, _ := step.Size()
	for i, states := 1, s; i < d; i++ {
		if states *= s; states > MaxEditCompositionStates {
			return nil, &LimitError{Relation: fmt.Sprintf("edit<=%d", d), Symbols: a.Size(),
				Limit: MaxEditCompositionStates, Unit: "states in its composition"}
		}
	}
	cur := step
	for i := 1; i < d; i++ {
		next, err := cur.Compose(step)
		if err != nil {
			return nil, err
		}
		cur = next.Minimized()
	}
	return cur.WithName(fmt.Sprintf("edit<=%d", d)), nil
}

// Minimized returns an equivalent relation with a determinized+minimized
// underlying automaton (useful to tame composition growth). Its states are
// numbered canonically, so the same relation minimises to the same Format
// text (and Fingerprint) however the maps it was built through iterate.
// Universal relations are returned unchanged.
func (r *Relation) Minimized() *Relation {
	if r.universal {
		return r
	}
	min := canonicalNumbering(r.nfa.Determinize().Minimize().ToNFA())
	return explicit(r.alpha, r.arity, min, r.name)
}

// canonicalNumbering renumbers an automaton whose states are all reachable
// from its start states in breadth-first order, start states first and
// letters in key order: two isomorphic deterministic automata (a minimal DFA
// is unique up to isomorphism) come out identical.
func canonicalNumbering(nfa *automata.NFA[string]) *automata.NFA[string] {
	num := make([]int, nfa.NumStates())
	for q := range num {
		num[q] = -1
	}
	order := nfa.StartStates()
	for i, q := range order {
		num[q] = i
	}
	var letters []string
	for i := 0; i < len(order); i++ {
		letters = letters[:0]
		nfa.OutLetters(order[i], func(l string) { letters = append(letters, l) })
		sort.Strings(letters)
		for _, l := range letters {
			for _, q := range nfa.Successors(order[i], l) {
				if num[q] < 0 {
					num[q] = len(order)
					order = append(order, q)
				}
			}
		}
	}
	out := automata.NewNFA[string](len(order))
	for i, q := range order {
		out.SetStart(i, nfa.IsStart(q))
		out.SetAccept(i, nfa.IsAccept(q))
	}
	nfa.Transitions(func(p int, l string, q int) {
		if num[p] >= 0 && num[q] >= 0 {
			out.AddTransition(num[p], l, num[q])
		}
	})
	return out
}
