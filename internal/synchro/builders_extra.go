package synchro

import (
	"ecrpq/internal/alphabet"
	"ecrpq/internal/automata"
)

// ShorterThan returns the binary relation {(u, v) : |u| < |v|}.
func ShorterThan(a *alphabet.Alphabet) *Relation {
	// State 0: both running; state 1: u has ended and v read ≥ 1 more.
	nfa := automata.NewNFA[string](2)
	nfa.SetStart(0, true)
	nfa.SetAccept(1, true)
	for _, s1 := range a.Symbols() {
		for _, s2 := range a.Symbols() {
			nfa.AddTransition(0, alphabet.Tuple{s1, s2}.Key(), 0)
		}
	}
	for _, s := range a.Symbols() {
		nfa.AddTransition(0, alphabet.Tuple{alphabet.Pad, s}.Key(), 1)
		nfa.AddTransition(1, alphabet.Tuple{alphabet.Pad, s}.Key(), 1)
	}
	return explicit(a, 2, nfa, "shorter")
}

// LexLeq returns the binary relation {(u, v) : u ≤ v in length-lexicographic
// ... no: in plain lexicographic order induced by the alphabet's symbol
// order, where a proper prefix precedes its extensions}.
func LexLeq(a *alphabet.Alphabet) *Relation {
	// State 0: equal so far. From 0:
	//   (s, s)       → 0   (still equal)
	//   (s1, s2)     → 1   if s1 < s2 (decided: u < v; rest arbitrary)
	//   (⊥, s)       → 1   (u is a proper prefix of v)
	// State 1: decided, both tracks free (any symbols or pads, monotone pads
	// are enforced by the evaluator).
	nfa := automata.NewNFA[string](2)
	nfa.SetStart(0, true)
	nfa.SetAccept(0, true) // u == v
	nfa.SetAccept(1, true)
	for _, s := range a.Symbols() {
		nfa.AddTransition(0, alphabet.Tuple{s, s}.Key(), 0)
		nfa.AddTransition(0, alphabet.Tuple{alphabet.Pad, s}.Key(), 1)
	}
	for _, s1 := range a.Symbols() {
		for _, s2 := range a.Symbols() {
			if s1 < s2 {
				nfa.AddTransition(0, alphabet.Tuple{s1, s2}.Key(), 1)
			}
			nfa.AddTransition(1, alphabet.Tuple{s1, s2}.Key(), 1)
		}
	}
	for _, s := range a.Symbols() {
		nfa.AddTransition(1, alphabet.Tuple{s, alphabet.Pad}.Key(), 1)
		nfa.AddTransition(1, alphabet.Tuple{alphabet.Pad, s}.Key(), 1)
	}
	return explicit(a, 2, nfa, "lex<=")
}

// CommonPrefixAtLeast returns the binary relation of word pairs sharing a
// common prefix of length at least k (both words must have length ≥ k).
func CommonPrefixAtLeast(a *alphabet.Alphabet, k int) *Relation {
	// States 0..k count matched prefix positions; state k is accepting and
	// free.
	nfa := automata.NewNFA[string](k + 1)
	nfa.SetStart(0, true)
	nfa.SetAccept(k, true)
	for i := 0; i < k; i++ {
		for _, s := range a.Symbols() {
			nfa.AddTransition(i, alphabet.Tuple{s, s}.Key(), i+1)
		}
	}
	for _, s1 := range a.Symbols() {
		for _, s2 := range a.Symbols() {
			nfa.AddTransition(k, alphabet.Tuple{s1, s2}.Key(), k)
		}
		nfa.AddTransition(k, alphabet.Tuple{s1, alphabet.Pad}.Key(), k)
		nfa.AddTransition(k, alphabet.Tuple{alphabet.Pad, s1}.Key(), k)
	}
	if k == 0 {
		// Every pair qualifies, including empty words.
		nfa.SetAccept(0, true)
	}
	return explicit(a, 2, nfa, "common-prefix>=k")
}

// SameLastSymbol returns the binary relation of non-empty word pairs ending
// with the same symbol.
func SameLastSymbol(a *alphabet.Alphabet) *Relation {
	// Nondeterministically guess the final positions: track states
	// (lastU, lastV) candidates. Simpler synchronous construction: states
	// remember nothing until the ends; guess which letter is each track's
	// last. States: 0 = running; perSym(s) = u ended with s, v still
	// running and must also end with s; symmetric states for v ended first;
	// done = both ended with the same symbol.
	n := a.Size()
	nfa := automata.NewNFA[string](2*n + 2)
	running := 0
	uEnded := func(s alphabet.Symbol) int { return 1 + int(s) }
	vEnded := func(s alphabet.Symbol) int { return 1 + n + int(s) }
	done := 2*n + 1
	nfa.SetStart(running, true)
	nfa.SetAccept(done, true)
	for _, s1 := range a.Symbols() {
		for _, s2 := range a.Symbols() {
			nfa.AddTransition(running, alphabet.Tuple{s1, s2}.Key(), running)
			// Both end now with the same symbol.
			if s1 == s2 {
				nfa.AddTransition(running, alphabet.Tuple{s1, s2}.Key(), done)
			}
		}
	}
	for _, s := range a.Symbols() {
		// u reads its last symbol s while v continues.
		for _, s2 := range a.Symbols() {
			nfa.AddTransition(running, alphabet.Tuple{s, s2}.Key(), uEnded(s))
			nfa.AddTransition(running, alphabet.Tuple{s2, s}.Key(), vEnded(s))
		}
		// While waiting, the other track keeps reading (non-final symbols).
		for _, s2 := range a.Symbols() {
			nfa.AddTransition(uEnded(s), alphabet.Tuple{alphabet.Pad, s2}.Key(), uEnded(s))
			nfa.AddTransition(vEnded(s), alphabet.Tuple{s2, alphabet.Pad}.Key(), vEnded(s))
		}
		// The other track reads its final symbol, which must match.
		nfa.AddTransition(uEnded(s), alphabet.Tuple{alphabet.Pad, s}.Key(), done)
		nfa.AddTransition(vEnded(s), alphabet.Tuple{s, alphabet.Pad}.Key(), done)
	}
	return explicit(a, 2, nfa, "same-last")
}
