// Package synchro implements synchronous word relations (also known as
// regular or automatic relations), the relation class underlying ECRPQ
// (Section 2 of the paper).
//
// A k-ary relation R ⊆ (A*)^k is synchronous when the language of
// convolutions { w1 ⊗ ... ⊗ wk : (w1,...,wk) ∈ R } is regular over the
// alphabet (A ∪ {⊥})^k. Relations are represented by NFAs whose letters are
// packed convolution tuples (alphabet.Tuple.Key). The class is closed under
// all Boolean operations, cylindrification, projection, permutation and
// composition — all implemented here — and has decidable emptiness and
// membership.
package synchro

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"ecrpq/internal/alphabet"
	"ecrpq/internal/automata"
	"ecrpq/internal/invariant"
)

// Relation is a k-ary synchronous relation over an alphabet.
//
// A Relation may be flagged universal, meaning (A*)^k; universal relations
// of large arity are kept symbolic because materializing their convolution
// NFA would need (|A|+1)^k letters.
type Relation struct {
	arity     int
	alpha     *alphabet.Alphabet
	nfa       *automata.NFA[string] // letters: alphabet.Tuple.Key(); nil iff universal
	universal bool
	name      string
	fp        string // Fingerprint, when Fingerprinted set it; "" = compute on demand
}

// maxMaterializeLetters bounds (|A|+1)^k when a universal relation must be
// converted to an explicit NFA for a Boolean operation.
const maxMaterializeLetters = 1 << 16

// FromNFA wraps an NFA over packed convolution tuples as a k-ary relation.
// Every letter must decode to a k-tuple over A ∪ {⊥} that is not all-⊥.
func FromNFA(a *alphabet.Alphabet, arity int, nfa *automata.NFA[string]) (*Relation, error) {
	if arity < 1 {
		return nil, fmt.Errorf("synchro: arity %d < 1", arity)
	}
	if err := nfa.Validate(); err != nil {
		return nil, err
	}
	var bad error
	nfa.Transitions(func(p int, l string, q int) {
		if bad != nil {
			return
		}
		t, err := alphabet.TupleFromKey(l)
		if err != nil {
			bad = err
			return
		}
		if len(t) != arity {
			bad = fmt.Errorf("synchro: letter %v has %d tracks, want %d", t, len(t), arity)
			return
		}
		allPad := true
		for _, s := range t {
			if s == alphabet.Pad {
				continue
			}
			allPad = false
			if !a.Contains(s) {
				bad = fmt.Errorf("synchro: letter %v uses symbol outside alphabet", t)
				return
			}
		}
		if allPad {
			bad = fmt.Errorf("synchro: all-padding letter")
		}
	})
	if bad != nil {
		return nil, bad
	}
	return &Relation{arity: arity, alpha: a, nfa: nfa}, nil
}

// MustFromNFA is FromNFA, panicking on error.
func MustFromNFA(a *alphabet.Alphabet, arity int, nfa *automata.NFA[string]) *Relation {
	return invariant.Must(FromNFA(a, arity, nfa))
}

// Arity returns the number of tracks of the relation.
func (r *Relation) Arity() int { return r.arity }

// Alphabet returns the relation's base alphabet.
func (r *Relation) Alphabet() *alphabet.Alphabet { return r.alpha }

// IsUniversal reports whether the relation is flagged as (A*)^k.
func (r *Relation) IsUniversal() bool { return r.universal }

// Name returns the optional human-readable name set by WithName.
func (r *Relation) Name() string { return r.name }

// WithName returns the same relation carrying a display name. The name is
// part of the Format text, so the copy does not keep a fingerprint.
func (r *Relation) WithName(name string) *Relation {
	r2 := *r
	r2.name = name
	r2.fp = ""
	return &r2
}

// Fingerprint is the hex of the first 8 bytes of the SHA-256 of the
// relation's Format text: what a canonical query text names the relation
// by, so that two relations under one name key apart unless their automata
// print alike. A relation made by Fingerprinted returns the digest it
// carries; any other computes it.
func (r *Relation) Fingerprint() string {
	if r.fp != "" {
		return r.fp
	}
	sum := sha256.Sum256([]byte(r.FormatString()))
	return hex.EncodeToString(sum[:8])
}

// Fingerprinted returns a copy of the relation that carries its
// Fingerprint, for a relation shared by many queries and never written to
// (what internal/query's relation intern hands out).
func (r *Relation) Fingerprinted() *Relation {
	r2 := *r
	r2.fp = r.Fingerprint()
	return &r2
}

// NFA returns the underlying automaton over packed convolution tuples.
// For symbolic universal relations it materializes one (and errors if the
// letter blowup (|A|+1)^k would be too large).
func (r *Relation) NFA() (*automata.NFA[string], error) {
	if !r.universal {
		return r.nfa, nil
	}
	return universalNFA(r.alpha, r.arity)
}

// RawNFA returns the automaton if the relation is explicit, nil if symbolic
// universal.
func (r *Relation) RawNFA() *automata.NFA[string] { return r.nfa }

func universalNFA(a *alphabet.Alphabet, k int) (*automata.NFA[string], error) {
	count := 1
	for i := 0; i < k; i++ {
		count *= a.Size() + 1
		if count > maxMaterializeLetters {
			return nil, fmt.Errorf("synchro: cannot materialize universal relation of arity %d over %d symbols", k, a.Size())
		}
	}
	// One state, self-loop on every non-all-pad tuple. Invalid convolutions
	// are harmless: no word tuple convolves to them.
	nfa := automata.NewNFA[string](1)
	nfa.SetStart(0, true)
	nfa.SetAccept(0, true)
	for _, t := range alphabet.AllTuples(a, k) {
		nfa.AddTransition(0, t.Key(), 0)
	}
	return nfa, nil
}

// materialized returns an explicit-NFA version of the relation.
func (r *Relation) materialized() (*Relation, error) {
	if !r.universal {
		return r, nil
	}
	nfa, err := universalNFA(r.alpha, r.arity)
	if err != nil {
		return nil, err
	}
	return &Relation{arity: r.arity, alpha: r.alpha, nfa: nfa, name: r.name}, nil
}

// Contains reports whether the tuple of words is in the relation. The number
// of words must equal the arity.
func (r *Relation) Contains(words ...alphabet.Word) (bool, error) {
	if len(words) != r.arity {
		return false, fmt.Errorf("synchro: %d words for arity-%d relation", len(words), r.arity)
	}
	for i, w := range words {
		if !w.Valid(r.alpha) {
			return false, fmt.Errorf("synchro: word %d uses symbols outside the alphabet", i)
		}
	}
	if r.universal {
		return true, nil
	}
	conv := alphabet.Convolve(words...)
	letters := make([]string, len(conv))
	for i, t := range conv {
		letters[i] = t.Key()
	}
	return r.nfa.Accepts(letters), nil
}

// MustContain is Contains, panicking on error.
func (r *Relation) MustContain(words ...alphabet.Word) bool {
	return invariant.Must(r.Contains(words...))
}

// IsEmpty reports whether the relation contains no tuple. When non-empty it
// returns a witness tuple of words. The check intersects with the
// valid-convolution condition on the fly (tracking which tracks have
// finished), so it is exact even if the underlying NFA accepts junk words
// that are not valid convolutions.
func (r *Relation) IsEmpty() ([]alphabet.Word, bool) {
	if r.universal {
		words := make([]alphabet.Word, r.arity)
		for i := range words {
			words[i] = alphabet.Word{}
		}
		return words, false
	}
	type st struct {
		q    int
		mask uint64 // finished tracks (only low `arity` bits used)
	}
	if r.arity > 64 {
		// Fall back to ignoring the validity product for extreme arities.
		letters, empty := r.nfa.IsEmpty()
		if empty {
			return nil, true
		}
		return r.decodeWitness(letters)
	}
	type pred struct {
		prev   int
		letter string
		hasLtr bool
	}
	var states []st
	preds := []pred{}
	idx := make(map[st]int)
	push := func(s st, p pred) int {
		if i, ok := idx[s]; ok {
			return i
		}
		i := len(states)
		idx[s] = i
		states = append(states, s)
		preds = append(preds, p)
		return i
	}
	for _, q := range r.nfa.StartStates() {
		push(st{q, 0}, pred{prev: -1})
	}
	goal := -1
	for i := 0; i < len(states) && goal < 0; i++ {
		cur := states[i]
		if r.nfa.IsAccept(cur.q) {
			goal = i
			break
		}
		r.nfa.OutLetters(cur.q, func(l string) {
			if goal >= 0 {
				return
			}
			t, err := alphabet.TupleFromKey(l)
			if err != nil {
				return
			}
			mask := cur.mask
			ok := true
			for track, s := range t {
				if s == alphabet.Pad {
					mask |= 1 << uint(track)
				} else if cur.mask&(1<<uint(track)) != 0 {
					ok = false // resumed after padding: invalid convolution
					break
				}
			}
			if !ok {
				return
			}
			for _, q2 := range r.nfa.Successors(cur.q, l) {
				push(st{q2, mask}, pred{prev: i, letter: l, hasLtr: true})
			}
		})
	}
	if goal < 0 {
		return nil, true
	}
	var rev []string
	for i := goal; preds[i].prev >= 0; i = preds[i].prev {
		if preds[i].hasLtr {
			rev = append(rev, preds[i].letter)
		}
	}
	letters := make([]string, len(rev))
	for i := range rev {
		letters[i] = rev[len(rev)-1-i]
	}
	return r.decodeWitness(letters)
}

func (r *Relation) decodeWitness(letters []string) ([]alphabet.Word, bool) {
	tuples := make([]alphabet.Tuple, len(letters))
	for i, l := range letters {
		t, err := alphabet.TupleFromKey(l)
		if err != nil {
			return nil, true
		}
		tuples[i] = t
	}
	words, err := alphabet.Deconvolve(r.arity, tuples)
	if err != nil {
		return nil, true
	}
	return words, false
}

// Size returns the number of states and transitions of the underlying NFA
// (0, 0 for symbolic universal relations).
func (r *Relation) Size() (states, transitions int) {
	if r.universal {
		return 0, 0
	}
	return r.nfa.NumStates(), r.nfa.NumTransitions()
}

// String renders a short description.
func (r *Relation) String() string {
	n := r.name
	if n == "" {
		n = "rel"
	}
	if r.universal {
		return fmt.Sprintf("%s[arity=%d, universal]", n, r.arity)
	}
	s, tr := r.Size()
	return fmt.Sprintf("%s[arity=%d, states=%d, trans=%d]", n, r.arity, s, tr)
}

// tupleTransitions iterates transitions of an explicit relation NFA from
// state q, decoding letters. Panics on malformed letters (excluded by
// FromNFA).
func tupleTransitions(nfa *automata.NFA[string], q int, f func(t alphabet.Tuple, to int)) {
	nfa.OutLetters(q, func(l string) {
		t, err := alphabet.TupleFromKey(l)
		invariant.NoError(err, "synchro: malformed letter key")
		for _, to := range nfa.Successors(q, l) {
			f(t, to)
		}
	})
}
