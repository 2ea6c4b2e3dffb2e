// Package synchro implements synchronous word relations (also known as
// regular or automatic relations), the relation class underlying ECRPQ
// (Section 2 of the paper).
//
// A k-ary relation R ⊆ (A*)^k is synchronous when the language of
// convolutions { w1 ⊗ ... ⊗ wk : (w1,...,wk) ∈ R } is regular over the
// alphabet (A ∪ {⊥})^k. A relation is built and combined as an NFA whose
// letters are packed convolution tuples (alphabet.Tuple.Key), and read as a
// Table: the same automaton with integer states and symbol-tuple letters,
// decoded once per relation. The Lemma 4.1 merge (Merge, Join) runs on
// Tables alone. The class is closed under all Boolean operations,
// cylindrification, projection, permutation and composition — all
// implemented here — and has decidable emptiness and membership.
package synchro

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"sync"

	"ecrpq/internal/alphabet"
	"ecrpq/internal/automata"
	"ecrpq/internal/invariant"
	"ecrpq/internal/rowset"
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
	fp        string        // Fingerprint, when Fingerprinted set it; "" = compute on demand
	table     func() *Table // the decoded nfa, built on first call and shared by every copy; nil iff universal
}

// explicit wraps an automaton over packed tuples as a relation whose Table
// is decoded on first use, once for it and every copy made of it.
func explicit(a *alphabet.Alphabet, arity int, nfa *automata.NFA[string], name string) *Relation {
	return &Relation{arity: arity, alpha: a, nfa: nfa, name: name,
		table: sync.OnceValue(func() *Table { return invariant.Must(decodeTable(arity, nfa)) })}
}

// Table is a relation's automaton as the product kernels walk it: states
// 0 … NumStates-1, the start states in increasing order, and per state its
// transitions with letters decoded to symbol tuples, sorted by (tuple,
// target) so that the order in which a search meets states is a function
// of the automaton alone. A Table is never written after it is built and
// is shared by every reader, concurrently.
type Table struct {
	Arity  int
	Starts []int
	Accept []bool
	Trans  [][]Transition
}

// Transition is one move of a Table: read the joint letter Tuple, go to To.
type Transition struct {
	Tuple alphabet.Tuple
	To    int
}

// NumStates returns the number of states.
func (t *Table) NumStates() int { return len(t.Accept) }

// NumTransitions returns the number of transitions.
func (t *Table) NumTransitions() int {
	n := 0
	for _, trs := range t.Trans {
		n += len(trs)
	}
	return n
}

// decodeTable decodes each letter of nfa once, failing on a letter that is
// no arity-tuple.
func decodeTable(arity int, nfa *automata.NFA[string]) (*Table, error) {
	n := nfa.NumStates()
	t := &Table{arity, nfa.StartStates(), make([]bool, n), make([][]Transition, n)}
	var err error
	for q := range t.Trans {
		t.Accept[q] = nfa.IsAccept(q)
		nfa.OutLetters(q, func(l string) {
			tuple, bad := alphabet.TupleFromKey(l)
			if bad == nil && len(tuple) != arity {
				bad = fmt.Errorf("synchro: letter %v has %d tracks, want %d", tuple, len(tuple), arity)
			}
			err = cmp.Or(err, bad)
			for _, to := range nfa.Successors(q, l) {
				t.Trans[q] = append(t.Trans[q], Transition{tuple, to})
			}
		})
		slices.SortFunc(t.Trans[q], compareTransitions)
	}
	return t, err
}

func compareTransitions(a, b Transition) int {
	return cmp.Or(slices.Compare(a.Tuple, b.Tuple), cmp.Compare(a.To, b.To))
}

// nfa encodes the table's letters as packed tuples.
func (t *Table) nfa() *automata.NFA[string] {
	nfa := automata.NewNFA[string](t.NumStates())
	for _, q := range t.Starts {
		nfa.SetStart(q, true)
	}
	for q, trs := range t.Trans {
		nfa.SetAccept(q, t.Accept[q])
		for _, tr := range trs {
			nfa.AddTransition(q, tr.Tuple.Key(), tr.To)
		}
	}
	return nfa
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
	t, err := decodeTable(arity, nfa)
	if err != nil {
		return nil, err
	}
	for _, trs := range t.Trans {
		for _, tr := range trs {
			if !slices.ContainsFunc(tr.Tuple, func(s alphabet.Symbol) bool { return s != alphabet.Pad }) {
				return nil, fmt.Errorf("synchro: all-padding letter")
			}
			if slices.ContainsFunc(tr.Tuple, func(s alphabet.Symbol) bool { return s != alphabet.Pad && !a.Contains(s) }) {
				return nil, fmt.Errorf("synchro: letter %v uses symbol outside alphabet", tr.Tuple)
			}
		}
	}
	return &Relation{arity: arity, alpha: a, nfa: nfa, table: func() *Table { return t }}, nil
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

// Table returns the relation's decoded automaton if the relation is
// explicit, nil if symbolic universal: decoded by the first call on the
// relation or on any copy WithName or Fingerprinted made of it.
func (r *Relation) Table() *Table {
	if r.universal {
		return nil
	}
	return r.table()
}

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

// IsEmpty reports whether the relation contains no tuple. When non-empty it
// returns a witness tuple of words.
func (r *Relation) IsEmpty() ([]alphabet.Word, bool) {
	if r.universal {
		words := make([]alphabet.Word, r.arity)
		for i := range words {
			words[i] = alphabet.Word{}
		}
		return words, false
	}
	return r.Table().IsEmpty()
}

// IsEmpty reports whether the table accepts no tuple of words and, when it
// accepts one, returns a shortest. The search intersects with the
// valid-convolution condition on the fly (tracking which tracks have
// finished), so it is exact even if the table accepts junk words that are
// not valid convolutions; past 64 tracks it does not track them.
func (t *Table) IsEmpty() ([]alphabet.Word, bool) {
	type node struct {
		q     int
		mask  uint64 // finished tracks
		prev  int    // the node this one was reached from, -1 for a start
		tuple alphabet.Tuple
	}
	var nodes []node
	seen := rowset.New(3, 32) // (state, finished tracks' low and high halves)
	push := func(n node) {
		if _, fresh := seen.Add([]int32{int32(n.q), int32(n.mask), int32(n.mask >> 32)}); fresh {
			nodes = append(nodes, n)
		}
	}
	for _, q := range t.Starts {
		push(node{q: q, prev: -1})
	}
	for i := 0; i < len(nodes); i++ {
		cur := nodes[i]
		if t.Accept[cur.q] {
			var tuples []alphabet.Tuple
			for j := i; nodes[j].prev >= 0; j = nodes[j].prev {
				tuples = append(tuples, nodes[j].tuple)
			}
			slices.Reverse(tuples)
			words, err := alphabet.Deconvolve(t.Arity, tuples)
			return words, err != nil
		}
	next:
		for _, tr := range t.Trans[cur.q] {
			mask := cur.mask
			for track, s := range tr.Tuple[:min(t.Arity, 64)] {
				if s == alphabet.Pad {
					mask |= 1 << uint(track)
				} else if cur.mask&(1<<uint(track)) != 0 {
					continue next // resumed after padding: invalid convolution
				}
			}
			push(node{tr.To, mask, i, tr.Tuple})
		}
	}
	return nil, true
}

// Size returns the number of states and transitions of the underlying NFA
// (0, 0 for symbolic universal relations).
func (r *Relation) Size() (states, transitions int) {
	if r.universal {
		return 0, 0
	}
	t := r.Table()
	return t.NumStates(), t.NumTransitions()
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
