package synchro

import (
	"context"
	"fmt"
	"math/bits"
	"slices"

	"ecrpq/internal/alphabet"
	"ecrpq/internal/rowset"
)

// Join implements the product construction of Lemma 4.1: given relations
// R_1, ..., R_ℓ and, for each, a mapping vars[i] of its tracks into a merged
// track set {0, ..., arity-1}, it builds the arity-ary relation R such that
// for every assignment f of words to merged tracks,
//
//	f|vars[1] ∈ R_1 ∧ ... ∧ f|vars[ℓ] ∈ R_ℓ  ⇔  f ∈ R.
//
// The state space is the product Q_1 × ... × Q_ℓ; acceptance requires every
// component to accept (exactly the paper's construction). Universal
// relations contribute no constraint and no state-space factor. Merged
// tracks covered by no (non-universal) relation range freely over A ∪ {⊥};
// each such track multiplies the joint letter count by |A|+1, so a guard
// rejects joins with more than a few free tracks. The relation's automaton
// is Merge's table.
func Join(a *alphabet.Alphabet, arity int, rels []*Relation, vars [][]int) (*Relation, error) {
	j, err := newJoin(a, arity, rels, vars)
	if err != nil {
		return nil, err
	}
	if len(j.tabs) == 0 {
		return Universal(a, arity), nil
	}
	t, err := j.product(context.Background(), nil)
	if err != nil {
		return nil, err
	}
	return &Relation{arity: arity, alpha: a, nfa: t.nfa(), name: "join", table: func() *Table { return t }}, nil
}

// Merge is Join's product as the kernels walk it: the trimmed table of the
// merged relation, built over the input relations' tables. Every
// mergeCheckInterval states it discovers it checks ctx and passes grow
// (when not nil) the number of states discovered since the last call; an
// error from either ends the merge and is returned.
func Merge(ctx context.Context, a *alphabet.Alphabet, arity int, rels []*Relation, vars [][]int, grow func(states int) error) (*Table, error) {
	j, err := newJoin(a, arity, rels, vars)
	if err != nil {
		return nil, err
	}
	return j.product(ctx, grow)
}

// mergeCheckInterval is how many product states Merge discovers between
// polls of its context and calls of grow.
const mergeCheckInterval = 1024

// join is a validated Lemma 4.1 product: the non-universal relations'
// tables and where their tracks go.
type join struct {
	alpha *alphabet.Alphabet
	arity int
	tabs  []*Table
	vars  [][]int
	// owns[i][k] marks the first relation to cover merged track vars[i][k]:
	// it writes that track's symbol of the joint letter, and every later
	// relation on the track compares with it.
	owns [][]bool
	free []int // merged tracks no relation covers
}

func newJoin(a *alphabet.Alphabet, arity int, rels []*Relation, vars [][]int) (*join, error) {
	if len(rels) != len(vars) {
		return nil, fmt.Errorf("synchro: %d relations but %d variable maps", len(rels), len(vars))
	}
	j := &join{alpha: a, arity: arity}
	covered := make([]bool, arity)
	for i, r := range rels {
		if len(vars[i]) != r.arity {
			return nil, fmt.Errorf("synchro: relation %d has arity %d but %d variables", i, r.arity, len(vars[i]))
		}
		for k, v := range vars[i] {
			if v < 0 || v >= arity {
				return nil, fmt.Errorf("synchro: relation %d refers to merged track %d out of range", i, v)
			}
			if slices.Contains(vars[i][:k], v) {
				return nil, fmt.Errorf("synchro: relation %d uses merged track %d twice", i, v)
			}
		}
		if r.alpha != a && r.alpha.Size() != a.Size() {
			// Different alphabet object: require identical symbol sets.
			return nil, fmt.Errorf("synchro: relation %d over a different alphabet", i)
		}
		if r.universal {
			continue
		}
		own := make([]bool, len(vars[i]))
		for k, v := range vars[i] {
			own[k], covered[v] = !covered[v], true
		}
		j.tabs = append(j.tabs, r.Table())
		j.vars = append(j.vars, vars[i])
		j.owns = append(j.owns, own)
	}
	for t, c := range covered {
		if !c {
			j.free = append(j.free, t)
		}
	}
	return j, nil
}

// product runs the construction breadth-first from the combinations of
// start states. A product state is a row of component states, numbered in
// order of first sight by a rowset.Set.
func (j *join) product(ctx context.Context, grow func(states int) error) (*Table, error) {
	freeChoices := 1
	for range j.free {
		freeChoices *= j.alpha.Size() + 1
		if freeChoices > maxMaterializeLetters {
			return nil, fmt.Errorf("synchro: join leaves %d unconstrained tracks; letter blowup too large", len(j.free))
		}
	}
	ell, width := len(j.tabs), 0
	for _, t := range j.tabs {
		width = max(width, bits.Len(uint(max(t.NumStates(), 1)-1)))
	}
	b := &builder{join: j, states: rowset.New(ell, width), next: make([]int32, ell), joint: make(alphabet.Tuple, j.arity)}
	for range j.arity {
		b.pads = append(b.pads, alphabet.Pad)
	}
	var starts func(i int)
	starts = func(i int) {
		if i == ell {
			b.states.Add(b.next)
			return
		}
		for _, q := range j.tabs[i].Starts {
			b.next[i] = int32(q)
			starts(i + 1)
		}
	}
	starts(0)
	nStarts, charged := b.states.Len(), 0
	for s := 0; s < b.states.Len(); s++ {
		if n := b.states.Len(); n-charged >= mergeCheckInterval {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if grow != nil {
				if err := grow(n - charged); err != nil {
					return nil, err
				}
			}
			charged = n
		}
		b.off = append(b.off, int32(len(b.to)))
		b.cur = b.states.Row(int32(s))
		b.emit(0)
	}
	b.off = append(b.off, int32(len(b.to)))
	return b.trim(nStarts), nil
}

// builder holds a product under construction. The transitions of state s
// are to[off[s]:off[s+1]], their letters arity symbols each in syms.
type builder struct {
	*join
	states *rowset.Set // the component states of each product state
	cur    []int32     // the component states of the state being expanded
	next   []int32
	joint  alphabet.Tuple
	pads   alphabet.Tuple // the stall's letter
	syms   []alphabet.Symbol
	to     []int32
	off    []int32
}

// accepts reports whether product state p accepts: every component does.
func (b *builder) accepts(p int) bool {
	for i, q := range b.states.Row(int32(p)) {
		if !b.tabs[i].Accept[q] {
			return false
		}
	}
	return true
}

// emit extends the joint letter with a move of relation i and of every
// later one: each transition consistent with the symbols the earlier
// relations chose, then the stall.
func (b *builder) emit(i int) {
	if i == len(b.tabs) {
		b.fill(0)
		return
	}
	for _, tr := range b.tabs[i].Trans[b.cur[i]] {
		if b.consistent(i, tr.Tuple) {
			b.next[i] = int32(tr.To)
			b.emit(i + 1)
		}
	}
	// Stall: relation i has finished (all of its tracks are padded from
	// here on). Its words' convolution is a strict prefix of the joint
	// convolution, so the automaton stays in place; the final state must
	// still be accepting for the joint word to be accepted.
	if b.consistent(i, b.pads) {
		b.next[i] = b.cur[i]
		b.emit(i + 1)
	}
}

// consistent writes relation i's letter t into the tracks it owns and
// reports whether it agrees with the joint letter on the others.
func (b *builder) consistent(i int, t alphabet.Tuple) bool {
	for k, mt := range b.vars[i] {
		if b.owns[i][k] {
			b.joint[mt] = t[k]
		} else if b.joint[mt] != t[k] {
			return false
		}
	}
	return true
}

// fill gives the free tracks from f on every choice in A ∪ {⊥} and records
// each joint letter but the all-pad one.
func (b *builder) fill(f int) {
	if f < len(b.free) {
		b.joint[b.free[f]] = alphabet.Pad
		b.fill(f + 1)
		for _, s := range b.alpha.Symbols() {
			b.joint[b.free[f]] = s
			b.fill(f + 1)
		}
		return
	}
	if !slices.ContainsFunc(b.joint, func(s alphabet.Symbol) bool { return s != alphabet.Pad }) {
		return
	}
	id, _ := b.states.Add(b.next)
	b.to = append(b.to, id)
	b.syms = append(b.syms, b.joint...)
}

// trim keeps the states from which an accepting state is reachable (every
// state is reachable from a start), renumbered in order, and lays their
// transitions out as the merged Table.
func (b *builder) trim(nStarts int) *Table {
	n := b.states.Len()
	// The sources of the transitions into q are src[in[q]:in[q+1]].
	in := make([]int32, n+1)
	for _, q := range b.to {
		in[q+1]++
	}
	for q := range n {
		in[q+1] += in[q]
	}
	src, at := make([]int32, len(b.to)), slices.Clone(in)
	for p := range n {
		for _, q := range b.to[b.off[p]:b.off[p+1]] {
			src[at[q]], at[q] = int32(p), at[q]+1
		}
	}
	id := make([]int, n) // 1 + the new number of a kept state, 0 for a dropped one
	var stack []int32
	for q := range n {
		if b.accepts(q) {
			id[q], stack = 1, append(stack, int32(q))
		}
	}
	for len(stack) > 0 {
		q := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range src[in[q]:in[q+1]] {
			if id[p] == 0 {
				id[p], stack = 1, append(stack, p)
			}
		}
	}
	t, transitions := &Table{Arity: b.arity}, 0
	for p := range id {
		if id[p] == 0 {
			continue
		}
		if t.Accept = append(t.Accept, b.accepts(p)); p < nStarts {
			t.Starts = append(t.Starts, len(t.Accept)-1)
		}
		id[p] = len(t.Accept)
		for _, q := range b.to[b.off[p]:b.off[p+1]] {
			transitions += min(id[q], 1)
		}
	}
	// Letters stay in b.syms; each transition's tuple is a capped window on it.
	flat, w := make([]Transition, 0, transitions), b.arity
	for p := range id {
		if id[p] == 0 {
			continue
		}
		from := len(flat)
		for k := int(b.off[p]); k < int(b.off[p+1]); k++ {
			if q := b.to[k]; id[q] != 0 {
				flat = append(flat, Transition{b.syms[k*w : (k+1)*w : (k+1)*w], id[q] - 1})
			}
		}
		t.Trans = append(t.Trans, flat[from:len(flat):len(flat)])
		slices.SortFunc(t.Trans[len(t.Trans)-1], compareTransitions)
	}
	return t
}
