// Package automata implements nondeterministic and deterministic finite
// automata over an arbitrary comparable letter type.
//
// The same implementation serves plain regular languages (letters are
// alphabet.Symbol) and synchronous relations (letters are packed convolution
// tuples, see internal/synchro). All classical constructions are provided:
// ε-removal, trimming, product, union, determinization, minimization,
// complementation, emptiness with shortest witnesses, and equivalence.
package automata

import (
	"fmt"

	"ecrpq/internal/invariant"
)

// NFA is a nondeterministic finite automaton with ε-transitions over letters
// of type L. States are dense integers [0, NumStates). The zero value is an
// empty automaton (no states) recognizing the empty language.
type NFA[L comparable] struct {
	start  []bool
	accept []bool
	trans  []map[L][]int
	eps    [][]int
}

// NewNFA returns an empty NFA with n states (none starting or accepting).
func NewNFA[L comparable](n int) *NFA[L] {
	a := &NFA[L]{}
	for i := 0; i < n; i++ {
		a.AddState()
	}
	return a
}

// AddState adds a fresh state and returns its index.
func (a *NFA[L]) AddState() int {
	a.start = append(a.start, false)
	a.accept = append(a.accept, false)
	a.trans = append(a.trans, nil)
	a.eps = append(a.eps, nil)
	return len(a.start) - 1
}

// NumStates returns the number of states.
func (a *NFA[L]) NumStates() int { return len(a.start) }

// NumTransitions returns the number of labelled transitions (excluding ε).
func (a *NFA[L]) NumTransitions() int {
	n := 0
	for _, m := range a.trans {
		for _, tos := range m {
			n += len(tos)
		}
	}
	return n
}

// SetStart marks q as (non-)initial. The state must exist.
func (a *NFA[L]) SetStart(q int, v bool) {
	invariant.Assert(q >= 0 && q < len(a.start), "automata: SetStart with state outside the NFA")
	a.start[q] = v
}

// SetAccept marks q as (non-)accepting. The state must exist.
func (a *NFA[L]) SetAccept(q int, v bool) {
	invariant.Assert(q >= 0 && q < len(a.accept), "automata: SetAccept with state outside the NFA")
	a.accept[q] = v
}

// IsStart reports whether q is initial.
func (a *NFA[L]) IsStart(q int) bool { return a.start[q] }

// IsAccept reports whether q is accepting.
func (a *NFA[L]) IsAccept(q int) bool { return a.accept[q] }

// StartStates returns the initial states in increasing order.
func (a *NFA[L]) StartStates() []int {
	var out []int
	for q, v := range a.start {
		if v {
			out = append(out, q)
		}
	}
	return out
}

// AcceptStates returns the accepting states in increasing order.
func (a *NFA[L]) AcceptStates() []int {
	var out []int
	for q, v := range a.accept {
		if v {
			out = append(out, q)
		}
	}
	return out
}

// AddTransition adds the transition p --l--> q. Duplicate transitions are
// ignored. Both endpoints must be states returned by AddState.
func (a *NFA[L]) AddTransition(p int, l L, q int) {
	invariant.Assert(p >= 0 && p < len(a.trans), "automata: AddTransition source outside the NFA")
	invariant.Assert(q >= 0 && q < len(a.start), "automata: AddTransition target outside the NFA")
	m := a.trans[p]
	if m == nil {
		m = make(map[L][]int)
		a.trans[p] = m
	}
	for _, existing := range m[l] {
		if existing == q {
			return
		}
	}
	m[l] = append(m[l], q)
}

// AddEps adds the ε-transition p --ε--> q. Duplicates are ignored. Both
// endpoints must be states returned by AddState.
func (a *NFA[L]) AddEps(p, q int) {
	invariant.Assert(p >= 0 && p < len(a.eps), "automata: AddEps source outside the NFA")
	invariant.Assert(q >= 0 && q < len(a.start), "automata: AddEps target outside the NFA")
	for _, existing := range a.eps[p] {
		if existing == q {
			return
		}
	}
	a.eps[p] = append(a.eps[p], q)
}

// Transitions calls f for every labelled transition, in unspecified order.
func (a *NFA[L]) Transitions(f func(p int, l L, q int)) {
	for p, m := range a.trans {
		for l, tos := range m {
			for _, q := range tos {
				f(p, l, q)
			}
		}
	}
}

// Successors returns the targets of transitions from p labelled l (excluding
// ε). The returned slice must not be modified. An out-of-range source has
// no successors: a caller-supplied bad state reference is a recoverable
// input error, not an internal invariant.
func (a *NFA[L]) Successors(p int, l L) []int {
	if p < 0 || p >= len(a.trans) || a.trans[p] == nil {
		return nil
	}
	return a.trans[p][l]
}

// OutLetters calls f for each distinct letter labelling some transition out
// of p.
func (a *NFA[L]) OutLetters(p int, f func(l L)) {
	for l := range a.trans[p] {
		f(l)
	}
}

// Clone returns a deep copy of the automaton.
func (a *NFA[L]) Clone() *NFA[L] {
	b := NewNFA[L](a.NumStates())
	copy(b.start, a.start)
	copy(b.accept, a.accept)
	for p, m := range a.trans {
		for l, tos := range m {
			for _, q := range tos {
				b.AddTransition(p, l, q)
			}
		}
	}
	for p, tos := range a.eps {
		for _, q := range tos {
			b.AddEps(p, q)
		}
	}
	return b
}

// epsClosure expands the state set in-place (as a bool slice) to its
// ε-closure and returns the sorted member list.
func (a *NFA[L]) epsClosure(set []bool) []int {
	var stack []int
	for q, in := range set {
		if in {
			stack = append(stack, q)
		}
	}
	for len(stack) > 0 {
		q := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, r := range a.eps[q] {
			if !set[r] {
				set[r] = true
				stack = append(stack, r)
			}
		}
	}
	var out []int
	for q, in := range set {
		if in {
			out = append(out, q)
		}
	}
	return out
}

// Accepts reports whether the automaton accepts the given word, via on-line
// subset simulation with ε-closures.
func (a *NFA[L]) Accepts(word []L) bool {
	if a.NumStates() == 0 {
		return false
	}
	cur := make([]bool, a.NumStates())
	copy(cur, a.start)
	a.epsClosure(cur)
	for _, l := range word {
		next := make([]bool, a.NumStates())
		any := false
		for q, in := range cur {
			if !in {
				continue
			}
			for _, r := range a.Successors(q, l) {
				next[r] = true
				any = true
			}
		}
		if !any {
			return false
		}
		a.epsClosure(next)
		cur = next
	}
	for q, in := range cur {
		if in && a.accept[q] {
			return true
		}
	}
	return false
}

// IsEmpty reports whether the recognized language is empty. If non-empty, it
// also returns a shortest accepted word as witness (which may be the empty
// slice for ε). Automata with ε-transitions are ε-eliminated first so the
// breadth-first layers correspond to word lengths.
func (a *NFA[L]) IsEmpty() (witness []L, empty bool) {
	for _, es := range a.eps {
		if len(es) > 0 {
			return a.RemoveEps().IsEmpty()
		}
	}
	n := a.NumStates()
	if n == 0 {
		return nil, true
	}
	type pred struct {
		from   int
		letter L
		hasLtr bool
	}
	preds := make([]pred, n)
	visited := make([]bool, n)
	var queue []int
	for q := 0; q < n; q++ {
		if a.start[q] {
			visited[q] = true
			queue = append(queue, q)
			preds[q] = pred{from: -1}
		}
	}
	goal := -1
	for i := 0; i < len(queue); i++ {
		q := queue[i]
		if a.accept[q] {
			goal = q
			break
		}
		for _, r := range a.eps[q] {
			if !visited[r] {
				visited[r] = true
				preds[r] = pred{from: q}
				queue = append(queue, r)
			}
		}
		for l, tos := range a.trans[q] {
			for _, r := range tos {
				if !visited[r] {
					visited[r] = true
					preds[r] = pred{from: q, letter: l, hasLtr: true}
					queue = append(queue, r)
				}
			}
		}
	}
	if goal < 0 {
		return nil, true
	}
	var rev []L
	for q := goal; preds[q].from >= 0 || a.start[q]; {
		p := preds[q]
		if p.from < 0 {
			break
		}
		if p.hasLtr {
			rev = append(rev, p.letter)
		}
		q = p.from
	}
	w := make([]L, len(rev))
	for i := range rev {
		w[i] = rev[len(rev)-1-i]
	}
	return w, false
}

// RemoveEps returns an equivalent automaton without ε-transitions.
func (a *NFA[L]) RemoveEps() *NFA[L] {
	n := a.NumStates()
	b := NewNFA[L](n)
	copy(b.start, a.start)
	for q := 0; q < n; q++ {
		set := make([]bool, n)
		set[q] = true
		closure := a.epsClosure(set)
		for _, r := range closure {
			if a.accept[r] {
				b.accept[q] = true
			}
			for l, tos := range a.trans[r] {
				for _, to := range tos {
					b.AddTransition(q, l, to)
				}
			}
		}
	}
	return b
}

// Trim returns the sub-automaton restricted to useful states (reachable from
// a start state and co-reachable to an accepting state), with states
// renumbered. The result recognizes the same language and has no
// ε-transitions if the input had none.
func (a *NFA[L]) Trim() *NFA[L] {
	n := a.NumStates()
	reach := make([]bool, n)
	var stack []int
	for q := 0; q < n; q++ {
		if a.start[q] {
			reach[q] = true
			stack = append(stack, q)
		}
	}
	for len(stack) > 0 {
		q := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, r := range a.eps[q] {
			if !reach[r] {
				reach[r] = true
				stack = append(stack, r)
			}
		}
		for _, tos := range a.trans[q] {
			for _, r := range tos {
				if !reach[r] {
					reach[r] = true
					stack = append(stack, r)
				}
			}
		}
	}
	// Reverse adjacency for co-reachability.
	radj := make([][]int, n)
	for p := 0; p < n; p++ {
		for _, q := range a.eps[p] {
			radj[q] = append(radj[q], p)
		}
		for _, tos := range a.trans[p] {
			for _, q := range tos {
				radj[q] = append(radj[q], p)
			}
		}
	}
	coreach := make([]bool, n)
	stack = stack[:0]
	for q := 0; q < n; q++ {
		if a.accept[q] {
			coreach[q] = true
			stack = append(stack, q)
		}
	}
	for len(stack) > 0 {
		q := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range radj[q] {
			if !coreach[p] {
				coreach[p] = true
				stack = append(stack, p)
			}
		}
	}
	remap := make([]int, n)
	b := &NFA[L]{}
	for q := 0; q < n; q++ {
		if reach[q] && coreach[q] {
			remap[q] = b.AddState()
			b.start[remap[q]] = a.start[q]
			b.accept[remap[q]] = a.accept[q]
		} else {
			remap[q] = -1
		}
	}
	for p := 0; p < n; p++ {
		if remap[p] < 0 {
			continue
		}
		for _, q := range a.eps[p] {
			if remap[q] >= 0 {
				b.AddEps(remap[p], remap[q])
			}
		}
		for l, tos := range a.trans[p] {
			for _, q := range tos {
				if remap[q] >= 0 {
					b.AddTransition(remap[p], l, remap[q])
				}
			}
		}
	}
	return b
}

// Intersect returns the product automaton recognizing L(a) ∩ L(b). Both
// inputs may contain ε-transitions; the product handles them by asynchronous
// interleaving.
func (a *NFA[L]) Intersect(b *NFA[L]) *NFA[L] {
	type pair struct{ p, q int }
	out := &NFA[L]{}
	idx := make(map[pair]int)
	var queue []pair
	get := func(pr pair) int {
		if i, ok := idx[pr]; ok {
			return i
		}
		i := out.AddState()
		idx[pr] = i
		out.accept[i] = a.accept[pr.p] && b.accept[pr.q]
		queue = append(queue, pr)
		return i
	}
	for p := 0; p < a.NumStates(); p++ {
		if !a.start[p] {
			continue
		}
		for q := 0; q < b.NumStates(); q++ {
			if b.start[q] {
				out.start[get(pair{p, q})] = true
			}
		}
	}
	for i := 0; i < len(queue); i++ {
		pr := queue[i]
		from := idx[pr]
		for _, p2 := range a.eps[pr.p] {
			out.AddEps(from, get(pair{p2, pr.q}))
		}
		for _, q2 := range b.eps[pr.q] {
			out.AddEps(from, get(pair{pr.p, q2}))
		}
		for l, tos := range a.trans[pr.p] {
			btos := b.Successors(pr.q, l)
			for _, p2 := range tos {
				for _, q2 := range btos {
					out.AddTransition(from, l, get(pair{p2, q2}))
				}
			}
		}
	}
	return out
}

// Union returns an automaton recognizing L(a) ∪ L(b) (disjoint union of
// state spaces).
func (a *NFA[L]) Union(b *NFA[L]) *NFA[L] {
	out := a.Clone()
	off := out.NumStates()
	for i := 0; i < b.NumStates(); i++ {
		q := out.AddState()
		out.start[q] = b.start[i]
		out.accept[q] = b.accept[i]
	}
	for p := 0; p < b.NumStates(); p++ {
		for _, q := range b.eps[p] {
			out.AddEps(p+off, q+off)
		}
		for l, tos := range b.trans[p] {
			for _, q := range tos {
				out.AddTransition(p+off, l, q+off)
			}
		}
	}
	return out
}

// Determinize returns an equivalent DFA via the subset construction. The
// DFA's letter set is the set of letters occurring in the NFA; it is partial
// (missing transitions mean rejection) unless completed with DFA.Complete.
func (a *NFA[L]) Determinize() *DFA[L] {
	n := a.NumStates()
	d := &DFA[L]{start: -1}
	if n == 0 {
		// Single rejecting start state so the DFA is well-formed.
		d.start = d.AddState(false)
		return d
	}
	key := func(set []bool) string {
		buf := make([]byte, (n+7)/8)
		for q, in := range set {
			if in {
				buf[q/8] |= 1 << (q % 8)
			}
		}
		return string(buf)
	}
	anyAccept := func(set []bool) bool {
		for q, in := range set {
			if in && a.accept[q] {
				return true
			}
		}
		return false
	}
	idx := make(map[string]int)
	var sets [][]bool
	startSet := make([]bool, n)
	copy(startSet, a.start)
	a.epsClosure(startSet)
	d.start = d.AddState(anyAccept(startSet))
	idx[key(startSet)] = d.start
	sets = append(sets, startSet)
	for i := 0; i < len(sets); i++ {
		cur := sets[i]
		// Collect outgoing letters from all member states.
		letters := make(map[L]struct{})
		for q, in := range cur {
			if !in {
				continue
			}
			for l := range a.trans[q] {
				letters[l] = struct{}{}
			}
		}
		for l := range letters {
			next := make([]bool, n)
			any := false
			for q, in := range cur {
				if !in {
					continue
				}
				for _, r := range a.Successors(q, l) {
					next[r] = true
					any = true
				}
			}
			if !any {
				continue
			}
			a.epsClosure(next)
			k := key(next)
			j, ok := idx[k]
			if !ok {
				j = d.AddState(anyAccept(next))
				idx[k] = j
				sets = append(sets, next)
			}
			d.SetTransition(i, l, j)
		}
	}
	return d
}

// Validate checks internal consistency (transition endpoints in range) and
// returns a descriptive error if violated. Primarily useful after manual
// construction.
func (a *NFA[L]) Validate() error {
	n := a.NumStates()
	for p := 0; p < n; p++ {
		for _, q := range a.eps[p] {
			if q < 0 || q >= n {
				return fmt.Errorf("automata: ε-transition %d->%d out of range", p, q)
			}
		}
		for _, tos := range a.trans[p] {
			for _, q := range tos {
				if q < 0 || q >= n {
					return fmt.Errorf("automata: transition %d->%d out of range", p, q)
				}
			}
		}
	}
	return nil
}
