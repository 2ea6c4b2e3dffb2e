// Package rational implements rational word relations — the strongest class
// in the hierarchy Recognizable ⊊ Synchronous ⊊ Rational discussed in the
// paper's introduction. Binary rational relations are those realized by
// (one-way, nondeterministic) finite transducers, whose transitions read an
// input word fragment and emit an output word fragment without the
// synchronous lock-step constraint.
//
// The paper recalls that CRPQ+Rational has an undecidable evaluation problem
// even for very simple rational relations [Barceló et al.]; this package
// makes the contrast concrete: membership of a fixed pair is decidable
// (Contains), but query evaluation is only semi-decidable, provided here as
// a bounded search (BoundedEval). The PCP encoding in pcp.go exhibits the
// undecidability source.
package rational

import (
	"fmt"

	"ecrpq/internal/alphabet"
	"ecrpq/internal/invariant"
)

// Transition is a transducer transition: consume In (a possibly-empty word)
// from the first tape and Out from the second.
type Transition struct {
	From, To int
	In, Out  alphabet.Word
}

// Transducer is a nondeterministic finite transducer defining a binary
// rational relation { (u, v) : some accepting run reads u and writes v }.
type Transducer struct {
	alpha  *alphabet.Alphabet
	states int
	start  []int
	accept map[int]bool
	trans  []Transition
	name   string
}

// NewTransducer returns an empty transducer over the alphabet.
func NewTransducer(a *alphabet.Alphabet) *Transducer {
	return &Transducer{alpha: a, accept: make(map[int]bool)}
}

// AddState adds a state and returns its index.
func (t *Transducer) AddState() int {
	t.states++
	return t.states - 1
}

// SetStart marks a start state.
func (t *Transducer) SetStart(q int) { t.start = append(t.start, q) }

// SetAccept marks an accepting state.
func (t *Transducer) SetAccept(q int) { t.accept[q] = true }

// Add inserts a transition consuming in and emitting out.
func (t *Transducer) Add(from int, in, out alphabet.Word, to int) error {
	if from < 0 || from >= t.states || to < 0 || to >= t.states {
		return fmt.Errorf("rational: transition endpoints out of range")
	}
	if !in.Valid(t.alpha) || !out.Valid(t.alpha) {
		return fmt.Errorf("rational: transition words outside the alphabet")
	}
	t.trans = append(t.trans, Transition{From: from, To: to, In: in.Clone(), Out: out.Clone()})
	return nil
}

// MustAdd is Add, panicking on error.
func (t *Transducer) MustAdd(from int, in, out alphabet.Word, to int) {
	invariant.NoError(t.Add(from, in, out, to), "rational: MustAdd")
}

// WithName attaches a display name.
func (t *Transducer) WithName(name string) *Transducer {
	t.name = name
	return t
}

// Name returns the display name.
func (t *Transducer) Name() string { return t.name }

// Alphabet returns the transducer's alphabet.
func (t *Transducer) Alphabet() *alphabet.Alphabet { return t.alpha }

// NumStates returns the number of states.
func (t *Transducer) NumStates() int { return t.states }

// Contains decides membership of a fixed pair — unlike CRPQ+Rational
// evaluation, this is decidable (polynomial): dynamic programming over
// (state, input position, output position), with ε-move closure handled by
// fixpoint iteration.
func (t *Transducer) Contains(u, v alphabet.Word) bool {
	if t.states == 0 {
		return false
	}
	n, m := len(u), len(v)
	// reach[q][i][j]: can be in state q having consumed u[:i], v[:j].
	reach := make([][][]bool, t.states)
	for q := range reach {
		reach[q] = make([][]bool, n+1)
		for i := range reach[q] {
			reach[q][i] = make([]bool, m+1)
		}
	}
	var queue [][3]int
	push := func(q, i, j int) {
		if !reach[q][i][j] {
			reach[q][i][j] = true
			queue = append(queue, [3]int{q, i, j})
		}
	}
	for _, q := range t.start {
		push(q, 0, 0)
	}
	matches := func(w alphabet.Word, full alphabet.Word, at int) bool {
		if at+len(w) > len(full) {
			return false
		}
		for k, s := range w {
			if full[at+k] != s {
				return false
			}
		}
		return true
	}
	for qi := 0; qi < len(queue); qi++ {
		cur := queue[qi]
		q, i, j := cur[0], cur[1], cur[2]
		for _, tr := range t.trans {
			if tr.From != q {
				continue
			}
			if matches(tr.In, u, i) && matches(tr.Out, v, j) {
				push(tr.To, i+len(tr.In), j+len(tr.Out))
			}
		}
	}
	for q := range t.accept {
		if t.accept[q] && reach[q][n][m] {
			return true
		}
	}
	return false
}

// SuffixOf returns the transducer for {(u, v) : u is a suffix of v} — the
// textbook example of a rational relation that is NOT synchronous (the
// unbounded shift between the tapes cannot be tracked with finitely many
// states in lock-step).
func SuffixOf(a *alphabet.Alphabet) *Transducer {
	t := NewTransducer(a)
	skip := t.AddState()
	match := t.AddState()
	t.SetStart(skip)
	t.SetAccept(skip)
	t.SetAccept(match)
	for _, s := range a.Symbols() {
		w := alphabet.Word{s}
		t.MustAdd(skip, nil, w, skip) // consume nothing, skip a v-symbol
		t.MustAdd(skip, w, w, match)  // start matching
		t.MustAdd(match, w, w, match) // continue matching in lock-step
	}
	return t.WithName("suffix")
}

// FactorOf returns the transducer for {(u, v) : u is a factor (infix) of v}.
func FactorOf(a *alphabet.Alphabet) *Transducer {
	t := NewTransducer(a)
	pre := t.AddState()
	mid := t.AddState()
	post := t.AddState()
	t.SetStart(pre)
	t.SetAccept(pre)
	t.SetAccept(mid)
	t.SetAccept(post)
	for _, s := range a.Symbols() {
		w := alphabet.Word{s}
		t.MustAdd(pre, nil, w, pre)
		t.MustAdd(pre, w, w, mid)
		t.MustAdd(mid, w, w, mid)
		t.MustAdd(mid, nil, w, post)
		t.MustAdd(post, nil, w, post)
	}
	return t.WithName("factor")
}

// SubwordOf returns the transducer for {(u, v) : u is a (scattered) subword
// of v}.
func SubwordOf(a *alphabet.Alphabet) *Transducer {
	t := NewTransducer(a)
	q := t.AddState()
	t.SetStart(q)
	t.SetAccept(q)
	for _, s := range a.Symbols() {
		w := alphabet.Word{s}
		t.MustAdd(q, nil, w, q) // skip a v-symbol
		t.MustAdd(q, w, w, q)   // match a symbol
	}
	return t.WithName("subword")
}

// Morphism returns the transducer applying a word morphism h: the relation
// {(u, h(u))}. images[s] is the image of symbol s.
func Morphism(a *alphabet.Alphabet, images map[alphabet.Symbol]alphabet.Word) (*Transducer, error) {
	t := NewTransducer(a)
	q := t.AddState()
	t.SetStart(q)
	t.SetAccept(q)
	for _, s := range a.Symbols() {
		img, ok := images[s]
		if !ok {
			return nil, fmt.Errorf("rational: morphism undefined on symbol %s", a.Name(s))
		}
		if err := t.Add(q, alphabet.Word{s}, img, q); err != nil {
			return nil, err
		}
	}
	return t.WithName("morphism"), nil
}
