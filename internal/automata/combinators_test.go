package automata

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Thompson combinators building NFAs compositionally, with the tests that
// pin their languages. rex compiles regular expressions through its own
// fragments; nothing outside these tests builds an NFA this way.

// Empty returns an automaton recognizing the empty language.
func Empty[L comparable]() *NFA[L] {
	return NewNFA[L](0)
}

// Epsilon returns an automaton recognizing exactly the empty word.
func Epsilon[L comparable]() *NFA[L] {
	a := NewNFA[L](1)
	a.SetStart(0, true)
	a.SetAccept(0, true)
	return a
}

// Single returns an automaton recognizing exactly the given word.
func Single[L comparable](word []L) *NFA[L] {
	a := NewNFA[L](len(word) + 1)
	a.SetStart(0, true)
	a.SetAccept(len(word), true)
	for i, l := range word {
		a.AddTransition(i, l, i+1)
	}
	return a
}

// Concat returns an automaton for L(a)·L(b).
func Concat[L comparable](a, b *NFA[L]) *NFA[L] {
	out := a.Clone()
	off := out.NumStates()
	for i := 0; i < b.NumStates(); i++ {
		out.AddState()
	}
	b.Transitions(func(p int, l L, q int) {
		out.AddTransition(p+off, l, q+off)
	})
	for p := 0; p < b.NumStates(); p++ {
		for _, q := range b.eps[p] {
			out.AddEps(p+off, q+off)
		}
	}
	for _, qa := range a.AcceptStates() {
		out.SetAccept(qa, false)
		for _, sb := range b.StartStates() {
			out.AddEps(qa, sb+off)
		}
	}
	for _, qb := range b.AcceptStates() {
		out.SetAccept(qb+off, true)
	}
	return out
}

// Star returns an automaton for L(a)*.
func Star[L comparable](a *NFA[L]) *NFA[L] {
	out := a.Clone()
	hub := out.AddState()
	out.SetAccept(hub, true)
	for _, s := range a.StartStates() {
		out.AddEps(hub, s)
		out.SetStart(s, false)
	}
	out.SetStart(hub, true)
	for _, f := range a.AcceptStates() {
		out.AddEps(f, hub)
	}
	return out
}

// Plus returns an automaton for L(a)+ = L(a)·L(a)*.
func Plus[L comparable](a *NFA[L]) *NFA[L] {
	return Concat(a, Star(a))
}

// Optional returns an automaton for L(a) ∪ {ε}.
func Optional[L comparable](a *NFA[L]) *NFA[L] {
	return a.Union(Epsilon[L]())
}

func TestEmptyEpsilonSingle(t *testing.T) {
	e := Empty[byte]()
	if e.Accepts(nil) || e.Accepts([]byte("a")) {
		t.Error("Empty should reject everything")
	}
	eps := Epsilon[byte]()
	if !eps.Accepts(nil) || eps.Accepts([]byte("a")) {
		t.Error("Epsilon should accept exactly ε")
	}
	w := Single([]byte("abc"))
	if !w.Accepts([]byte("abc")) || w.Accepts([]byte("ab")) || w.Accepts([]byte("abcd")) {
		t.Error("Single should accept exactly its word")
	}
	if !Single([]byte{}).Accepts(nil) {
		t.Error("Single of empty word should accept ε")
	}
}

func TestConcat(t *testing.T) {
	ab := Concat(Single([]byte("a")), Single([]byte("b")))
	for _, c := range []struct {
		w    string
		want bool
	}{{"ab", true}, {"a", false}, {"b", false}, {"", false}, {"abb", false}} {
		if got := ab.Accepts([]byte(c.w)); got != c.want {
			t.Errorf("Concat accepts(%q) = %v, want %v", c.w, got, c.want)
		}
	}
}

func TestStarPlusOptional(t *testing.T) {
	a := Single([]byte("a"))
	star := Star(a)
	plus := Plus(a)
	opt := Optional(a)
	cases := []struct {
		w                   string
		star, plus, optWant bool
	}{
		{"", true, false, true},
		{"a", true, true, true},
		{"aaa", true, true, false},
		{"b", false, false, false},
	}
	for _, c := range cases {
		if got := star.Accepts([]byte(c.w)); got != c.star {
			t.Errorf("Star(%q) = %v, want %v", c.w, got, c.star)
		}
		if got := plus.Accepts([]byte(c.w)); got != c.plus {
			t.Errorf("Plus(%q) = %v, want %v", c.w, got, c.plus)
		}
		if got := opt.Accepts([]byte(c.w)); got != c.optWant {
			t.Errorf("Optional(%q) = %v, want %v", c.w, got, c.optWant)
		}
	}
}

func TestStarOfStarProperty(t *testing.T) {
	// (L*)* = L* for random automata.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomNFA(rng, 2+rng.Intn(4), 2, 6)
		s1 := Star(a)
		s2 := Star(s1)
		for i := 0; i < 25; i++ {
			w := randomWord(rng, 2, 7)
			if s1.Accepts(w) != s2.Accepts(w) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestConcatAssociativeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomNFA(rng, 2+rng.Intn(3), 2, 5)
		b := randomNFA(rng, 2+rng.Intn(3), 2, 5)
		c := randomNFA(rng, 2+rng.Intn(3), 2, 5)
		left := Concat(Concat(a, b), c)
		right := Concat(a, Concat(b, c))
		for i := 0; i < 25; i++ {
			w := randomWord(rng, 2, 8)
			if left.Accepts(w) != right.Accepts(w) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestConcatDoesNotMutateInputs(t *testing.T) {
	a := Single([]byte("a"))
	b := Single([]byte("b"))
	_ = Concat(a, b)
	if !a.Accepts([]byte("a")) || !b.Accepts([]byte("b")) {
		t.Error("Concat mutated an input automaton")
	}
	_ = Star(a)
	if !a.Accepts([]byte("a")) || a.Accepts(nil) {
		t.Error("Star mutated its input automaton")
	}
}
