package synchro

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"ecrpq/internal/alphabet"
	"ecrpq/internal/automata"
	"ecrpq/internal/invariant"
	"ecrpq/internal/rex"
)

// MustContain is Contains, panicking on error: the tests' membership probe.
func (r *Relation) MustContain(words ...alphabet.Word) bool {
	return invariant.Must(r.Contains(words...))
}

// allWords enumerates every word over a of length ≤ maxLen.
func allWords(a *alphabet.Alphabet, maxLen int) []alphabet.Word {
	out := []alphabet.Word{{}}
	frontier := []alphabet.Word{{}}
	for l := 0; l < maxLen; l++ {
		var next []alphabet.Word
		for _, w := range frontier {
			for _, s := range a.Symbols() {
				nw := append(w.Clone(), s)
				next = append(next, nw)
				out = append(out, nw)
			}
		}
		frontier = next
	}
	return out
}

func levenshtein(u, v alphabet.Word) int {
	n, m := len(u), len(v)
	prev := make([]int, m+1)
	cur := make([]int, m+1)
	for j := 0; j <= m; j++ {
		prev[j] = j
	}
	for i := 1; i <= n; i++ {
		cur[0] = i
		for j := 1; j <= m; j++ {
			cost := 1
			if u[i-1] == v[j-1] {
				cost = 0
			}
			cur[j] = min3(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[m]
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

func TestEquality(t *testing.T) {
	a := alphabet.Lower(2)
	eq := Equality(a, 2)
	words := allWords(a, 3)
	for _, u := range words {
		for _, v := range words {
			want := u.Equal(v)
			got, err := eq.Contains(u, v)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("eq(%v, %v) = %v, want %v", u, v, got, want)
			}
		}
	}
}

func TestEqualityTernary(t *testing.T) {
	a := alphabet.Lower(2)
	eq := Equality(a, 3)
	w := alphabet.MustParseWord(a, "ab")
	v := alphabet.MustParseWord(a, "ba")
	if !eq.MustContain(w, w, w) {
		t.Error("eq3 should contain (w,w,w)")
	}
	if eq.MustContain(w, w, v) {
		t.Error("eq3 should reject (w,w,v)")
	}
}

func TestEqualLength(t *testing.T) {
	a := alphabet.Lower(2)
	el := EqualLength(a, 2)
	words := allWords(a, 3)
	for _, u := range words {
		for _, v := range words {
			want := len(u) == len(v)
			if got := el.MustContain(u, v); got != want {
				t.Errorf("eqlen(%v, %v) = %v, want %v", u, v, got, want)
			}
		}
	}
}

func TestPrefixOf(t *testing.T) {
	a := alphabet.Lower(2)
	pre := PrefixOf(a)
	words := allWords(a, 4)
	for _, u := range words {
		for _, v := range words {
			want := len(u) <= len(v) && v[:len(u)].Equal(u)
			if got := pre.MustContain(u, v); got != want {
				t.Errorf("prefix(%v, %v) = %v, want %v",
					u.Format(a), v.Format(a), got, want)
			}
		}
	}
}

func TestHammingAtMost(t *testing.T) {
	a := alphabet.Lower(2)
	for d := 0; d <= 2; d++ {
		h := HammingAtMost(a, d)
		words := allWords(a, 3)
		for _, u := range words {
			for _, v := range words {
				want := false
				if len(u) == len(v) {
					diff := 0
					for i := range u {
						if u[i] != v[i] {
							diff++
						}
					}
					want = diff <= d
				}
				if got := h.MustContain(u, v); got != want {
					t.Errorf("hamming<=%d(%v, %v) = %v, want %v", d, u, v, got, want)
				}
			}
		}
	}
}

func TestLengthDiffAtMost(t *testing.T) {
	a := alphabet.Lower(2)
	for d := 0; d <= 2; d++ {
		r := LengthDiffAtMost(a, d)
		words := allWords(a, 4)
		for _, u := range words {
			for _, v := range words {
				diff := len(u) - len(v)
				if diff < 0 {
					diff = -diff
				}
				want := diff <= d
				if got := r.MustContain(u, v); got != want {
					t.Errorf("lendiff<=%d(%v, %v) = %v, want %v",
						d, u.Format(a), v.Format(a), got, want)
				}
			}
		}
	}
}

func TestInsertion(t *testing.T) {
	a := alphabet.Lower(2)
	ins := insertion(a)
	words := allWords(a, 3)
	for _, u := range words {
		for _, v := range words {
			want := false
			if len(v) == len(u)+1 {
				for i := 0; i <= len(u); i++ {
					cand := append(append(u[:i:i].Clone(), v[i]), u[i:]...)
					if cand.Equal(v) {
						want = true
						break
					}
				}
			}
			if got := ins.MustContain(u, v); got != want {
				t.Errorf("insert1(%v, %v) = %v, want %v",
					u.Format(a), v.Format(a), got, want)
			}
		}
	}
}

func TestEditDistanceAtMost(t *testing.T) {
	a := alphabet.Lower(2)
	for d := 0; d <= 2; d++ {
		ed, err := EditDistanceAtMost(a, d)
		if err != nil {
			t.Fatalf("d=%d: %v", d, err)
		}
		words := allWords(a, 3)
		for _, u := range words {
			for _, v := range words {
				want := levenshtein(u, v) <= d
				if got := ed.MustContain(u, v); got != want {
					t.Errorf("edit<=%d(%v, %v) = %v, want %v (lev=%d)",
						d, u.Format(a), v.Format(a), got, want, levenshtein(u, v))
				}
			}
		}
	}
}

func TestEditDistanceNegative(t *testing.T) {
	a := alphabet.Lower(2)
	if _, err := EditDistanceAtMost(a, -1); err == nil {
		t.Error("negative bound should error")
	}
}

func TestLift(t *testing.T) {
	a := alphabet.Lower(2)
	lang := rex.MustCompileString(a, "a*b")
	r := Lift(a, lang)
	if r.Arity() != 1 {
		t.Fatalf("arity = %d", r.Arity())
	}
	for _, c := range []struct {
		w    string
		want bool
	}{{"b", true}, {"aab", true}, {"", false}, {"ba", false}} {
		w := alphabet.MustParseWord(a, c.w)
		if got := r.MustContain(w); got != c.want {
			t.Errorf("lift(a*b)(%q) = %v, want %v", c.w, got, c.want)
		}
	}
}

func TestUniversal(t *testing.T) {
	a := alphabet.Lower(2)
	u := Universal(a, 3)
	if !u.IsUniversal() {
		t.Error("should be universal")
	}
	w := alphabet.MustParseWord(a, "ab")
	if !u.MustContain(w, alphabet.Word{}, w) {
		t.Error("universal should contain everything")
	}
	words, empty := u.IsEmpty()
	if empty || len(words) != 3 {
		t.Errorf("IsEmpty = %v, %v", words, empty)
	}
	nfa, err := u.NFA()
	if err != nil {
		t.Fatalf("NFA: %v", err)
	}
	// (2+1)^3 - 1 = 26 letters
	if nfa.NumTransitions() != 26 {
		t.Errorf("universal NFA transitions = %d, want 26", nfa.NumTransitions())
	}
}

func TestUniversalTooLargeToMaterialize(t *testing.T) {
	a := alphabet.Lower(4)
	u := Universal(a, 20)
	if _, err := u.NFA(); err == nil {
		t.Error("materializing (5)^20 letters should error")
	}
}

func TestContainsErrors(t *testing.T) {
	a := alphabet.Lower(2)
	eq := Equality(a, 2)
	if _, err := eq.Contains(alphabet.Word{}); err == nil {
		t.Error("wrong arity should error")
	}
	if _, err := eq.Contains(alphabet.Word{9}, alphabet.Word{}); err == nil {
		t.Error("out-of-alphabet word should error")
	}
}

func TestFromNFAValidation(t *testing.T) {
	a := alphabet.Lower(2)
	// All-pad letter.
	bad := automata.NewNFA[string](1)
	bad.SetStart(0, true)
	bad.SetAccept(0, true)
	bad.AddTransition(0, alphabet.Tuple{alphabet.Pad, alphabet.Pad}.Key(), 0)
	if _, err := FromNFA(a, 2, bad); err == nil {
		t.Error("all-pad letter should be rejected")
	}
	// Wrong arity letter.
	bad2 := automata.NewNFA[string](1)
	bad2.SetStart(0, true)
	bad2.SetAccept(0, true)
	bad2.AddTransition(0, alphabet.Tuple{0}.Key(), 0)
	if _, err := FromNFA(a, 2, bad2); err == nil {
		t.Error("wrong-arity letter should be rejected")
	}
	// Foreign symbol.
	bad3 := automata.NewNFA[string](1)
	bad3.SetStart(0, true)
	bad3.SetAccept(0, true)
	bad3.AddTransition(0, alphabet.Tuple{9, 0}.Key(), 0)
	if _, err := FromNFA(a, 2, bad3); err == nil {
		t.Error("foreign symbol should be rejected")
	}
	// Malformed key.
	bad4 := automata.NewNFA[string](1)
	bad4.SetStart(0, true)
	bad4.SetAccept(0, true)
	bad4.AddTransition(0, "xyz", 0)
	if _, err := FromNFA(a, 2, bad4); err == nil {
		t.Error("malformed key should be rejected")
	}
	if _, err := FromNFA(a, 0, automata.NewNFA[string](0)); err == nil {
		t.Error("arity 0 should be rejected")
	}
}

func TestIsEmptyWitness(t *testing.T) {
	a := alphabet.Lower(2)
	ed, _ := EditDistanceAtMost(a, 1)
	words, empty := ed.IsEmpty()
	if empty {
		t.Fatal("edit<=1 is not empty")
	}
	if !ed.MustContain(words...) {
		t.Errorf("witness %v not in relation", words)
	}
}

func TestIsEmptyOnEmptyRelation(t *testing.T) {
	a := alphabet.Lower(2)
	r, err := FromTuples(a, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, empty := r.IsEmpty(); !empty {
		t.Error("empty FromTuples should be empty")
	}
}

func TestIsEmptyFiltersInvalidConvolutions(t *testing.T) {
	// An NFA that only accepts an invalid convolution: (⊥,a)(a,a).
	a := alphabet.Lower(2)
	n := automata.NewNFA[string](3)
	n.SetStart(0, true)
	n.AddTransition(0, alphabet.Tuple{alphabet.Pad, 0}.Key(), 1)
	n.AddTransition(1, alphabet.Tuple{0, 0}.Key(), 2)
	n.SetAccept(2, true)
	r, err := FromNFA(a, 2, n)
	if err != nil {
		t.Fatal(err)
	}
	if _, empty := r.IsEmpty(); !empty {
		// The NFA accepts a word, but no valid convolution: relation empty.
		t.Error("relation with only invalid convolutions should be empty")
	}
}

// FromTuples returns the finite relation containing exactly the given word
// tuples.
func FromTuples(a *alphabet.Alphabet, k int, tuples ...[]alphabet.Word) (*Relation, error) {
	nfa := automata.NewNFA[string](1)
	nfa.SetStart(0, true)
	for _, words := range tuples {
		if len(words) != k {
			return nil, fmt.Errorf("synchro: tuple has %d words, want %d", len(words), k)
		}
		cur := 0
		conv := alphabet.Convolve(words...)
		for _, t := range conv {
			next := nfa.AddState()
			nfa.AddTransition(cur, t.Key(), next)
			cur = next
		}
		nfa.SetAccept(cur, true)
	}
	return FromNFA(a, k, nfa)
}

func TestFromTuples(t *testing.T) {
	a := alphabet.Lower(2)
	u := alphabet.MustParseWord(a, "ab")
	v := alphabet.MustParseWord(a, "b")
	r, err := FromTuples(a, 2, []alphabet.Word{u, v}, []alphabet.Word{v, v})
	if err != nil {
		t.Fatal(err)
	}
	if !r.MustContain(u, v) || !r.MustContain(v, v) {
		t.Error("FromTuples missing tuples")
	}
	if r.MustContain(u, u) || r.MustContain(v, u) {
		t.Error("FromTuples contains extra tuples")
	}
	if _, err := FromTuples(a, 2, []alphabet.Word{u}); err == nil {
		t.Error("arity mismatch should error")
	}
}

func TestIntersectUnion(t *testing.T) {
	a := alphabet.Lower(2)
	eq := Equality(a, 2)
	el := EqualLength(a, 2)
	pre := PrefixOf(a)

	inter, err := el.Intersect(pre)
	if err != nil {
		t.Fatal(err)
	}
	// equal length ∧ prefix = equality
	words := allWords(a, 3)
	for _, u := range words {
		for _, v := range words {
			if inter.MustContain(u, v) != eq.MustContain(u, v) {
				t.Errorf("eqlen∩prefix ≠ eq at (%v,%v)", u, v)
			}
		}
	}

	un, err := eq.Union(pre)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range words {
		for _, v := range words {
			want := eq.MustContain(u, v) || pre.MustContain(u, v)
			if un.MustContain(u, v) != want {
				t.Errorf("eq∪prefix wrong at (%v,%v)", u, v)
			}
		}
	}

	if _, err := eq.Intersect(Equality(a, 3)); err == nil {
		t.Error("arity mismatch should error")
	}
	if _, err := eq.Union(Equality(a, 3)); err == nil {
		t.Error("arity mismatch should error")
	}
}

func TestIntersectUnionWithUniversal(t *testing.T) {
	a := alphabet.Lower(2)
	eq := Equality(a, 2)
	u := Universal(a, 2)
	i1, _ := eq.Intersect(u)
	i2, _ := u.Intersect(eq)
	w := alphabet.MustParseWord(a, "ab")
	v := alphabet.MustParseWord(a, "ba")
	if !i1.MustContain(w, w) || i1.MustContain(w, v) {
		t.Error("eq ∩ universal should be eq")
	}
	if !i2.MustContain(w, w) || i2.MustContain(w, v) {
		t.Error("universal ∩ eq should be eq")
	}
	u1, _ := eq.Union(u)
	u2, _ := u.Union(eq)
	if !u1.IsUniversal() || !u2.IsUniversal() {
		t.Error("union with universal should be universal")
	}
}

func TestComplement(t *testing.T) {
	a := alphabet.Lower(2)
	eq := Equality(a, 2)
	neq, err := eq.Complement()
	if err != nil {
		t.Fatal(err)
	}
	words := allWords(a, 3)
	for _, u := range words {
		for _, v := range words {
			if neq.MustContain(u, v) == eq.MustContain(u, v) {
				t.Errorf("complement not disjoint at (%v,%v)", u, v)
			}
		}
	}
}

func TestComplementOfUniversalIsEmpty(t *testing.T) {
	a := alphabet.Lower(2)
	c, err := Universal(a, 2).Complement()
	if err != nil {
		t.Fatal(err)
	}
	if _, empty := c.IsEmpty(); !empty {
		t.Error("complement of universal should be empty")
	}
}

func TestPermute(t *testing.T) {
	a := alphabet.Lower(2)
	pre := PrefixOf(a)
	suf := pre.Permute([]int{1, 0}) // (u,v) : v prefix of u
	u := alphabet.MustParseWord(a, "abb")
	v := alphabet.MustParseWord(a, "ab")
	if !suf.MustContain(u, v) {
		t.Error("permuted prefix should contain (abb, ab)")
	}
	if suf.MustContain(v, u) {
		t.Error("permuted prefix should reject (ab, abb)")
	}
	// Identity permutation on universal.
	if !Universal(a, 2).Permute([]int{0, 1}).IsUniversal() {
		t.Error("permuted universal should stay universal")
	}
	defer func() {
		if recover() == nil {
			t.Error("bad permutation should panic")
		}
	}()
	pre.Permute([]int{0, 0})
}

func TestProject(t *testing.T) {
	a := alphabet.Lower(2)
	// Project prefix relation onto track 0: all words (every word is a
	// prefix of something).
	pre := PrefixOf(a)
	p0, err := pre.Project([]int{0})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range allWords(a, 3) {
		if !p0.MustContain(w) {
			t.Errorf("projection should contain %v", w)
		}
	}
	// Projection of {(ab, b)} onto track 1 = {b}.
	r, _ := FromTuples(a, 2, []alphabet.Word{
		alphabet.MustParseWord(a, "ab"), alphabet.MustParseWord(a, "b")})
	p1, err := r.Project([]int{1})
	if err != nil {
		t.Fatal(err)
	}
	if !p1.MustContain(alphabet.MustParseWord(a, "b")) {
		t.Error("projection missing b")
	}
	if p1.MustContain(alphabet.MustParseWord(a, "ab")) {
		t.Error("projection should not contain ab")
	}
	if _, err := pre.Project(nil); err == nil {
		t.Error("empty projection should error")
	}
	if _, err := pre.Project([]int{5}); err == nil {
		t.Error("out-of-range projection should error")
	}
	pu, err := Universal(a, 3).Project([]int{0, 2})
	if err != nil || !pu.IsUniversal() || pu.Arity() != 2 {
		t.Error("projection of universal should be universal of reduced arity")
	}
}

// Cylindrify inserts a new unconstrained track at position pos (0-based),
// returning a relation of arity k+1: { (w_0,...,w_{pos-1}, x, w_pos, ...) :
// (w_0,...,w_{k-1}) ∈ R, x ∈ A* }. The new track may carry any symbol or
// padding on every letter; additionally the new track may extend beyond all
// original tracks (suffix letters where only the new track is active).
func (r *Relation) Cylindrify(pos int) (*Relation, error) {
	if pos < 0 || pos > r.arity {
		return nil, fmt.Errorf("synchro: cylindrification position %d out of range", pos)
	}
	if r.universal {
		return Universal(r.alpha, r.arity+1), nil
	}
	syms := append([]alphabet.Symbol{alphabet.Pad}, r.alpha.Symbols()...)
	out := r.relabel(func(out *automata.NFA[string], q int, tr Transition) {
		for _, x := range syms {
			nt := make(alphabet.Tuple, r.arity+1)
			copy(nt, tr.Tuple[:pos])
			nt[pos] = x
			copy(nt[pos+1:], tr.Tuple[pos:])
			out.AddTransition(q, nt.Key(), tr.To)
		}
	})
	// Tail: the new track continues after all original tracks ended. Add a
	// tail state reachable from every accepting state, looping on letters
	// that are pad everywhere except the new track.
	tail := out.AddState()
	out.SetAccept(tail, true)
	for _, s := range r.alpha.Symbols() {
		nt := make(alphabet.Tuple, r.arity+1)
		for i := range nt {
			nt[i] = alphabet.Pad
		}
		nt[pos] = s
		key := nt.Key()
		for _, q := range out.AcceptStates() {
			if q != tail {
				out.AddTransition(q, key, tail)
			}
		}
		out.AddTransition(tail, key, tail)
	}
	return explicit(r.alpha, r.arity+1, out, ""), nil
}

func TestCylindrify(t *testing.T) {
	a := alphabet.Lower(2)
	eq := Equality(a, 2)
	c, err := eq.Cylindrify(1) // (u, x, v) with u = v, x free
	if err != nil {
		t.Fatal(err)
	}
	if c.Arity() != 3 {
		t.Fatalf("arity = %d", c.Arity())
	}
	u := alphabet.MustParseWord(a, "ab")
	long := alphabet.MustParseWord(a, "aabba")
	short := alphabet.MustParseWord(a, "b")
	for _, x := range []alphabet.Word{{}, short, u, long} {
		if !c.MustContain(u, x, u) {
			t.Errorf("cylindrification should contain (u, %v, u)", x.Format(a))
		}
		if c.MustContain(u, x, short) {
			t.Errorf("cylindrification should reject (u, %v, short)", x.Format(a))
		}
	}
	if _, err := eq.Cylindrify(7); err == nil {
		t.Error("out-of-range position should error")
	}
	cu, err := Universal(a, 2).Cylindrify(0)
	if err != nil || !cu.IsUniversal() || cu.Arity() != 3 {
		t.Error("cylindrified universal should be universal")
	}
}

func TestCompose(t *testing.T) {
	a := alphabet.Lower(2)
	// prefix ∘ prefix = prefix (transitive).
	pre := PrefixOf(a)
	pp, err := pre.Compose(pre)
	if err != nil {
		t.Fatal(err)
	}
	words := allWords(a, 3)
	for _, u := range words {
		for _, v := range words {
			if pp.MustContain(u, v) != pre.MustContain(u, v) {
				t.Errorf("prefix∘prefix ≠ prefix at (%v,%v)", u.Format(a), v.Format(a))
			}
		}
	}
	if _, err := pre.Compose(Equality(a, 3)); err == nil {
		t.Error("compose of non-binary should error")
	}
}

func TestComposeHamming(t *testing.T) {
	a := alphabet.Lower(2)
	h1 := HammingAtMost(a, 1)
	h2, err := h1.Compose(h1)
	if err != nil {
		t.Fatal(err)
	}
	want := HammingAtMost(a, 2)
	words := allWords(a, 3)
	for _, u := range words {
		for _, v := range words {
			if h2.MustContain(u, v) != want.MustContain(u, v) {
				t.Errorf("h1∘h1 ≠ h2 at (%v,%v)", u.Format(a), v.Format(a))
			}
		}
	}
}

func TestJoinConjunction(t *testing.T) {
	a := alphabet.Lower(2)
	// Merged relation over tracks (x, y, z): eqlen(x,y) ∧ prefix(y,z).
	el := EqualLength(a, 2)
	pre := PrefixOf(a)
	j, err := Join(a, 3, []*Relation{el, pre}, [][]int{{0, 1}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	words := allWords(a, 2)
	for _, x := range words {
		for _, y := range words {
			for _, z := range words {
				want := el.MustContain(x, y) && pre.MustContain(y, z)
				if got := j.MustContain(x, y, z); got != want {
					t.Errorf("join(%v,%v,%v) = %v, want %v",
						x.Format(a), y.Format(a), z.Format(a), got, want)
				}
			}
		}
	}
}

func TestJoinSharedTrackIntersection(t *testing.T) {
	a := alphabet.Lower(2)
	// Two unary relations on the same track: a*b ∧ (a|b)b — both over track 0.
	r1 := Lift(a, rex.MustCompileString(a, "a*b"))
	r2 := Lift(a, rex.MustCompileString(a, "(a|b)b"))
	j, err := Join(a, 1, []*Relation{r1, r2}, [][]int{{0}, {0}})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range allWords(a, 4) {
		want := r1.MustContain(w) && r2.MustContain(w)
		if got := j.MustContain(w); got != want {
			t.Errorf("join on shared track at %v: got %v want %v", w.Format(a), got, want)
		}
	}
}

func TestJoinWithUniversalAndFreeTracks(t *testing.T) {
	a := alphabet.Lower(2)
	eq := Equality(a, 2)
	u := Universal(a, 2)
	// arity 3: eq(0,1), universal(1,2) — track 2 free in practice.
	j, err := Join(a, 3, []*Relation{eq, u}, [][]int{{0, 1}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	w := alphabet.MustParseWord(a, "ab")
	v := alphabet.MustParseWord(a, "ba")
	if !j.MustContain(w, w, v) {
		t.Error("join should allow free track values")
	}
	if j.MustContain(w, v, v) {
		t.Error("join must enforce eq on tracks 0,1")
	}
	// All universal: result universal.
	j2, err := Join(a, 2, []*Relation{u}, [][]int{{0, 1}})
	if err != nil || !j2.IsUniversal() {
		t.Error("join of only universal should be universal")
	}
}

func TestJoinErrors(t *testing.T) {
	a := alphabet.Lower(2)
	eq := Equality(a, 2)
	if _, err := Join(a, 2, []*Relation{eq}, nil); err == nil {
		t.Error("mismatched lengths should error")
	}
	if _, err := Join(a, 2, []*Relation{eq}, [][]int{{0}}); err == nil {
		t.Error("arity mismatch should error")
	}
	if _, err := Join(a, 2, []*Relation{eq}, [][]int{{0, 5}}); err == nil {
		t.Error("out-of-range track should error")
	}
	if _, err := Join(a, 2, []*Relation{eq}, [][]int{{0, 0}}); err == nil {
		t.Error("duplicate track should error")
	}
}

func TestJoinStateBlowupMatchesPaper(t *testing.T) {
	// Lemma 4.1: merged NFA state count is the product of component state
	// counts (after trimming, ≤ product).
	a := alphabet.Lower(2)
	h := HammingAtMost(a, 2) // 3 states
	j, err := Join(a, 4, []*Relation{h, h, h}, [][]int{{0, 1}, {1, 2}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	st, _ := j.Size()
	if st > 27 {
		t.Errorf("merged states = %d, want ≤ 3^3 = 27", st)
	}
	if st < 3 {
		t.Errorf("merged states = %d suspiciously small", st)
	}
}

func TestMinimizedPreservesRelation(t *testing.T) {
	a := alphabet.Lower(2)
	pre := PrefixOf(a)
	// Bloat with a union of itself, then minimize.
	bloated, _ := pre.Union(pre)
	min := bloated.Minimized()
	words := allWords(a, 3)
	for _, u := range words {
		for _, v := range words {
			if min.MustContain(u, v) != pre.MustContain(u, v) {
				t.Errorf("minimized differs at (%v,%v)", u, v)
			}
		}
	}
	if !Universal(a, 2).Minimized().IsUniversal() {
		t.Error("minimized universal should stay universal")
	}
}

func TestRelationString(t *testing.T) {
	a := alphabet.Lower(2)
	if s := Universal(a, 2).String(); s == "" {
		t.Error("empty String")
	}
	if s := Equality(a, 2).String(); s == "" {
		t.Error("empty String")
	}
	named := Equality(a, 2).WithName("myeq")
	if named.Name() != "myeq" {
		t.Error("WithName failed")
	}
}

func TestJoinRandomizedAgainstDirectProperty(t *testing.T) {
	a := alphabet.Lower(2)
	rels := []*Relation{Equality(a, 2), EqualLength(a, 2), PrefixOf(a), HammingAtMost(a, 1)}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r1 := rels[rng.Intn(len(rels))]
		r2 := rels[rng.Intn(len(rels))]
		// Random track maps into arity 3.
		pick := func() []int {
			i := rng.Intn(3)
			j := rng.Intn(3)
			for j == i {
				j = rng.Intn(3)
			}
			return []int{i, j}
		}
		v1, v2 := pick(), pick()
		covered := map[int]bool{}
		for _, x := range append(append([]int{}, v1...), v2...) {
			covered[x] = true
		}
		if len(covered) < 3 {
			return true // leave free-track case to dedicated test
		}
		j, err := Join(a, 3, []*Relation{r1, r2}, [][]int{v1, v2})
		if err != nil {
			return false
		}
		words := allWords(a, 2)
		for i := 0; i < 40; i++ {
			x := words[rng.Intn(len(words))]
			y := words[rng.Intn(len(words))]
			z := words[rng.Intn(len(words))]
			all := []alphabet.Word{x, y, z}
			want := r1.MustContain(all[v1[0]], all[v1[1]]) && r2.MustContain(all[v2[0]], all[v2[1]])
			if j.MustContain(x, y, z) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSubsetOfAndEquivalentTo(t *testing.T) {
	a := alphabet.Lower(2)
	eq := Equality(a, 2)
	el := EqualLength(a, 2)
	pre := PrefixOf(a)

	cases := []struct {
		name   string
		r, s   *Relation
		subset bool
	}{
		{"eq ⊆ eqlen", eq, el, true},
		{"eqlen ⊄ eq", el, eq, false},
		{"eq ⊆ prefix", eq, pre, true},
		{"prefix ⊄ eqlen", pre, el, false},
		{"eq ⊆ universal", eq, Universal(a, 2), true},
		{"hamming0 ⊆ hamming1", HammingAtMost(a, 0), HammingAtMost(a, 1), true},
		{"hamming1 ⊄ hamming0", HammingAtMost(a, 1), HammingAtMost(a, 0), false},
	}
	for _, c := range cases {
		got, err := c.r.SubsetOf(c.s)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got != c.subset {
			t.Errorf("%s = %v, want %v", c.name, got, c.subset)
		}
	}

	// Equivalence: hamming<=0 ≡ eq; prefix∘prefix ≡ prefix.
	if ok, err := HammingAtMost(a, 0).EquivalentTo(eq); err != nil || !ok {
		t.Errorf("hamming0 ≡ eq: %v %v", ok, err)
	}
	pp, err := pre.Compose(pre)
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := pp.EquivalentTo(pre); err != nil || !ok {
		t.Errorf("prefix∘prefix ≡ prefix: %v %v", ok, err)
	}
	if ok, _ := eq.EquivalentTo(el); ok {
		t.Error("eq ≢ eqlen")
	}
	if _, err := eq.SubsetOf(Equality(a, 3)); err == nil {
		t.Error("arity mismatch should error")
	}
	// Serialization round trip preserves equivalence.
	back, err := ParseString(pre.FormatString())
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := back.EquivalentTo(pre); err != nil || !ok {
		t.Errorf("serialized prefix ≢ prefix: %v %v", ok, err)
	}
}

func TestEditDistanceMonotoneProperty(t *testing.T) {
	a := alphabet.Lower(2)
	var rels []*Relation
	for d := 0; d <= 2; d++ {
		r, err := EditDistanceAtMost(a, d)
		if err != nil {
			t.Fatal(err)
		}
		rels = append(rels, r)
	}
	for d := 0; d < 2; d++ {
		ok, err := rels[d].SubsetOf(rels[d+1])
		if err != nil {
			t.Fatalf("d=%d: %v", d, err)
		}
		if !ok {
			t.Errorf("edit<=%d ⊄ edit<=%d", d, d+1)
		}
		ok, err = rels[d+1].SubsetOf(rels[d])
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			t.Errorf("edit<=%d ⊆ edit<=%d should fail", d+1, d)
		}
	}
}

// difference is r \ s as r ∩ ¬s.
func difference(r, s *Relation) (*Relation, error) {
	comp, err := s.Complement()
	if err != nil {
		return nil, err
	}
	return r.Intersect(comp)
}

func TestDifference(t *testing.T) {
	a := alphabet.Lower(2)
	el := EqualLength(a, 2)
	eq := Equality(a, 2)
	// eqlen \ eq = equal length but different words: eqlen ∩ ¬eq.
	d, err := difference(el, eq)
	if err != nil {
		t.Fatal(err)
	}
	words := allWords(a, 3)
	for _, u := range words {
		for _, v := range words {
			want := len(u) == len(v) && !u.Equal(v)
			if got := d.MustContain(u, v); got != want {
				t.Errorf("eqlen\\eq(%v, %v) = %v, want %v", u.Format(a), v.Format(a), got, want)
			}
		}
	}
	if _, err := difference(el, Equality(a, 3)); err == nil {
		t.Error("arity mismatch should error")
	}
	// r \ r is empty.
	self, err := difference(eq, eq)
	if err != nil {
		t.Fatal(err)
	}
	if _, empty := self.IsEmpty(); !empty {
		t.Error("r \\ r should be empty")
	}
}
