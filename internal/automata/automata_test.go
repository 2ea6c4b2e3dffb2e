package automata

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// buildAB returns an NFA over letters 'a','b' accepting a*b (one 'b' at the
// end of any number of 'a's).
func buildAB() *NFA[byte] {
	a := NewNFA[byte](2)
	a.SetStart(0, true)
	a.SetAccept(1, true)
	a.AddTransition(0, 'a', 0)
	a.AddTransition(0, 'b', 1)
	return a
}

// newDFA returns a DFA with a single non-accepting start state.
func newDFA() *DFA[byte] {
	d := &DFA[byte]{}
	d.start = d.AddState(false)
	return d
}

// buildEven returns a DFA over 'a' accepting words of even length.
func buildEven() *DFA[byte] {
	d := newDFA()
	d.accept[0] = true
	q1 := d.AddState(false)
	d.SetTransition(0, 'a', q1)
	d.SetTransition(q1, 'a', 0)
	return d
}

func TestNFAAccepts(t *testing.T) {
	a := buildAB()
	cases := []struct {
		w    string
		want bool
	}{
		{"b", true}, {"ab", true}, {"aaab", true},
		{"", false}, {"a", false}, {"ba", false}, {"abb", false},
	}
	for _, c := range cases {
		if got := a.Accepts([]byte(c.w)); got != c.want {
			t.Errorf("Accepts(%q) = %v, want %v", c.w, got, c.want)
		}
	}
}

func TestNFAEpsilon(t *testing.T) {
	// ε-NFA for a?b: 0 -ε-> 1, 0 -a-> 1, 1 -b-> 2.
	a := NewNFA[byte](3)
	a.SetStart(0, true)
	a.SetAccept(2, true)
	a.AddEps(0, 1)
	a.AddTransition(0, 'a', 1)
	a.AddTransition(1, 'b', 2)
	for _, c := range []struct {
		w    string
		want bool
	}{{"b", true}, {"ab", true}, {"", false}, {"a", false}, {"aab", false}} {
		if got := a.Accepts([]byte(c.w)); got != c.want {
			t.Errorf("Accepts(%q) = %v, want %v", c.w, got, c.want)
		}
	}
	b := a.RemoveEps()
	if len(b.eps[0]) != 0 || len(b.eps[1]) != 0 || len(b.eps[2]) != 0 {
		t.Error("RemoveEps left ε-transitions")
	}
	for _, c := range []struct {
		w    string
		want bool
	}{{"b", true}, {"ab", true}, {"", false}} {
		if got := b.Accepts([]byte(c.w)); got != c.want {
			t.Errorf("after RemoveEps, Accepts(%q) = %v, want %v", c.w, got, c.want)
		}
	}
}

func TestNFAEpsilonAcceptance(t *testing.T) {
	// Start state reaches accept only via ε.
	a := NewNFA[byte](2)
	a.SetStart(0, true)
	a.SetAccept(1, true)
	a.AddEps(0, 1)
	if !a.Accepts(nil) {
		t.Error("should accept ε via ε-closure")
	}
	w, empty := a.IsEmpty()
	if empty || len(w) != 0 {
		t.Errorf("IsEmpty = %v, %v; want ε witness", w, empty)
	}
}

func TestIsEmptyWitness(t *testing.T) {
	a := buildAB()
	w, empty := a.IsEmpty()
	if empty {
		t.Fatal("a*b is not empty")
	}
	if string(w) != "b" {
		t.Errorf("shortest witness = %q, want \"b\"", string(w))
	}
	if !a.Accepts(w) {
		t.Error("witness not accepted")
	}
}

func TestIsEmptyTrue(t *testing.T) {
	a := NewNFA[byte](2)
	a.SetStart(0, true)
	a.SetAccept(1, true)
	// no transitions: empty language
	if _, empty := a.IsEmpty(); !empty {
		t.Error("should be empty")
	}
	var zero NFA[byte]
	if _, empty := zero.IsEmpty(); !empty {
		t.Error("zero-value NFA should be empty")
	}
	if zero.Accepts([]byte("a")) {
		t.Error("zero-value NFA should reject")
	}
}

func TestIntersect(t *testing.T) {
	// a*b ∩ (ab)* ... a*b ∩ words of length 2 = {ab}
	ab := buildAB()
	len2 := NewNFA[byte](3)
	len2.SetStart(0, true)
	len2.SetAccept(2, true)
	for _, l := range []byte{'a', 'b'} {
		len2.AddTransition(0, l, 1)
		len2.AddTransition(1, l, 2)
	}
	prod := ab.Intersect(len2)
	for _, c := range []struct {
		w    string
		want bool
	}{{"ab", true}, {"b", false}, {"aab", false}, {"bb", false}, {"aa", false}} {
		if got := prod.Accepts([]byte(c.w)); got != c.want {
			t.Errorf("Accepts(%q) = %v, want %v", c.w, got, c.want)
		}
	}
}

func TestIntersectWithEps(t *testing.T) {
	// L1 = {a} via ε-chain, L2 = {a}
	l1 := NewNFA[byte](3)
	l1.SetStart(0, true)
	l1.AddEps(0, 1)
	l1.AddTransition(1, 'a', 2)
	l1.SetAccept(2, true)
	l2 := NewNFA[byte](2)
	l2.SetStart(0, true)
	l2.AddTransition(0, 'a', 1)
	l2.SetAccept(1, true)
	prod := l1.Intersect(l2)
	if !prod.Accepts([]byte("a")) {
		t.Error("intersection should accept a")
	}
	if prod.Accepts(nil) || prod.Accepts([]byte("aa")) {
		t.Error("intersection accepts too much")
	}
}

func TestUnion(t *testing.T) {
	onlyA := NewNFA[byte](2)
	onlyA.SetStart(0, true)
	onlyA.AddTransition(0, 'a', 1)
	onlyA.SetAccept(1, true)
	onlyB := NewNFA[byte](2)
	onlyB.SetStart(0, true)
	onlyB.AddTransition(0, 'b', 1)
	onlyB.SetAccept(1, true)
	u := onlyA.Union(onlyB)
	for _, c := range []struct {
		w    string
		want bool
	}{{"a", true}, {"b", true}, {"", false}, {"ab", false}} {
		if got := u.Accepts([]byte(c.w)); got != c.want {
			t.Errorf("Accepts(%q) = %v, want %v", c.w, got, c.want)
		}
	}
}

// Reverse returns an automaton recognizing the reversal of the language.
// ε-transitions are reversed as well. Only TestReverse builds one.
func (a *NFA[L]) Reverse() *NFA[L] {
	n := a.NumStates()
	b := NewNFA[L](n)
	for q := 0; q < n; q++ {
		b.start[q] = a.accept[q]
		b.accept[q] = a.start[q]
	}
	for p := 0; p < n; p++ {
		for _, q := range a.eps[p] {
			b.AddEps(q, p)
		}
		for l, tos := range a.trans[p] {
			for _, q := range tos {
				b.AddTransition(q, l, p)
			}
		}
	}
	return b
}

func TestReverse(t *testing.T) {
	a := buildAB() // a*b reversed = ba*
	r := a.Reverse()
	for _, c := range []struct {
		w    string
		want bool
	}{{"b", true}, {"ba", true}, {"baa", true}, {"ab", false}, {"", false}} {
		if got := r.Accepts([]byte(c.w)); got != c.want {
			t.Errorf("reverse Accepts(%q) = %v, want %v", c.w, got, c.want)
		}
	}
}

func TestTrim(t *testing.T) {
	a := buildAB()
	dead := a.AddState()          // unreachable
	a.AddTransition(1, 'a', dead) // reachable but not co-reachable... wait 1 is accepting
	unco := a.AddState()          // reachable, not co-reachable
	a.AddTransition(0, 'x', unco) // from start into dead end
	_ = dead
	tr := a.Trim()
	if tr.NumStates() != 2 {
		t.Errorf("Trim states = %d, want 2", tr.NumStates())
	}
	for _, c := range []struct {
		w    string
		want bool
	}{{"b", true}, {"aaab", true}, {"x", false}} {
		if got := tr.Accepts([]byte(c.w)); got != c.want {
			t.Errorf("trimmed Accepts(%q) = %v, want %v", c.w, got, c.want)
		}
	}
}

func TestDeterminize(t *testing.T) {
	a := buildAB()
	d := a.Determinize()
	for _, c := range []struct {
		w    string
		want bool
	}{{"b", true}, {"aab", true}, {"", false}, {"ba", false}} {
		if got := d.Accepts([]byte(c.w)); got != c.want {
			t.Errorf("DFA Accepts(%q) = %v, want %v", c.w, got, c.want)
		}
	}
}

func TestDeterminizeEmptyNFA(t *testing.T) {
	var zero NFA[byte]
	d := zero.Determinize()
	if d.Accepts(nil) || d.Accepts([]byte("a")) {
		t.Error("DFA of empty NFA should reject everything")
	}
}

func TestDFAComplete(t *testing.T) {
	d := newDFA()
	q1 := d.AddState(true)
	d.SetTransition(0, 'a', q1)
	c := d.Complete([]byte{'a', 'b'})
	for q := 0; q < c.NumStates(); q++ {
		for _, l := range []byte{'a', 'b'} {
			if _, ok := c.Step(q, l); !ok {
				t.Fatalf("Complete missing δ(%d,%c)", q, l)
			}
		}
	}
	if !c.Accepts([]byte("a")) || c.Accepts([]byte("b")) || c.Accepts([]byte("ab")) {
		t.Error("completion changed language")
	}
}

func TestDFAComplement(t *testing.T) {
	even := buildEven()
	odd := even.Complement([]byte{'a'})
	for n := 0; n < 8; n++ {
		w := make([]byte, n)
		for i := range w {
			w[i] = 'a'
		}
		if even.Accepts(w) == odd.Accepts(w) {
			t.Errorf("length %d: complement not disjoint/covering", n)
		}
	}
}

func TestDFAIntersectDifference(t *testing.T) {
	even := buildEven()
	// DFA for words of length ≥ 2 over 'a'.
	ge2 := newDFA()
	q1 := ge2.AddState(false)
	q2 := ge2.AddState(true)
	ge2.SetTransition(0, 'a', q1)
	ge2.SetTransition(q1, 'a', q2)
	ge2.SetTransition(q2, 'a', q2)
	diff := even.Complete([]byte{'a'}).Difference(ge2.Complete([]byte{'a'}))
	// even \ ge2 = {ε}
	if !diff.Accepts(nil) {
		t.Error("difference should accept ε")
	}
	if diff.Accepts([]byte("aa")) {
		t.Error("difference should reject aa")
	}
}

func TestMinimize(t *testing.T) {
	// Build a redundant DFA for (a|b)*b — minimal has 2 states.
	n := NewNFA[byte](2)
	n.SetStart(0, true)
	n.AddTransition(0, 'a', 0)
	n.AddTransition(0, 'b', 0)
	n.AddTransition(0, 'b', 1)
	n.SetAccept(1, true)
	d := n.Determinize()
	m := d.Minimize()
	if m.NumStates() != 2 {
		t.Errorf("minimized states = %d, want 2", m.NumStates())
	}
	for _, c := range []struct {
		w    string
		want bool
	}{{"b", true}, {"ab", true}, {"abab", true}, {"", false}, {"ba", false}} {
		if got := m.Accepts([]byte(c.w)); got != c.want {
			t.Errorf("minimized Accepts(%q) = %v, want %v", c.w, got, c.want)
		}
	}
}

// Letters returns the set of letters appearing on any transition, in no
// particular order.
func (a *NFA[L]) Letters() []L {
	seen := make(map[L]struct{})
	var out []L
	for _, m := range a.trans {
		for l := range m {
			if _, ok := seen[l]; !ok {
				seen[l] = struct{}{}
				out = append(out, l)
			}
		}
	}
	return out
}

// Equivalent reports whether a and b recognize the same language over the
// union of their letter sets, by determinizing, completing, minimizing and
// comparing canonical forms (via cross-checking both difference languages).
func Equivalent[L comparable](a, b *NFA[L]) bool {
	letters := unionLetters(a.Letters(), b.Letters())
	da := a.Determinize().Complete(letters)
	db := b.Determinize().Complete(letters)
	if _, empty := da.Difference(db).ToNFA().IsEmpty(); !empty {
		return false
	}
	if _, empty := db.Difference(da).ToNFA().IsEmpty(); !empty {
		return false
	}
	return true
}

func unionLetters[L comparable](xs, ys []L) []L {
	seen := make(map[L]struct{}, len(xs)+len(ys))
	var out []L
	for _, l := range xs {
		if _, ok := seen[l]; !ok {
			seen[l] = struct{}{}
			out = append(out, l)
		}
	}
	for _, l := range ys {
		if _, ok := seen[l]; !ok {
			seen[l] = struct{}{}
			out = append(out, l)
		}
	}
	return out
}

// Difference returns a DFA for L(d) \ L(e), the synchronous product
// accepting where d accepts and e does not. Both automata should be
// complete over a common letter set for the result to be exact; Equivalent
// arranges this.
func (d *DFA[L]) Difference(e *DFA[L]) *DFA[L] {
	type pair struct{ p, q int }
	out := &DFA[L]{start: -1}
	idx := make(map[pair]int)
	var queue []pair
	get := func(pr pair) int {
		if i, ok := idx[pr]; ok {
			return i
		}
		i := out.AddState(d.accept[pr.p] && !e.accept[pr.q])
		idx[pr] = i
		queue = append(queue, pr)
		return i
	}
	out.start = get(pair{d.start, e.start})
	for i := 0; i < len(queue); i++ {
		pr := queue[i]
		from := idx[pr]
		for l, p2 := range d.trans[pr.p] {
			if q2, ok := e.Step(pr.q, l); ok {
				out.SetTransition(from, l, get(pair{p2, q2}))
			}
		}
	}
	return out
}

func TestEquivalent(t *testing.T) {
	// a*b two ways.
	a1 := buildAB()
	a2 := NewNFA[byte](3)
	a2.SetStart(0, true)
	a2.AddTransition(0, 'a', 1)
	a2.AddTransition(1, 'a', 1)
	a2.AddTransition(1, 'b', 2)
	a2.AddTransition(0, 'b', 2)
	a2.SetAccept(2, true)
	if !Equivalent(a1, a2) {
		t.Error("two a*b automata should be equivalent")
	}
	a3 := NewNFA[byte](2)
	a3.SetStart(0, true)
	a3.AddTransition(0, 'a', 1)
	a3.SetAccept(1, true)
	if Equivalent(a1, a3) {
		t.Error("a*b vs {a} should differ")
	}
}

func TestValidate(t *testing.T) {
	a := buildAB()
	if err := a.Validate(); err != nil {
		t.Errorf("valid automaton rejected: %v", err)
	}
	a.trans[0]['z'] = append(a.trans[0]['z'], 99)
	if err := a.Validate(); err == nil {
		t.Error("out-of-range transition should fail validation")
	}
	b := NewNFA[byte](1)
	b.eps[0] = append(b.eps[0], 5)
	if err := b.Validate(); err == nil {
		t.Error("out-of-range ε should fail validation")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := buildAB()
	b := a.Clone()
	b.AddTransition(1, 'a', 1)
	b.SetAccept(0, true)
	if a.Accepts(nil) {
		t.Error("mutating clone changed original acceptance")
	}
	if a.Accepts([]byte("ba")) {
		t.Error("mutating clone changed original transitions")
	}
}

func TestDuplicateTransitionsIgnored(t *testing.T) {
	a := NewNFA[byte](2)
	a.AddTransition(0, 'a', 1)
	a.AddTransition(0, 'a', 1)
	a.AddEps(0, 1)
	a.AddEps(0, 1)
	if a.NumTransitions() != 1 {
		t.Errorf("NumTransitions = %d, want 1", a.NumTransitions())
	}
	if len(a.eps[0]) != 1 {
		t.Errorf("eps count = %d, want 1", len(a.eps[0]))
	}
}

// randomNFA builds a random NFA over letters 0..alpha-1 with n states.
func randomNFA(rng *rand.Rand, n, alpha, density int) *NFA[int] {
	a := NewNFA[int](n)
	a.SetStart(rng.Intn(n), true)
	for i := 0; i < n; i++ {
		if rng.Intn(3) == 0 {
			a.SetAccept(i, true)
		}
	}
	for i := 0; i < density; i++ {
		a.AddTransition(rng.Intn(n), rng.Intn(alpha), rng.Intn(n))
	}
	for i := 0; i < density/4; i++ {
		a.AddEps(rng.Intn(n), rng.Intn(n))
	}
	return a
}

func randomWord(rng *rand.Rand, alpha, maxLen int) []int {
	w := make([]int, rng.Intn(maxLen+1))
	for i := range w {
		w[i] = rng.Intn(alpha)
	}
	return w
}

func TestDeterminizeAgreesWithNFAProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomNFA(rng, 2+rng.Intn(6), 2, 10)
		d := a.Determinize()
		for i := 0; i < 30; i++ {
			w := randomWord(rng, 2, 8)
			if a.Accepts(w) != d.Accepts(w) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestMinimizePreservesLanguageProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomNFA(rng, 2+rng.Intn(6), 2, 10)
		d := a.Determinize()
		m := d.Minimize()
		if m.NumStates() > d.NumStates()+1 {
			return false
		}
		for i := 0; i < 30; i++ {
			w := randomWord(rng, 2, 8)
			if d.Accepts(w) != m.Accepts(w) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestIntersectSemanticsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomNFA(rng, 2+rng.Intn(5), 2, 8)
		b := randomNFA(rng, 2+rng.Intn(5), 2, 8)
		p := a.Intersect(b)
		u := a.Union(b)
		for i := 0; i < 30; i++ {
			w := randomWord(rng, 2, 7)
			ia, ib := a.Accepts(w), b.Accepts(w)
			if p.Accepts(w) != (ia && ib) {
				return false
			}
			if u.Accepts(w) != (ia || ib) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestTrimAndRemoveEpsPreserveLanguageProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomNFA(rng, 2+rng.Intn(6), 2, 10)
		tr := a.Trim()
		re := a.RemoveEps()
		for i := 0; i < 30; i++ {
			w := randomWord(rng, 2, 8)
			want := a.Accepts(w)
			if tr.Accepts(w) != want || re.Accepts(w) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestEmptinessWitnessIsShortestProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomNFA(rng, 2+rng.Intn(6), 2, 10)
		w, empty := a.IsEmpty()
		if empty {
			// Cross-check: no accepted word up to length 6.
			for i := 0; i < 100; i++ {
				if a.Accepts(randomWord(rng, 2, 6)) {
					return false
				}
			}
			return true
		}
		if !a.Accepts(w) {
			return false
		}
		// No shorter accepted word: exhaustively check lengths < len(w).
		var check func(prefix []int) bool
		check = func(prefix []int) bool {
			if len(prefix) >= len(w) {
				return false
			}
			if a.Accepts(prefix) {
				return true
			}
			for l := 0; l < 2; l++ {
				if check(append(prefix, l)) {
					return true
				}
			}
			return false
		}
		if len(w) > 0 && len(w) <= 8 && check(nil) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestComplementSemanticsProperty(t *testing.T) {
	letters := []int{0, 1}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomNFA(rng, 2+rng.Intn(5), 2, 8)
		d := a.Determinize()
		comp := d.Complement(letters)
		for i := 0; i < 30; i++ {
			w := randomWord(rng, 2, 7)
			if d.Accepts(w) == comp.Accepts(w) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestEquivalentReflexiveProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomNFA(rng, 2+rng.Intn(5), 2, 8)
		b := a.Trim().RemoveEps()
		return Equivalent(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestDFACloneIndependence(t *testing.T) {
	d := buildEven()
	c := d.Clone()
	c.accept[0] = false
	if !d.Accepts(nil) {
		t.Error("clone mutation leaked")
	}
}

func TestMinimizeKeepsStartSinkWhenNeeded(t *testing.T) {
	// Empty language DFA: start state is its own sink; trimSink must not
	// remove the start state.
	d := newDFA()
	d.SetTransition(0, 'a', 0)
	m := d.Minimize()
	if m.NumStates() < 1 {
		t.Fatal("minimize removed start state")
	}
	if m.Accepts(nil) || m.Accepts([]byte("a")) {
		t.Error("empty language violated")
	}
}

func TestLettersAndCounts(t *testing.T) {
	a := buildAB()
	ls := a.Letters()
	if len(ls) != 2 {
		t.Errorf("Letters = %v", ls)
	}
	if a.NumTransitions() != 2 {
		t.Errorf("NumTransitions = %d", a.NumTransitions())
	}
	if got := len(a.StartStates()); got != 1 {
		t.Errorf("start states = %d", got)
	}
	if got := len(a.AcceptStates()); got != 1 {
		t.Errorf("accept states = %d", got)
	}
}
