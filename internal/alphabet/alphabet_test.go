package alphabet

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestNewAndLookup(t *testing.T) {
	a, err := New("a", "b", "c")
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if a.Size() != 3 {
		t.Fatalf("Size = %d, want 3", a.Size())
	}
	for i, name := range []string{"a", "b", "c"} {
		s, ok := a.Lookup(name)
		if !ok || s != Symbol(i) {
			t.Errorf("Lookup(%q) = %v,%v, want %d,true", name, s, ok, i)
		}
		if a.Name(Symbol(i)) != name {
			t.Errorf("Name(%d) = %q, want %q", i, a.Name(Symbol(i)), name)
		}
	}
	if _, ok := a.Lookup("z"); ok {
		t.Error("Lookup(z) should fail")
	}
}

func TestNewRejectsDuplicates(t *testing.T) {
	if _, err := New("a", "a"); err == nil {
		t.Fatal("New with duplicates should fail")
	}
}

func TestAddRejectsBadNames(t *testing.T) {
	a := MustNew("x")
	for _, bad := range []string{"", "a b", "a\tb", "a\nb"} {
		if _, err := a.Add(bad); err == nil {
			t.Errorf("Add(%q) should fail", bad)
		}
	}
}

func TestLower(t *testing.T) {
	a := Lower(3)
	if a.Size() != 3 {
		t.Fatalf("Lower(3).Size = %d", a.Size())
	}
	if n := a.Name(2); n != "c" {
		t.Errorf("Name(2) = %q, want c", n)
	}
	defer func() {
		if recover() == nil {
			t.Error("Lower(0) should panic")
		}
	}()
	Lower(0)
}

func TestContains(t *testing.T) {
	a := Lower(2)
	if !a.Contains(0) || !a.Contains(1) {
		t.Error("Contains should accept members")
	}
	if a.Contains(2) || a.Contains(Pad) {
		t.Error("Contains should reject non-members and Pad")
	}
}

func TestExtendDoesNotMutate(t *testing.T) {
	a := Lower(2)
	b, err := a.Extend("x", "y")
	if err != nil {
		t.Fatalf("Extend: %v", err)
	}
	if a.Size() != 2 {
		t.Errorf("original mutated: size %d", a.Size())
	}
	if b.Size() != 4 {
		t.Errorf("extension size %d, want 4", b.Size())
	}
	sa, _ := a.Lookup("a")
	sb, _ := b.Lookup("a")
	if sa != sb {
		t.Errorf("symbol value changed across Extend: %d vs %d", sa, sb)
	}
	if _, err := a.Extend("a"); err == nil {
		t.Error("Extend with existing name should fail")
	}
}

func TestParseWordJuxtaposed(t *testing.T) {
	a := Lower(3)
	w, err := ParseWord(a, "abca")
	if err != nil {
		t.Fatalf("ParseWord: %v", err)
	}
	want := Word{0, 1, 2, 0}
	if !w.Equal(want) {
		t.Errorf("got %v, want %v", w, want)
	}
	if w.Format(a) != "abca" {
		t.Errorf("Format = %q", w.Format(a))
	}
}

func TestParseWordSeparated(t *testing.T) {
	a := MustNew("load", "store")
	w, err := ParseWord(a, "load.store.load")
	if err != nil {
		t.Fatalf("ParseWord: %v", err)
	}
	if !w.Equal(Word{0, 1, 0}) {
		t.Errorf("got %v", w)
	}
	if w.Format(a) != "load.store.load" {
		t.Errorf("Format = %q", w.Format(a))
	}
}

func TestParseWordEmpty(t *testing.T) {
	a := Lower(2)
	for _, text := range []string{"", "ε", "  "} {
		w, err := ParseWord(a, text)
		if err != nil || len(w) != 0 {
			t.Errorf("ParseWord(%q) = %v, %v; want empty", text, w, err)
		}
	}
	if (Word{}).Format(a) != "ε" {
		t.Error("empty word should format as ε")
	}
}

func TestParseWordUnknownSymbol(t *testing.T) {
	a := Lower(2)
	if _, err := ParseWord(a, "abz"); err == nil {
		t.Error("should reject unknown symbol")
	}
	if _, err := ParseWord(a, "a.q"); err == nil {
		t.Error("should reject unknown separated symbol")
	}
}

func TestWordValid(t *testing.T) {
	a := Lower(2)
	if !(Word{0, 1}).Valid(a) {
		t.Error("valid word rejected")
	}
	if (Word{0, 5}).Valid(a) {
		t.Error("invalid word accepted")
	}
	if (Word{Pad}).Valid(a) {
		t.Error("Pad in word accepted")
	}
}

func TestConvolveExampleFromPaper(t *testing.T) {
	// aab ⊗ c ⊗ bb = (a,c,b)(a,⊥,b)(b,⊥,⊥)  — with a=0,b=1,c=2
	a := Lower(3)
	w1 := MustParseWord(a, "aab")
	w2 := MustParseWord(a, "c")
	w3 := MustParseWord(a, "bb")
	conv := Convolve(w1, w2, w3)
	want := []Tuple{{0, 2, 1}, {0, Pad, 1}, {1, Pad, Pad}}
	if len(conv) != len(want) {
		t.Fatalf("len = %d, want %d", len(conv), len(want))
	}
	for i := range want {
		if !slices.Equal(conv[i], want[i]) {
			t.Errorf("position %d: got %v, want %v", i, conv[i], want[i])
		}
	}
}

func TestConvolveEmptyWords(t *testing.T) {
	if got := Convolve(Word{}, Word{}); len(got) != 0 {
		t.Errorf("convolution of empty words should be empty, got %v", got)
	}
	if got := Convolve(); got != nil {
		t.Errorf("convolution of no words should be nil, got %v", got)
	}
}

func TestDeconvolveRoundTrip(t *testing.T) {
	a := Lower(3)
	words := []Word{MustParseWord(a, "ab"), MustParseWord(a, ""), MustParseWord(a, "ccc")}
	conv := Convolve(words...)
	back, err := Deconvolve(3, conv)
	if err != nil {
		t.Fatalf("Deconvolve: %v", err)
	}
	for i := range words {
		if !back[i].Equal(words[i]) {
			t.Errorf("track %d: got %v, want %v", i, back[i], words[i])
		}
	}
}

func TestDeconvolveRejectsInvalid(t *testing.T) {
	// Track resumes after padding.
	bad := []Tuple{{0, Pad}, {0, 1}}
	if _, err := Deconvolve(2, bad); err == nil {
		t.Error("pad-then-symbol should be rejected")
	}
	// All-padding letter.
	bad2 := []Tuple{{0, 0}, {Pad, Pad}}
	if _, err := Deconvolve(2, bad2); err == nil {
		t.Error("all-pad letter should be rejected")
	}
	// Wrong arity.
	bad3 := []Tuple{{0}}
	if _, err := Deconvolve(2, bad3); err == nil {
		t.Error("wrong arity should be rejected")
	}
}

func TestConvolveDeconvolveProperty(t *testing.T) {
	a := Lower(4)
	syms := a.Symbols()
	f := func(seed int64, lens [3]uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		words := make([]Word, 3)
		for i := range words {
			n := int(lens[i] % 12)
			w := make(Word, n)
			for j := range w {
				w[j] = syms[rng.Intn(len(syms))]
			}
			words[i] = w
		}
		conv := Convolve(words...)
		back, err := Deconvolve(3, conv)
		if err != nil {
			return false
		}
		for i := range words {
			if !back[i].Equal(words[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTupleKeyRoundTripProperty(t *testing.T) {
	f := func(raw []int16) bool {
		tup := make(Tuple, len(raw))
		for i, v := range raw {
			if v < 0 {
				tup[i] = Pad
			} else {
				tup[i] = Symbol(v)
			}
		}
		back, err := TupleFromKey(tup.Key())
		return err == nil && slices.Equal(back, tup)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTupleKeyInjective(t *testing.T) {
	a := Lower(2)
	ts := AllTuples(a, 2)
	seen := make(map[string]Tuple)
	for _, tp := range ts {
		k := tp.Key()
		if prev, ok := seen[k]; ok {
			t.Fatalf("key collision: %v vs %v", prev, tp)
		}
		seen[k] = tp
	}
}

func TestTupleFromKeyMalformed(t *testing.T) {
	if _, err := TupleFromKey("abc"); err == nil {
		t.Error("length not divisible by 4 should fail")
	}
}

func TestAllTuplesCount(t *testing.T) {
	a := Lower(2)
	// (|A|+1)^k - 1 with |A|=2, k=3: 27-1 = 26
	got := AllTuples(a, 3)
	if len(got) != 26 {
		t.Fatalf("len = %d, want 26", len(got))
	}
	for _, tp := range got {
		allPad := true
		for _, s := range tp {
			if s != Pad {
				allPad = false
			}
		}
		if allPad {
			t.Fatal("all-pad tuple included")
		}
	}
}

// SortTuples sorts tuples lexicographically (Pad sorts before any symbol).
func SortTuples(ts []Tuple) {
	sort.Slice(ts, func(i, j int) bool { return compareTuples(ts[i], ts[j]) < 0 })
}

func compareTuples(a, b Tuple) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}

func TestSortTuples(t *testing.T) {
	ts := []Tuple{{1, 0}, {Pad, 1}, {0, Pad}, {0, 0}}
	SortTuples(ts)
	want := []Tuple{{Pad, 1}, {0, Pad}, {0, 0}, {1, 0}}
	for i := range want {
		if !slices.Equal(ts[i], want[i]) {
			t.Fatalf("position %d: got %v, want %v", i, ts[i], want[i])
		}
	}
}

func TestCompareTuplesLengths(t *testing.T) {
	if compareTuples(Tuple{0}, Tuple{0, 1}) >= 0 {
		t.Error("shorter prefix should sort first")
	}
	if compareTuples(Tuple{0, 1}, Tuple{0}) <= 0 {
		t.Error("longer should sort after its prefix")
	}
	if compareTuples(Tuple{0, 1}, Tuple{0, 1}) != 0 {
		t.Error("equal tuples should compare 0")
	}
}

func TestWordClone(t *testing.T) {
	w := Word{0, 1}
	c := w.Clone()
	c[0] = 5
	if w[0] != 0 {
		t.Error("Clone should not alias")
	}
	if Word(nil).Clone() != nil {
		t.Error("nil clone should be nil")
	}
}

func TestAlphabetString(t *testing.T) {
	a := Lower(2)
	if a.String() != "{a, b}" {
		t.Errorf("String = %q", a.String())
	}
	if a.Name(Pad) != "⊥" {
		t.Errorf("Name(Pad) = %q", a.Name(Pad))
	}
	if a.Name(99) != "?99" {
		t.Errorf("Name(99) = %q", a.Name(99))
	}
}
