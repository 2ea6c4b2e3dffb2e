package rex

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"ecrpq/internal/alphabet"
)

func match(t *testing.T, a *alphabet.Alphabet, expr, word string) bool {
	t.Helper()
	n, err := CompileString(a, expr)
	if err != nil {
		t.Fatalf("compile %q: %v", expr, err)
	}
	w, err := alphabet.ParseWord(a, word)
	if err != nil {
		t.Fatalf("word %q: %v", word, err)
	}
	return n.Accepts(w)
}

func TestBasicMatching(t *testing.T) {
	a := alphabet.Lower(3)
	cases := []struct {
		expr, word string
		want       bool
	}{
		{"a", "a", true},
		{"a", "b", false},
		{"a", "", false},
		{"ab", "ab", true},
		{"ab", "ba", false},
		{"a|b", "a", true},
		{"a|b", "b", true},
		{"a|b", "c", false},
		{"a*", "", true},
		{"a*", "aaaa", true},
		{"a*", "ab", false},
		{"a*b", "b", true},
		{"a*b", "aab", true},
		{"a*b", "aaba", false},
		{"a+", "", false},
		{"a+", "a", true},
		{"a+", "aaa", true},
		{"a?", "", true},
		{"a?", "a", true},
		{"a?", "aa", false},
		{"(ab)*", "", true},
		{"(ab)*", "abab", true},
		{"(ab)*", "aba", false},
		{"(a|b)*", "abba", true},
		{"(a|b)*c", "abc", true},
		{"(a|b)*c", "abcc", false},
		{".", "a", true},
		{".", "c", true},
		{".", "", false},
		{".*", "abcabc", true},
		{"[ab]", "a", true},
		{"[ab]", "b", true},
		{"[ab]", "c", false},
		{"[ab]*c", "abbac", true},
		{"ε", "", true},
		{"ε", "a", false},
		{"()", "", true},
		{"", "", true},
		{"", "a", false},
		{"a|", "", true},
		{"a|", "a", true},
	}
	for _, c := range cases {
		if got := match(t, a, c.expr, c.word); got != c.want {
			t.Errorf("%q matching %q = %v, want %v", c.expr, c.word, got, c.want)
		}
	}
}

func TestMultiCharSymbols(t *testing.T) {
	a := alphabet.MustNew("load", "store")
	n, err := CompileString(a, "<load>*<store>")
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	w := alphabet.MustParseWord(a, "load.load.store")
	if !n.Accepts(w) {
		t.Error("should accept load.load.store")
	}
	w2 := alphabet.MustParseWord(a, "store.load")
	if n.Accepts(w2) {
		t.Error("should reject store.load")
	}
}

func TestEscapes(t *testing.T) {
	a := alphabet.MustNew("*", "a")
	n, err := CompileString(a, `\*a`)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if !n.Accepts(alphabet.Word{0, 1}) {
		t.Error("escaped star should match literal symbol")
	}
}

func TestParseErrors(t *testing.T) {
	a := alphabet.Lower(2)
	for _, bad := range []string{
		"(", ")", "a)", "(a", "*", "a|*", "[", "[]", "[z]", "z",
		"<", "<zz>", `\`, `\z`, "a**(", "+",
	} {
		if _, err := Parse(a, bad); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}

func TestNestedQuantifiers(t *testing.T) {
	a := alphabet.Lower(2)
	cases := []struct {
		expr, word string
		want       bool
	}{
		{"(a*)*", "", true},
		{"(a*)*", "aaa", true},
		{"(a+b)+", "ab", true},
		{"(a+b)+", "aabab", true},
		{"(a+b)+", "ba", false},
		{"a?*", "aaa", true},
	}
	for _, c := range cases {
		if got := match(t, a, c.expr, c.word); got != c.want {
			t.Errorf("%q matching %q = %v, want %v", c.expr, c.word, got, c.want)
		}
	}
}

func TestUnionPrecedence(t *testing.T) {
	a := alphabet.Lower(3)
	// ab|c means (ab)|c, not a(b|c)
	if !match(t, a, "ab|c", "c") {
		t.Error("ab|c should match c")
	}
	if !match(t, a, "ab|c", "ab") {
		t.Error("ab|c should match ab")
	}
	if match(t, a, "ab|c", "ac") {
		t.Error("ab|c should not match ac")
	}
}

func TestCompiledAutomatonIsClean(t *testing.T) {
	a := alphabet.Lower(2)
	n := MustCompileString(a, "(a|b)*abb")
	if err := n.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// Trim guarantees all states useful; a rough sanity bound on size.
	if n.NumStates() > 40 {
		t.Errorf("compiled NFA unexpectedly large: %d states", n.NumStates())
	}
}

// naiveMatch interprets a tiny regex subset (literal symbols, *, |,
// parentheses) by brute-force enumeration, used as an oracle on random small
// expressions.
type gen struct {
	rng   *rand.Rand
	depth int
}

func (g *gen) expr() string {
	g.depth++
	defer func() { g.depth-- }()
	if g.depth > 3 {
		return g.leaf()
	}
	switch g.rng.Intn(5) {
	case 0:
		return g.leaf()
	case 1:
		return g.expr() + g.expr()
	case 2:
		return "(" + g.expr() + "|" + g.expr() + ")"
	case 3:
		return "(" + g.expr() + ")*"
	default:
		return "(" + g.expr() + ")?"
	}
}

func (g *gen) leaf() string {
	return string(rune('a' + g.rng.Intn(2)))
}

// matchOracle does exponential backtracking matching of the generated
// expressions (which use only literals, concat, |, *, ?).
func matchOracle(expr, w string) bool {
	type state struct{ e, pos int }
	// Parse into a tree using a recursive descent identical in shape to the
	// generator output; simpler: reuse the package parser via a 2-symbol
	// alphabet and derivative-free NFA — but that's circular. Instead
	// memoized recursive matcher over the expression string.
	var memo map[[3]int]bool
	var matchRange func(lo, hi, wlo, whi int) bool
	// split alternatives at top level of [lo,hi)
	topSplit := func(lo, hi int, sep byte) []int {
		depth := 0
		var cuts []int
		for i := lo; i < hi; i++ {
			switch expr[i] {
			case '(':
				depth++
			case ')':
				depth--
			case sep:
				if depth == 0 {
					cuts = append(cuts, i)
				}
			}
		}
		return cuts
	}
	// first factor of [lo,hi): returns end index of the factor (including
	// postfix stars and question marks).
	factorEnd := func(lo, hi int) int {
		i := lo
		if expr[i] == '(' {
			depth := 1
			i++
			for depth > 0 {
				if expr[i] == '(' {
					depth++
				} else if expr[i] == ')' {
					depth--
				}
				i++
			}
		} else {
			i++
		}
		for i < hi && (expr[i] == '*' || expr[i] == '?') {
			i++
		}
		return i
	}
	var matchFactor func(lo, hi, wlo, whi int) bool
	matchRange = func(lo, hi, wlo, whi int) bool {
		if lo == hi {
			return wlo == whi
		}
		if cuts := topSplit(lo, hi, '|'); len(cuts) > 0 {
			prev := lo
			for _, c := range append(cuts, hi) {
				if matchRange(prev, c, wlo, whi) {
					return true
				}
				prev = c + 1
			}
			return false
		}
		fe := factorEnd(lo, hi)
		if fe == hi {
			return matchFactor(lo, hi, wlo, whi)
		}
		for cut := wlo; cut <= whi; cut++ {
			if matchFactor(lo, fe, wlo, cut) && matchRange(fe, hi, cut, whi) {
				return true
			}
		}
		return false
	}
	matchFactor = func(lo, hi, wlo, whi int) bool {
		if expr[hi-1] == '*' {
			key := [3]int{lo<<20 | hi, wlo, whi}
			if v, ok := memo[key]; ok {
				return v
			}
			memo[key] = false // guard against ε-cycles
			res := false
			if wlo == whi {
				res = true
			} else {
				for cut := wlo + 1; cut <= whi; cut++ {
					if matchRange(lo, hi-1, wlo, cut) && matchFactor(lo, hi, cut, whi) {
						res = true
						break
					}
				}
				// also the body may match ε then rest must be ε-matched: covered by wlo==whi base
			}
			memo[key] = res
			return res
		}
		if expr[hi-1] == '?' {
			if wlo == whi {
				return true
			}
			return matchFactor(lo, hi-1, wlo, whi)
		}
		if expr[lo] == '(' {
			return matchRange(lo+1, hi-1, wlo, whi)
		}
		return hi-lo == 1 && whi-wlo == 1 && w[wlo] == expr[lo]
	}
	memo = make(map[[3]int]bool)
	return matchRange(0, len(expr), 0, len(w))
}

func TestCompileAgainstOracleProperty(t *testing.T) {
	a := alphabet.Lower(2)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := &gen{rng: rng}
		exprSrc := g.expr()
		n, err := CompileString(a, exprSrc)
		if err != nil {
			return false
		}
		for i := 0; i < 20; i++ {
			wl := rng.Intn(6)
			var sb strings.Builder
			for j := 0; j < wl; j++ {
				sb.WriteByte(byte('a' + rng.Intn(2)))
			}
			ws := sb.String()
			w := alphabet.MustParseWord(a, ws)
			if n.Accepts(w) != matchOracle(exprSrc, ws) {
				t.Logf("mismatch: expr=%q word=%q nfa=%v", exprSrc, ws, n.Accepts(w))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
