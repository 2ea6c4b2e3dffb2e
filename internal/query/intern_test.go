package query

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"ecrpq/internal/alphabet"
	"ecrpq/internal/synchro"
)

// withoutIntern runs f with every relation built afresh, as a parse did
// before the relation table.
func withoutIntern(f func()) {
	internRelations = false
	defer func() { internRelations = true }()
	f()
}

// internAlphabets are the alphabets of 1–5 symbols the intern tests draw
// from, each twice: the same names under two *Alphabet values (the table is
// keyed by names, never by pointer) and other names of the same size.
func internAlphabets() []*alphabet.Alphabet {
	var out []*alphabet.Alphabet
	for n := 1; n <= 5; n++ {
		other := make([]string, n)
		for i := range other {
			other[i] = fmt.Sprintf("s%d", n-i)
		}
		out = append(out, alphabet.Lower(n), alphabet.Lower(n), alphabet.MustNew(other...))
	}
	return out
}

// relationQuery is a query whose one relation atom is rel over arity fresh
// path variables, for comparing hashes.
func relationQuery(a *alphabet.Alphabet, rel *synchro.Relation) *Query {
	b := NewBuilder(a)
	var paths []string
	for i := 0; i < rel.Arity(); i++ {
		p := fmt.Sprintf("p%d", i)
		b.Reach("x", p, "y")
		paths = append(paths, p)
	}
	return b.Rel(rel, paths...).MustBuild()
}

// sameRelation fails unless the interned relation is the fresh one: the
// same Format text, the same language (where deciding it is cheap: equal
// text already means equal automata) and the same query hash — and unless
// renaming it drops the fingerprint it carries.
func sameRelation(t *testing.T, at string, a *alphabet.Alphabet, interned, fresh *synchro.Relation) {
	t.Helper()
	if got, want := interned.FormatString(), fresh.FormatString(); got != want {
		t.Fatalf("%s: interned relation formats as\n%s\nfresh as\n%s", at, got, want)
	}
	if st, _ := fresh.Size(); st <= 64 && !fresh.IsUniversal() {
		if eq, err := interned.EquivalentTo(fresh); err != nil || !eq {
			t.Fatalf("%s: interned ≢ fresh (err %v)", at, err)
		}
	}
	if interned.Fingerprint() != fresh.Fingerprint() {
		t.Fatalf("%s: fingerprint %s, fresh %s", at, interned.Fingerprint(), fresh.Fingerprint())
	}
	if renamed := interned.WithName("renamed"); renamed.Fingerprint() == interned.Fingerprint() {
		t.Fatalf("%s: renamed, the relation kept the fingerprint of its old Format text", at)
	}
	if got, want := Hash(relationQuery(a, interned)), Hash(relationQuery(a, fresh)); got != want {
		t.Fatalf("%s: query hash %s, fresh %s", at, got, want)
	}
}

// TestInternedEqualsFresh: every built-in over alphabets of 1–5 symbols with
// parameters 0–2, and every regular expression of the rex fuzz corpus, is
// the same relation from the table as built afresh — and the second lookup
// returns the very relation the first did, unless the table does not hold
// relations that large.
func TestInternedEqualsFresh(t *testing.T) {
	type builtin struct {
		name  string
		arity int
	}
	builtins := []builtin{{"eq", 2}, {"eq", 3}, {"eqlen", 2}, {"eqlen", 3}, {"universal", 2}, {"universal", 3}, {"prefix", 2}}
	for d := 0; d <= 2; d++ {
		for _, n := range []string{"hamming<=", "edit<=", "lendiff<="} {
			builtins = append(builtins, builtin{n + strconv.Itoa(d), 2})
		}
	}
	for _, a := range internAlphabets() {
		for _, b := range builtins {
			at := fmt.Sprintf("%s/%d over %v", b.name, b.arity, a)
			var fresh *synchro.Relation
			var freshErr error
			withoutIntern(func() { fresh, freshErr = BuiltinRelation(a, b.name, b.arity) })
			interned, err := BuiltinRelation(a, b.name, b.arity)
			if (err == nil) != (freshErr == nil) || (err != nil && err.Error() != freshErr.Error()) {
				t.Fatalf("%s: err %v, fresh %v", at, err, freshErr)
			}
			if err != nil {
				continue // edit<=2 over 5 symbols is past the composition bound either way
			}
			sameRelation(t, at, a, interned, fresh)
			again, _ := BuiltinRelation(a, b.name, b.arity)
			if _, tr := fresh.Size(); (again == interned) != (tr <= internMaxTransitions) {
				t.Fatalf("%s (%d transitions): a second lookup returned the first's relation: %v", at, tr, again == interned)
			}
		}
	}

	regexes := rexCorpus(t)
	a := alphabet.Lower(3)
	for _, re := range regexes {
		var fresh, interned *Query
		var freshErr, err error
		withoutIntern(func() { fresh, freshErr = NewBuilder(a).Reach("x", "p", "y").Lang("p", re).Build() })
		interned, err = NewBuilder(a).Reach("x", "p", "y").Lang("p", re).Build()
		if (err == nil) != (freshErr == nil) {
			t.Fatalf("regex %q: err %v, fresh %v", re, err, freshErr)
		}
		if err == nil {
			sameRelation(t, fmt.Sprintf("regex %q", re), a, interned.Rels[0].Rel, fresh.Rels[0].Rel)
		}
	}
}

// rexCorpus reads the regular expressions of the rex package's fuzz corpus.
func rexCorpus(t *testing.T) []string {
	t.Helper()
	files, err := filepath.Glob("../rex/testdata/fuzz/FuzzParseCompile/*")
	if err != nil || len(files) == 0 {
		t.Fatalf("rex fuzz corpus: %d files, err %v", len(files), err)
	}
	var out []string
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(data), "\n") {
			if quoted, ok := strings.CutPrefix(line, "string("); ok {
				re, err := strconv.Unquote(strings.TrimSuffix(quoted, ")"))
				if err != nil {
					t.Fatalf("%s: %v", f, err)
				}
				out = append(out, re)
			}
		}
	}
	return out
}

// internTexts are queries that name every kind of relation the table holds.
var internTexts = []string{
	"alphabet a b\nx -[$p1]-> y\nx -[$p2]-> y\nrel edit<=2(p1, p2)\nlang p1 aa(a|b)*\nlang p2 b(a|b)*",
	"alphabet a b\nx -[$p1]-> y\nx -[$p2]-> y\nx -[$p3]-> y\nrel prefix(p1, p2)\nrel prefix(p2, p3)\nlang p1 a(a|b)*",
	"alphabet a b c\nx -[a*b]-> y\ny -[(a|c)+]-> z\nrel hamming<=1(_p1, _p2)",
	"alphabet b a\nfree x\nx -[$p]-> y\nx -[$q]-> y\nrel eqlen(p, q)\nlang q (ab)*",
}

// TestInternConcurrentParse: eight goroutines parse the same texts at once
// (run under -race by `make race`) and every parse hashes as a parse
// without the table does.
func TestInternConcurrentParse(t *testing.T) {
	want := make([]string, len(internTexts))
	withoutIntern(func() {
		for i, src := range internTexts {
			q, err := ParseString(src)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = Hash(q)
		}
	})
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				for i, src := range internTexts {
					q, err := ParseString(src)
					if err != nil {
						errs <- err
						return
					}
					if got := Hash(q); got != want[i] {
						errs <- fmt.Errorf("text %d: hash %s, without the table %s", i, got, want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestInternBounded: 4·internEntries distinct regular expressions fill
// the table to internEntries and start it over four times, never leaving it
// holding more, and an automaton past internMaxTransitions is never held at
// all.
func TestInternBounded(t *testing.T) {
	a := alphabet.Lower(26)
	peak := 0
	for i := 0; i < 4*internEntries; i++ {
		var re []byte // i in base 26, one letter a digit: "ab*", "zzx*", …
		for d := i; ; d /= 26 {
			if re = append(re, byte('a'+d%26)); d < 26 {
				break
			}
		}
		re = append(re, '*')
		if _, err := NewBuilder(a).Reach("x", "p", "y").Lang("p", string(re)).Build(); err != nil {
			t.Fatalf("regex %q: %v", re, err)
		}
		held := len(relations.m)
		if held > internEntries {
			t.Fatalf("after %d regexes the table holds %d relations, over its cap of %d", i+1, held, internEntries)
		}
		peak = max(peak, held)
	}
	if peak != internEntries {
		t.Fatalf("the table peaked at %d relations, want its cap of %d", peak, internEntries)
	}
	big := "hamming<=" + strconv.Itoa(internMaxTransitions) // (d+1)·|A|² transitions
	r, err := BuiltinRelation(alphabet.Lower(2), big, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, tr := r.Size(); tr <= internMaxTransitions {
		t.Fatalf("%s has %d transitions: not past the table's bound", big, tr)
	}
	for _, held := range relations.m {
		if held == r {
			t.Fatalf("%s is held by the table", big)
		}
	}
}

// TestEditBoundRefused: the fuzz input that used to hang parsing (edit<=7
// over three or five symbols: minutes) is a typed error within 100 ms, as is every
// built-in whose automaton would be past the bound, while every edit<=d
// with d ≤ 2 over up to four symbols still builds.
func TestEditBoundRefused(t *testing.T) {
	for _, src := range []string{
		"alphabet 08Z > 7\nrel edit<=7(p, p)",
		"alphabet 0 8 Z > 7\nrel edit<=7(p, p)",
		"alphabet a b\nx -[$p]-> y\nx -[$q]-> y\nrel edit<=3(p, q)",
		"alphabet a b c d e\nx -[$p]-> y\nx -[$q]-> y\nrel edit<=2(p, q)",
		"alphabet a b\nx -[$p]-> y\nx -[$q]-> y\nrel hamming<=99999999999(p, q)",
		"alphabet a b\nx -[$p]-> y\nx -[$q]-> y\nrel lendiff<=9223372036854775807(p, q)",
		"alphabet a b c d\nrel eqlen(p, q, r, s, t, u, v, w, z)",
	} {
		start := time.Now()
		_, err := ParseString(src)
		elapsed := time.Since(start)
		var limit *synchro.LimitError
		if !errors.As(err, &limit) {
			t.Fatalf("%q: err = %v, want a *synchro.LimitError", src, err)
		}
		if elapsed > 100*time.Millisecond {
			t.Fatalf("%q: refused after %v, want < 100ms", src, elapsed)
		}
	}
	for n := 1; n <= 4; n++ {
		for d := 0; d <= 2; d++ {
			if _, err := BuiltinRelation(alphabet.Lower(n), "edit<="+strconv.Itoa(d), 2); err != nil {
				t.Fatalf("edit<=%d over %d symbols: %v", d, n, err)
			}
		}
	}
}

// BenchmarkParse is the parse layer (query.parse_us) on the two text shapes
// of the generic-search and hot-cache workloads, under new variable names on
// every iteration as a renamed request sends them: an edit<=2 fan (the
// composition the relation table keeps) and a CRPQ chain of eight regular
// expressions.
func BenchmarkParse(b *testing.B) {
	chain := []string{"a*", "b*", "(a|b)*a", "a(a|b)*", "(ab)*", "b(a|b)*b", "(a|b)*", "a*b*"}
	var chainText strings.Builder
	chainText.WriteString("alphabet a b\n")
	for i, re := range chain {
		fmt.Fprintf(&chainText, "%%[1]sx%d -[%s]-> %%[1]sx%d\n", i, re, i+1)
	}
	for _, bc := range []struct{ name, text string }{
		{"edit2-fan", "alphabet a b\n%[1]sx -[$%[1]sp1]-> %[1]sy\n%[1]sx -[$%[1]sp2]-> %[1]sy\n" +
			"rel edit<=2(%[1]sp1, %[1]sp2)\nlang %[1]sp1 aa(a|b)*\nlang %[1]sp2 b(a|b)*\n"},
		{"regex-chain", chainText.String()},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ParseString(fmt.Sprintf(bc.text, "r"+strconv.Itoa(i)+"_")); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
