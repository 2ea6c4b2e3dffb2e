package query

import (
	"sort"
	"strings"
	"testing"

	"ecrpq/internal/alphabet"
	"ecrpq/internal/synchro"
)

func TestBuilderBasic(t *testing.T) {
	a := alphabet.Lower(2)
	q, err := NewBuilder(a).
		Reach("x", "p1", "y").
		Reach("x", "p2", "y").
		Rel(synchro.EqualLength(a, 2), "p1", "p2").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Free) != 0 {
		t.Error("should be Boolean")
	}
	if got := q.NodeVars(); len(got) != 2 {
		t.Errorf("NodeVars = %v", got)
	}
	if got := q.PathVars(); len(got) != 2 || got[0] != "p1" {
		t.Errorf("PathVars = %v", got)
	}
	ra, ok := q.ReachAtomFor("p2")
	if !ok || ra.Src != "x" || ra.Dst != "y" {
		t.Errorf("ReachAtomFor(p2) = %v, %v", ra, ok)
	}
	if _, ok := q.ReachAtomFor("nope"); ok {
		t.Error("should not find unknown path var")
	}
}

func TestBuilderEdgeSugar(t *testing.T) {
	a := alphabet.Lower(2)
	q, err := NewBuilder(a).
		Edge("x", "a*b", "y").
		Edge("y", "(a|b)*", "z").
		Free("x", "z").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	if !q.IsCRPQ() {
		t.Error("Edge-built query should be a CRPQ")
	}
	if len(q.Reach) != 2 || len(q.Rels) != 2 {
		t.Errorf("atoms: %d reach, %d rel", len(q.Reach), len(q.Rels))
	}
	if len(q.Free) == 0 {
		t.Error("has free vars")
	}
}

func TestBuilderBadRegex(t *testing.T) {
	a := alphabet.Lower(2)
	if _, err := NewBuilder(a).Edge("x", "a(((", "y").Build(); err == nil {
		t.Error("bad regex should surface at Build")
	}
	if _, err := NewBuilder(a).Reach("x", "p", "y").Lang("p", "*").Build(); err == nil {
		t.Error("bad lang regex should surface at Build")
	}
}

func TestValidateRejects(t *testing.T) {
	a := alphabet.Lower(2)
	eq := synchro.Equality(a, 2)

	// Path variable in two reachability atoms.
	if _, err := NewBuilder(a).Reach("x", "p", "y").Reach("y", "p", "z").Build(); err == nil {
		t.Error("reused path variable should fail")
	}
	// Relation atom over undeclared path variable.
	if _, err := NewBuilder(a).Reach("x", "p", "y").Rel(eq, "p", "q").Build(); err == nil {
		t.Error("undeclared path variable should fail")
	}
	// Arity mismatch.
	if _, err := NewBuilder(a).Reach("x", "p", "y").Rel(eq, "p").Build(); err == nil {
		t.Error("arity mismatch should fail")
	}
	// Repeated path variable within one atom.
	if _, err := NewBuilder(a).Reach("x", "p", "y").Rel(eq, "p", "p").Build(); err == nil {
		t.Error("repeated path variable in atom should fail")
	}
	// Free variable not in query.
	if _, err := NewBuilder(a).Reach("x", "p", "y").Free("zz").Build(); err == nil {
		t.Error("unknown free variable should fail")
	}
	// Duplicate free variable.
	if _, err := NewBuilder(a).Reach("x", "p", "y").Free("x", "x").Build(); err == nil {
		t.Error("duplicate free variable should fail")
	}
	// Empty variable names.
	if _, err := NewBuilder(a).Reach("", "p", "y").Build(); err == nil {
		t.Error("empty node variable should fail")
	}
}

func TestIsCRPQ(t *testing.T) {
	a := alphabet.Lower(2)
	// Binary relation → not CRPQ.
	q := NewBuilder(a).
		Reach("x", "p1", "y").Reach("x", "p2", "y").
		Rel(synchro.EqualLength(a, 2), "p1", "p2").
		MustBuild()
	if q.IsCRPQ() {
		t.Error("eqlen query is not a CRPQ")
	}
	// Same path var in two unary atoms → not CRPQ.
	u := synchro.Universal(a, 1)
	q2 := NewBuilder(a).
		Reach("x", "p", "y").
		Rel(u, "p").Rel(u, "p").
		MustBuild()
	if q2.IsCRPQ() {
		t.Error("double-constrained path var is not a CRPQ")
	}
}

func TestNormalize(t *testing.T) {
	a := alphabet.Lower(2)
	q := NewBuilder(a).
		Reach("x", "p1", "y").
		Reach("y", "p2", "z").
		Rel(synchro.Equality(a, 2), "p1", "p2").
		Reach("z", "p3", "x"). // p3 unconstrained
		MustBuild()
	n := q.Normalize()
	if len(q.Rels) != 1 {
		t.Error("Normalize mutated input")
	}
	if len(n.Rels) != 2 {
		t.Fatalf("normalized rels = %d, want 2", len(n.Rels))
	}
	added := n.Rels[1]
	if !added.Rel.IsUniversal() || len(added.Paths) != 1 || added.Paths[0] != "p3" {
		t.Errorf("unexpected added atom %v", added)
	}
	// Already-normalized query gains nothing.
	n2 := n.Normalize()
	if len(n2.Rels) != len(n.Rels) {
		t.Error("double normalization added atoms")
	}
	if err := n.Validate(); err != nil {
		t.Errorf("normalized query invalid: %v", err)
	}
}

func TestParseDSL(t *testing.T) {
	q, err := ParseString(`
# the paper's Example 2.1
alphabet a b
free x y
x -[$p1]-> z
y -[$p2]-> z
rel eqlen(p1, p2)
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Free) != 2 || len(q.Reach) != 2 || len(q.Rels) != 1 {
		t.Errorf("parsed shape: free=%d reach=%d rels=%d", len(q.Free), len(q.Reach), len(q.Rels))
	}
	if q.Rels[0].Rel.Arity() != 2 {
		t.Error("eqlen should be binary")
	}
}

func TestParseCRPQSugar(t *testing.T) {
	q, err := ParseString(`
alphabet a b
x -[a*b]-> y
x -[(a|b)*]-> y
`)
	if err != nil {
		t.Fatal(err)
	}
	if !q.IsCRPQ() {
		t.Error("sugar query should be a CRPQ")
	}
	if len(q.Rels) != 2 {
		t.Errorf("rels = %d", len(q.Rels))
	}
}

func TestParseLangClause(t *testing.T) {
	q, err := ParseString(`
alphabet a b
x -[$p]-> y
lang p a* b
`)
	if err != nil {
		t.Fatal(err)
	}
	// Spaces in the regex are joined.
	if len(q.Rels) != 1 || q.Rels[0].Rel.Arity() != 1 {
		t.Errorf("lang clause parsed wrong: %v", q.Rels)
	}
}

func TestParseAllBuiltins(t *testing.T) {
	src := `
alphabet a b
x -[$p1]-> y
x -[$p2]-> y
x -[$p3]-> y
rel eq(p1, p2)
rel eqlen(p1, p2, p3)
rel prefix(p1, p2)
rel universal(p1, p2)
rel hamming<=2(p1, p2)
rel edit<=1(p1, p2)
rel lendiff<=3(p1, p2)
`
	q, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Rels) != 7 {
		t.Errorf("rels = %d, want 7", len(q.Rels))
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"x -[$p]-> y",                                  // no alphabet
		"alphabet a\nalphabet b",                       // duplicate alphabet
		"alphabet a\nfoo bar baz",                      // unknown clause
		"alphabet a\nx -[$]-> y",                       // empty path var
		"alphabet a\nx -[]-> y",                        // empty bracket
		"alphabet a\n-[$p]-> y",                        // missing src
		"alphabet a\nx -[$p]->",                        // missing dst
		"alphabet a\nrel nosuch(p)",                    // unknown relation
		"alphabet a\nx -[$p]-> y\nrel eq(p)",           // eq arity 1
		"alphabet a\nx -[$p]-> y\nrel prefix(p)",       // prefix arity 1
		"alphabet a\nx -[$p]-> y\nrel hamming<=x(p,p)", // bad bound
		"alphabet a\nx -[$p]-> y\nrel eq(p,)",          // empty arg
		"alphabet a\nx -[$p]-> y\nrel eq p q",          // missing parens
		"alphabet a\nlang p",                           // lang arity
		"alphabet a\nx -[$p]-> y\nrel eq(p, q)",        // undeclared q
		"alphabet a\nx y -[$p]-> z",                    // whitespace in var
	}
	for _, s := range bad {
		if _, err := ParseString(s); err == nil {
			t.Errorf("ParseString(%q) should fail", s)
		}
	}
}

func TestBuiltinRelationErrors(t *testing.T) {
	a := alphabet.Lower(2)
	cases := []struct {
		name  string
		arity int
	}{
		{"eq", 1}, {"eqlen", 1}, {"prefix", 3}, {"hamming<=1", 3},
		{"hamming<=-1", 2}, {"edit<=1", 1}, {"edit<=z", 2},
		{"lendiff<=1", 3}, {"lendiff<=?", 2}, {"mystery", 2},
	}
	for _, c := range cases {
		if _, err := BuiltinRelation(a, c.name, c.arity); err == nil {
			t.Errorf("BuiltinRelation(%q, %d) should fail", c.name, c.arity)
		}
	}
	// Positive cases return usable relations.
	r, err := BuiltinRelation(a, "edit<=1", 2)
	if err != nil || r.Arity() != 2 {
		t.Errorf("edit<=1: %v", err)
	}
}

func TestQueryString(t *testing.T) {
	a := alphabet.Lower(2)
	q := NewBuilder(a).
		Reach("x", "p1", "y").
		Rel(synchro.Equality(a, 2).WithName("eq"), "p1", "p1x").
		Free("x")
	// invalid (p1x undeclared), but String works on the raw struct
	s := q.q.String()
	if !strings.Contains(s, "x -[p1]-> y") || !strings.Contains(s, "eq(") {
		t.Errorf("String = %q", s)
	}
}

func TestSortedNodeVars(t *testing.T) {
	a := alphabet.Lower(2)
	q := NewBuilder(a).Reach("z", "p1", "a").Reach("m", "p2", "z").MustBuild()
	got := q.NodeVars()
	sort.Strings(got)
	if len(got) != 3 || got[0] != "a" || got[2] != "z" {
		t.Errorf("sorted NodeVars = %v", got)
	}
}

func TestParseWithRelations(t *testing.T) {
	a := alphabet.Lower(2)
	registry := map[string]*synchro.Relation{
		"mysuffixish": synchro.PrefixOf(a).Permute([]int{1, 0}),
	}
	q, err := ParseWithRelations(strings.NewReader(`
alphabet a b
x -[$p1]-> y
x -[$p2]-> y
rel mysuffixish(p1, p2)
`), registry)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Rels) != 1 || q.Rels[0].Rel.Name() != "mysuffixish" {
		t.Errorf("custom relation not resolved: %v", q.Rels)
	}
	// Arity mismatch against the registry.
	if _, err := ParseWithRelations(strings.NewReader(
		"alphabet a b\nx -[$p]-> y\nrel mysuffixish(p)"), registry); err == nil {
		t.Error("registry arity mismatch should fail")
	}
	// Alphabet mismatch.
	big := alphabet.Lower(3)
	reg2 := map[string]*synchro.Relation{"r3": synchro.Equality(big, 2)}
	if _, err := ParseWithRelations(strings.NewReader(
		"alphabet a b\nx -[$p1]-> y\nx -[$p2]-> y\nrel r3(p1, p2)"), reg2); err == nil {
		t.Error("registry alphabet mismatch should fail")
	}
	// Registry does not shadow reach parsing; builtins still work.
	q2, err := ParseWithRelations(strings.NewReader(
		"alphabet a b\nx -[$p1]-> y\nx -[$p2]-> y\nrel eq(p1, p2)"), registry)
	if err != nil || len(q2.Rels) != 1 {
		t.Errorf("builtins broken under registry: %v %v", q2, err)
	}
}

func TestSimplify(t *testing.T) {
	a := alphabet.Lower(2)
	eq := synchro.Equality(a, 2)
	q := NewBuilder(a).
		Reach("x", "p1", "y").
		Reach("x", "p2", "y").
		Rel(eq, "p1", "p2").
		Rel(eq, "p1", "p2"). // duplicate
		Rel(synchro.Universal(a, 2), "p1", "p2").
		Rel(synchro.Universal(a, 1), "p1").
		MustBuild()
	s := Simplify(q)
	if len(s.Rels) != 1 {
		t.Fatalf("simplified rels = %d, want 1", len(s.Rels))
	}
	if len(q.Rels) != 4 {
		t.Error("Simplify mutated input")
	}
	if err := s.Validate(); err != nil {
		t.Errorf("simplified query invalid: %v", err)
	}
	// Different path order is NOT a duplicate (relations need not be
	// symmetric).
	pre := synchro.PrefixOf(a)
	q2 := NewBuilder(a).
		Reach("x", "p1", "y").
		Reach("x", "p2", "y").
		Rel(pre, "p1", "p2").
		Rel(pre, "p2", "p1").
		MustBuild()
	if got := len(Simplify(q2).Rels); got != 2 {
		t.Errorf("asymmetric atoms collapsed: %d", got)
	}
}
