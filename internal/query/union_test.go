package query

import (
	"strings"
	"testing"

	"ecrpq/internal/alphabet"
)

func TestParseUnion(t *testing.T) {
	u, err := ParseUnionString(`
alphabet a b
x -[a*]-> y
or
x -[b*]-> y
or
x -[$p]-> y
lang p ab
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(u.Disjuncts) != 3 {
		t.Fatalf("disjuncts = %d", len(u.Disjuncts))
	}
	if len(u.Disjuncts[0].Free) != 0 {
		t.Error("should be Boolean")
	}
	if !strings.Contains(u.String(), "∨") {
		t.Error("String should join with ∨")
	}
}

func TestParseUnionRepeatedAlphabet(t *testing.T) {
	u, err := ParseUnionString(`
alphabet a
x -[a]-> y
or
alphabet a
x -[aa]-> y
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(u.Disjuncts) != 2 {
		t.Fatalf("disjuncts = %d", len(u.Disjuncts))
	}
}

func TestParseUnionErrors(t *testing.T) {
	bad := []string{
		"",           // empty
		"or\nor",     // only separators
		"x -[a]-> y", // no alphabet anywhere
		// Free-variable mismatch across disjuncts:
		"alphabet a\nfree x\nx -[a]-> y\nor\nx -[a]-> y",
		// Different free names:
		"alphabet a\nfree x\nx -[a]-> y\nor\nfree y\nx -[a]-> y",
	}
	for _, s := range bad {
		if _, err := ParseUnionString(s); err == nil {
			t.Errorf("ParseUnionString(%q) should fail", s)
		}
	}
}

func TestUnionValidate(t *testing.T) {
	a := alphabet.Lower(2)
	q1 := NewBuilder(a).Edge("x", "a", "y").MustBuild()
	q2 := NewBuilder(a).Edge("x", "b", "y").MustBuild()
	u := &UnionQuery{Disjuncts: []*Query{q1, q2}}
	if err := u.Validate(); err != nil {
		t.Errorf("valid union rejected: %v", err)
	}
	if err := (&UnionQuery{}).Validate(); err == nil {
		t.Error("empty union should fail")
	}
	// Alphabet size mismatch.
	b := alphabet.Lower(3)
	q3 := NewBuilder(b).Edge("x", "a", "y").MustBuild()
	u2 := &UnionQuery{Disjuncts: []*Query{q1, q3}}
	if err := u2.Validate(); err == nil {
		t.Error("alphabet mismatch should fail")
	}
}
