package query

import (
	"strings"
	"testing"

	"ecrpq/internal/alphabet"
	"ecrpq/internal/synchro"
)

func mustAlpha(t *testing.T, names ...string) *alphabet.Alphabet {
	t.Helper()
	a, err := alphabet.New(names...)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestCanonicalRoundTrip: the same query text parsed twice, and the same
// query built through the builder with atoms in a different order, all
// canonicalize (and hash) identically.
func TestCanonicalRoundTrip(t *testing.T) {
	const dsl = "alphabet a b\nx -[$p1]-> y\nx -[$p2]-> y\nrel eqlen(p1, p2)\n"
	q1, err := ParseString(dsl)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := ParseString(dsl)
	if err != nil {
		t.Fatal(err)
	}
	if Canonical(q1) != Canonical(q2) {
		t.Fatalf("two parses of the same text canonicalize differently:\n%q\n%q",
			Canonical(q1), Canonical(q2))
	}
	if Hash(q1) != Hash(q2) {
		t.Fatal("two parses of the same text hash differently")
	}

	// Same query, atoms added in reverse order.
	a := mustAlpha(t, "a", "b")
	build := func(reversed bool) *Query {
		b := NewBuilder(a)
		if reversed {
			b.Reach("x", "p2", "y").Reach("x", "p1", "y")
		} else {
			b.Reach("x", "p1", "y").Reach("x", "p2", "y")
		}
		b.Rel(synchro.EqualLength(a, 2), "p1", "p2")
		q, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	if Canonical(build(false)) != Canonical(build(true)) {
		t.Fatal("atom order leaked into the canonical form")
	}
}

// TestCanonicalCollisionSanity: structurally different queries must not
// share a hash.
func TestCanonicalCollisionSanity(t *testing.T) {
	variants := []string{
		"alphabet a b\nx -[$p1]-> y\nx -[$p2]-> y\nrel eqlen(p1, p2)\n",
		"alphabet a b\nx -[$p1]-> y\nx -[$p2]-> y\nrel eq(p1, p2)\n",            // different relation
		"alphabet a b\nx -[$p1]-> y\nx -[$p2]-> y\nrel prefix(p1, p2)\n",        // asymmetric relation
		"alphabet a b\nx -[$p1]-> y\nx -[$p2]-> y\nrel prefix(p2, p1)\n",        // swapped arguments
		"alphabet a b\nx -[$p1]-> y\ny -[$p2]-> x\nrel eqlen(p1, p2)\n",         // different endpoints
		"alphabet a b c\nx -[$p1]-> y\nx -[$p2]-> y\nrel eqlen(p1, p2)\n",       // bigger alphabet
		"alphabet a b\nfree x\nx -[$p1]-> y\nx -[$p2]-> y\nrel eqlen(p1, p2)\n", // free variable
		"alphabet a b\nfree x y\nx -[$p1]-> y\nx -[$p2]-> y\nrel eqlen(p1, p2)\n",
		"alphabet a b\nfree y x\nx -[$p1]-> y\nx -[$p2]-> y\nrel eqlen(p1, p2)\n", // free order
		"alphabet a b\nx -[$p1]-> y\n",
		"alphabet a b\nlang p1 (a|b)*\nx -[$p1]-> y\n",
	}
	seen := make(map[string]string)
	for _, text := range variants {
		q, err := ParseString(text)
		if err != nil {
			t.Fatalf("%q: %v", text, err)
		}
		h := Hash(q)
		if prev, dup := seen[h]; dup {
			t.Fatalf("hash collision between %q and %q", prev, text)
		}
		seen[h] = text
	}
}

// TestCanonicalDistinguishesCustomRelation: a registry relation that
// shadows a built-in name still keys distinctly, because the fingerprint
// covers the automaton, not just the name.
func TestCanonicalDistinguishesCustomRelation(t *testing.T) {
	a := mustAlpha(t, "a", "b")
	builtin := NewBuilder(a).Reach("x", "p1", "y").Reach("x", "p2", "y").
		Rel(synchro.EqualLength(a, 2), "p1", "p2").MustBuild()
	shadow := NewBuilder(a).Reach("x", "p1", "y").Reach("x", "p2", "y").
		Rel(synchro.Equality(a, 2).WithName("eqlen"), "p1", "p2").MustBuild()
	if Hash(builtin) == Hash(shadow) {
		t.Fatal("custom relation shadowing a built-in name collided")
	}
	if !strings.Contains(Canonical(builtin), "rel eq-len#") {
		t.Fatalf("canonical form lost the relation name:\n%s", Canonical(builtin))
	}
}
