package recog

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ecrpq/internal/alphabet"
	"ecrpq/internal/automata"
	"ecrpq/internal/core"
	"ecrpq/internal/graphdb"
	"ecrpq/internal/query"
	"ecrpq/internal/rex"
	"ecrpq/internal/synchro"
)

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

func TestNewAndContains(t *testing.T) {
	a := alphabet.Lower(2)
	// R = a* × b*  ∪  b+ × a+
	r, err := New(a, 2,
		Term{Langs: []*automata.NFA[alphabet.Symbol]{rex.MustCompileString(a, "a*"), rex.MustCompileString(a, "b*")}},
		Term{Langs: []*automata.NFA[alphabet.Symbol]{rex.MustCompileString(a, "b+"), rex.MustCompileString(a, "a+")}},
	)
	if err != nil {
		t.Fatal(err)
	}
	words := allWords(a, 3)
	for _, u := range words {
		for _, v := range words {
			want := (allOf(u, 0) && allOf(v, 1)) ||
				(len(u) > 0 && allOf(u, 1) && len(v) > 0 && allOf(v, 0))
			got, err := r.Contains(u, v)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("R(%v, %v) = %v, want %v", u.Format(a), v.Format(a), got, want)
			}
		}
	}
	if _, err := r.Contains(words[0]); err == nil {
		t.Error("wrong arity should error")
	}
}

func allOf(w alphabet.Word, sym alphabet.Symbol) bool {
	for _, s := range w {
		if s != sym {
			return false
		}
	}
	return true
}

func TestNewErrors(t *testing.T) {
	a := alphabet.Lower(2)
	if _, err := New(a, 0); err == nil {
		t.Error("arity 0 should error")
	}
	if _, err := New(a, 2, Term{Langs: []*automata.NFA[alphabet.Symbol]{rex.MustCompileString(a, "a")}}); err == nil {
		t.Error("term arity mismatch should error")
	}
	if _, err := New(a, 1, Term{Langs: []*automata.NFA[alphabet.Symbol]{nil}}); err == nil {
		t.Error("nil language should error")
	}
}

func TestToSynchronous(t *testing.T) {
	a := alphabet.Lower(2)
	r, err := New(a, 2,
		Term{Langs: []*automata.NFA[alphabet.Symbol]{rex.MustCompileString(a, "a*"), rex.MustCompileString(a, "b*")}},
		Term{Langs: []*automata.NFA[alphabet.Symbol]{rex.MustCompileString(a, "ab"), rex.MustCompileString(a, "ba")}},
	)
	if err != nil {
		t.Fatal(err)
	}
	s, err := r.ToSynchronous()
	if err != nil {
		t.Fatal(err)
	}
	words := allWords(a, 3)
	for _, u := range words {
		for _, v := range words {
			want, _ := r.Contains(u, v)
			got, err := s.Contains(u, v)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("synchronous differs at (%v, %v): %v vs %v",
					u.Format(a), v.Format(a), got, want)
			}
		}
	}
	// Empty relation converts to the empty synchronous relation.
	e, err := New(a, 2)
	if err != nil {
		t.Fatal(err)
	}
	se, err := e.ToSynchronous()
	if err != nil {
		t.Fatal(err)
	}
	if _, empty := se.IsEmpty(); !empty {
		t.Error("empty recognizable relation should convert to empty")
	}
}

// TestToUCRPQEquivalence: the UCRPQ translation must agree with evaluating
// the CRPQ+Recognizable query directly (via ToSynchronous) on random
// databases.
func TestToUCRPQEquivalence(t *testing.T) {
	a := alphabet.Lower(2)
	base := query.NewBuilder(a).
		Reach("x", "p1", "y").
		Reach("y", "p2", "z").
		Lang("p1", "(a|b)*").
		Lang("p2", "(a|b)*").
		MustBuild()
	rec, err := New(a, 2,
		Term{Langs: []*automata.NFA[alphabet.Symbol]{rex.MustCompileString(a, "a+"), rex.MustCompileString(a, "b+")}},
		Term{Langs: []*automata.NFA[alphabet.Symbol]{rex.MustCompileString(a, "b"), rex.MustCompileString(a, "a")}},
	)
	if err != nil {
		t.Fatal(err)
	}
	atoms := []Atom{{Rel: rec, Paths: []string{"p1", "p2"}}}
	u, err := ToUCRPQ(base, atoms)
	if err != nil {
		t.Fatal(err)
	}
	if len(u.Disjuncts) != 2 {
		t.Fatalf("disjuncts = %d, want 2 (one per term)", len(u.Disjuncts))
	}
	// Direct query: base + synchronous version of the recognizable atom.
	s, err := rec.ToSynchronous()
	if err != nil {
		t.Fatal(err)
	}
	direct := query.NewBuilder(a).
		Reach("x", "p1", "y").
		Reach("y", "p2", "z").
		Lang("p1", "(a|b)*").
		Lang("p2", "(a|b)*").
		Rel(s, "p1", "p2").
		MustBuild()

	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		db := graphdb.New(a)
		n := 2 + rng.Intn(3)
		for i := 0; i < n; i++ {
			db.MustAddVertex("")
		}
		for i := 0; i < 2*n; i++ {
			db.MustAddEdge(rng.Intn(n), alphabet.Symbol(rng.Intn(2)), rng.Intn(n))
		}
		want, err := core.Evaluate(db, direct, core.Options{Strategy: core.Generic})
		if err != nil {
			return false
		}
		got, err := core.EvaluateUnion(db, u, core.Options{Strategy: core.Generic})
		if err != nil {
			return false
		}
		if want.Sat != got.Sat {
			t.Logf("seed %d: direct=%v ucrpq=%v", seed, want.Sat, got.Sat)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestToUCRPQErrors(t *testing.T) {
	a := alphabet.Lower(2)
	base := query.NewBuilder(a).Reach("x", "p", "y").Lang("p", "a*").MustBuild()
	r1, _ := New(a, 1, Term{Langs: []*automata.NFA[alphabet.Symbol]{rex.MustCompileString(a, "a")}})
	// Unknown path variable.
	if _, err := ToUCRPQ(base, []Atom{{Rel: r1, Paths: []string{"zz"}}}); err == nil {
		t.Error("unknown path variable should error")
	}
	// Arity mismatch.
	if _, err := ToUCRPQ(base, []Atom{{Rel: r1, Paths: []string{"p", "p"}}}); err == nil {
		t.Error("arity mismatch should error")
	}
	// Nil relation.
	if _, err := ToUCRPQ(base, []Atom{{Rel: nil, Paths: []string{"p"}}}); err == nil {
		t.Error("nil relation should error")
	}
	// Non-CRPQ base.
	bad := query.NewBuilder(a).
		Reach("x", "p1", "y").Reach("x", "p2", "y").
		Rel(mustSync(a), "p1", "p2").MustBuild()
	if _, err := ToUCRPQ(bad, nil); err == nil {
		t.Error("non-CRPQ base should error")
	}
	// Empty relation (no terms): unsatisfiable, reported as error.
	e, _ := New(a, 1)
	if _, err := ToUCRPQ(base, []Atom{{Rel: e, Paths: []string{"p"}}}); err == nil {
		t.Error("empty relation should error")
	}
}

func mustSync(a *alphabet.Alphabet) *synchro.Relation {
	return synchro.Equality(a, 2)
}
