package core

import (
	"strings"
	"testing"

	"ecrpq/internal/alphabet"
	"ecrpq/internal/query"
	"ecrpq/internal/synchro"
)

func TestExplain(t *testing.T) {
	a := alphabet.Lower(2)
	q := query.NewBuilder(a).
		Reach("x", "p1", "y").
		Reach("x", "p2", "y").
		Reach("y", "p3", "z").
		Rel(synchro.EqualLength(a, 2), "p1", "p2").
		MustBuild()
	p, err := Explain(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Strategy != Reduction {
		t.Errorf("strategy = %v, want reduction for a 2-track component", p.Strategy)
	}
	if len(p.Components) != 2 || len(p.Components[0].PathVars) != 2 {
		t.Errorf("components = %+v", p.Components)
	}
	if len(p.FreeTracks) != 1 || p.FreeTracks[0] != "p3" {
		t.Errorf("free tracks = %v", p.FreeTracks)
	}
	s := p.String()
	// Both tracks leave x: the sweep opens one source variable.
	for _, want := range []string{"strategy: reduction", "cc_vertex=2", "p1, p2", "|V|^1 source tuples (Lemma 4.3)", "p3"} {
		if !strings.Contains(s, want) {
			t.Errorf("plan string missing %q:\n%s", want, s)
		}
	}
	if strings.Contains(s, "component 1") || !strings.Contains(s, "free tracks (plain reachability): p3") {
		t.Errorf("p3 is rendered as a component, not as a free track:\n%s", s)
	}
}

func TestExplainLargeComponentPicksGeneric(t *testing.T) {
	a := alphabet.Lower(2)
	b := query.NewBuilder(a)
	paths := []string{"q1", "q2", "q3", "q4", "q5"}
	for _, pv := range paths {
		b.Reach("x", pv, "y")
	}
	b.Rel(synchro.EqualLength(a, 5), paths...)
	q := b.MustBuild()
	p, err := Explain(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Strategy != Generic {
		t.Errorf("strategy = %v, want generic for a 5-track component", p.Strategy)
	}
	if !strings.Contains(p.String(), "Lemma 4.2") {
		t.Error("plan should mention the generic cost model")
	}
}

func TestExplainInvalidQuery(t *testing.T) {
	a := alphabet.Lower(2)
	q := &query.Query{}
	*q = *query.NewBuilder(a).Reach("x", "p", "y").MustBuild()
	q.Rels = append(q.Rels, query.RelAtom{Rel: synchro.Equality(a, 2), Paths: []string{"p", "nope"}})
	if _, err := Explain(q, Options{}); err == nil {
		t.Error("invalid query should error")
	}
}

// TestExplainBuildsNoViews: Explain (and Satisfiable) read no transition
// table, so decompose builds no decoded NFA view: the only one is the merged
// view's, which prepare builds through mergedViews. On this 3-relation
// component Explain made 162 allocations when decompose built views for
// every caller.
func TestExplainBuildsNoViews(t *testing.T) {
	a := alphabet.Lower(2)
	q := query.NewBuilder(a).
		Reach("x", "p1", "y").Reach("x", "p2", "y").
		Rel(synchro.EqualLength(a, 2), "p1", "p2").
		Lang("p1", "a(a|b)*").Lang("p2", "(a|b)*b").
		MustBuild()
	comps, err := decompose(q)
	if err != nil || len(comps) != 1 || len(comps[0].rels) != 3 {
		t.Fatalf("decompose: %v, %d components", err, len(comps))
	}
	if comps[0].nfa != nil {
		t.Error("decompose built an NFA view")
	}
	p, err := Prepare(q, Options{})
	if err != nil || len(p.merged) != 1 || p.merged[0].nfa == nil {
		t.Fatalf("Prepare: %v; its merged view has no decoded automaton", err)
	}
	if p.comps[0].nfa != nil {
		t.Error("Prepare decoded the unmerged relations")
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := Explain(q, Options{}); err != nil {
			t.Fatal(err)
		}
	}); n >= 162 {
		t.Errorf("Explain makes %v allocations, want fewer than the 162 it made with the views", n)
	}
}
