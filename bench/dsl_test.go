package main

import (
	"math/rand"
	"reflect"
	"testing"

	"ecrpq/internal/alphabet"
	"ecrpq/internal/core"
	"ecrpq/internal/query"
	"ecrpq/internal/twolevel"
	wl "ecrpq/internal/workload"
)

// TestTemplatesMatchWorkloadBuilders holds each emitted family to the
// internal/workload builder it restates: the DSL parses, has the same
// measures and the same answers on a small database; a renaming keeps
// both, and two renamings are different cache keys.
func TestTemplatesMatchWorkloadBuilders(t *testing.T) {
	a := alphabet.Lower(2)
	db := wl.RandomDB(rand.New(rand.NewSource(7)), a, 6, 18)
	cases := []struct {
		t     *template
		built *query.Query
		free  []string
	}{
		{pairChain(2, "eqlen"), wl.PairChainQuery(a, 2), []string{"x0", "x2"}},
		{pairChain(4, "eqlen"), wl.PairChainQuery(a, 4), []string{"x0", "x4"}},
		{pairChain(6, "eqlen"), wl.PairChainQuery(a, 6), []string{"x0", "x6"}},
		{clique(3), wl.CliqueQuery(a, 3), []string{"x1", "x3"}},
		{fan(2, "eqlen"), wl.FanQuery(a, 2), []string{"x", "y"}},
		{fan(3, "eqlen"), wl.FanQuery(a, 3), []string{"x", "y"}},
		{binChain(3, "eq"), wl.EqChainQuery(a, 3), []string{"x", "y"}},
		{crpqPath("a*", "a*", "a*"), wl.CRPQPathQuery(a, 3), []string{"x0", "x3"}},
	}
	for _, c := range cases {
		want := *c.built
		want.Free = c.free
		wantRows, err := core.Answers(db, &want, core.Options{})
		if err != nil {
			t.Fatalf("%s: builder query: %v", c.t.name, err)
		}
		wantM := twolevel.QueryMeasures(c.built)
		hashes := map[string]string{}
		for _, suffix := range []string{"", "_r1", "_r2"} {
			q, err := query.ParseString(c.t.render(suffix))
			if err != nil {
				t.Fatalf("%s%s does not parse: %v", c.t.name, suffix, err)
			}
			if got := twolevel.QueryMeasures(q); got != wantM {
				t.Errorf("%s%s: measures %+v, builder has %+v", c.t.name, suffix, got, wantM)
			}
			free := make([]string, len(c.free))
			for i, f := range c.free {
				free[i] = f + suffix
			}
			fq, err := query.ParseString(c.t.withFree(c.free...).render(suffix))
			if err != nil {
				t.Fatalf("%s%s with free variables does not parse: %v", c.t.name, suffix, err)
			}
			if !reflect.DeepEqual(fq.Free, free) {
				t.Errorf("%s%s: free %v, want %v", c.t.name, suffix, fq.Free, free)
			}
			rows, err := core.Answers(db, fq, core.Options{})
			if err != nil {
				t.Fatalf("%s%s: %v", c.t.name, suffix, err)
			}
			if !reflect.DeepEqual(rows, wantRows) {
				t.Errorf("%s%s: %d answers, builder query has %d", c.t.name, suffix, len(rows), len(wantRows))
			}
			h := query.Hash(q)
			if prev, dup := hashes[h]; dup {
				t.Errorf("%s: renamings %q and %q have the same query.Hash", c.t.name, prev, suffix)
			}
			hashes[h] = suffix
		}
	}
}

// TestEveryWorkloadTemplateParses parses the request text of every row of
// every workload's table.
func TestEveryWorkloadTemplateParses(t *testing.T) {
	for _, name := range workloadNames {
		w, err := buildWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range w.classes {
			for _, p := range c.pairs {
				text, _ := p.request(c.kind, p.variant)
				q, err := query.ParseString(text)
				if err != nil {
					t.Errorf("%s: %s: %v", name, p, err)
					continue
				}
				if wantFree := c.kind == kindAnswers || c.kind == kindEnumerate; wantFree != (len(q.Free) > 0) {
					t.Errorf("%s: %s: class %s with free variables %v", name, p, c.name, q.Free)
				}
			}
		}
	}
}
