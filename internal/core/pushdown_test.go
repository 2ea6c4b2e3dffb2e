package core

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"ecrpq/internal/alphabet"
	"ecrpq/internal/graphdb"
	"ecrpq/internal/query"
	"ecrpq/internal/synchro"
	"ecrpq/internal/workload"
)

// TestHintedEvaluationPreservesAnswers checks that planner hints —
// component reordering and pushdown candidate domains — never change the
// decision: hinted Generic evaluation agrees with the unhinted one on
// satisfiability across random instances.
func TestHintedEvaluationPreservesAnswers(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	a := alphabet.Lower(2)
	ctx := context.Background()
	for trial := 0; trial < 10; trial++ {
		n := 6 + trial
		db := workload.RandomDB(rng, a, n, 2*n)
		for name, q := range map[string]*query.Query{
			"fan3":    workload.FanQuery(a, 3),
			"clique3": workload.CliqueQuery(a, 3),
			"pair2":   workload.PairChainQuery(a, 2),
		} {
			opts := Options{Strategy: Generic}
			p, err := Prepare(q, opts)
			if err != nil {
				t.Fatalf("%s: Prepare: %v", name, err)
			}
			base, err := p.EvaluateContext(ctx, db, nil)
			if err != nil {
				t.Fatalf("%s: base eval: %v", name, err)
			}
			cand := p.PushdownCandidates(db)
			// Reverse component order plus pushdown domains.
			plan, err := Explain(q, opts)
			if err != nil {
				t.Fatalf("%s: Explain: %v", name, err)
			}
			order := make([]int, len(plan.Components))
			for i := range order {
				order[i] = len(order) - 1 - i
			}
			hinted, err := p.EvaluateContextHinted(ctx, db, nil, &PlanHints{
				ComponentOrder: order,
				Candidates:     cand,
			})
			if err != nil {
				t.Fatalf("%s: hinted eval: %v", name, err)
			}
			if base.Sat != hinted.Sat {
				t.Errorf("trial %d %s: hinted Sat=%v, base Sat=%v", trial, name, hinted.Sat, base.Sat)
			}
			if hinted.Sat && (hinted.Nodes == nil || hinted.Paths == nil) {
				t.Errorf("trial %d %s: hinted result missing witness", trial, name)
			}
		}
	}
}

// TestMalformedHintsIgnored checks that a bad permutation or out-of-range
// candidate ids degrade gracefully instead of corrupting the search.
func TestMalformedHintsIgnored(t *testing.T) {
	a := alphabet.Lower(2)
	db := workload.LineDB(a, 6)
	q := workload.FanQuery(a, 2)
	p, err := Prepare(q, Options{Strategy: Generic})
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	base, err := p.EvaluateContext(context.Background(), db, nil)
	if err != nil {
		t.Fatalf("base eval: %v", err)
	}
	for _, h := range []*PlanHints{
		{ComponentOrder: []int{5}},                      // out of range
		{ComponentOrder: []int{0, 0}},                   // duplicate / wrong length
		{Candidates: map[string][]int{"x0": {-3, 999}}}, // ids outside the db
	} {
		res, err := p.EvaluateContextHinted(context.Background(), db, nil, h)
		if err != nil {
			t.Fatalf("hinted eval (%+v): %v", h, err)
		}
		// Out-of-range candidate ids are skipped, so the x0 domain becomes
		// empty — unsat is acceptable there only if base was unsat; a
		// candidate hint is a promise by the caller. Malformed
		// permutations must not change the answer at all.
		if h.Candidates == nil && res.Sat != base.Sat {
			t.Errorf("hints %+v changed Sat: %v vs %v", h, res.Sat, base.Sat)
		}
	}
}

// TestPushdownCandidatesSound checks the pushdown domain is a superset of
// the satisfying assignments: evaluating with the restricted domains keeps
// every answer of the unrestricted evaluation.
func TestPushdownCandidatesSound(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	a := alphabet.Lower(3)
	for trial := 0; trial < 8; trial++ {
		n := 5 + trial
		db := workload.RandomDB(rng, a, n, 3*n)
		q := workload.CliqueQuery(a, 3)
		p, err := Prepare(q, Options{Strategy: Generic})
		if err != nil {
			t.Fatalf("Prepare: %v", err)
		}
		base, err := p.EvaluateContext(context.Background(), db, nil)
		if err != nil {
			t.Fatalf("base: %v", err)
		}
		cand := p.PushdownCandidates(db)
		res, err := p.EvaluateContextHinted(context.Background(), db, nil, &PlanHints{Candidates: cand})
		if err != nil {
			t.Fatalf("hinted: %v", err)
		}
		if res.Sat != base.Sat {
			t.Errorf("trial %d: pushdown changed Sat from %v to %v (candidates %v)",
				trial, base.Sat, res.Sat, cand)
		}
		if res.Sat && res.Stats.NodeAssignments > base.Stats.NodeAssignments {
			t.Errorf("trial %d: pushdown increased node assignments %d → %d",
				trial, base.Stats.NodeAssignments, res.Stats.NodeAssignments)
		}
	}
}

// TestTrackFirstLabelsExposed pins the Plan surface the planner relies on:
// single-letter languages yield singleton first-label sets and track
// endpoint maps.
func TestTrackFirstLabelsExposed(t *testing.T) {
	a := alphabet.Lower(2)
	q := workload.CliqueQuery(a, 2) // one track x0→x1 with language "a…"
	plan, err := Explain(q, Options{})
	if err != nil {
		t.Fatalf("Explain: %v", err)
	}
	if len(plan.Components) == 0 {
		t.Fatal("no components")
	}
	foundRestricted := false
	for _, pc := range plan.Components {
		for _, pv := range pc.PathVars {
			if pc.TrackSources[pv] == "" || pc.TrackTargets[pv] == "" {
				t.Errorf("track %s missing endpoints: %+v", pv, pc)
			}
		}
		if len(pc.TrackFirstLabels) > 0 {
			foundRestricted = true
		}
	}
	if !foundRestricted {
		t.Error("no component has first-label restrictions for a single-letter query")
	}
}

// TestPushdownKeepsOneLabelSetPerTrack is the regression test for the
// wrong answers the benchmark oracle found under auto: two tracks leaving
// one variable with first-label sets {a} and {b} restrict it to vertices
// with an a-edge and a b-edge; intersecting the sets emptied its domain.
// The hinted Generic run is what the server executes when the planner
// resolves auto to Generic with pushdown.
func TestPushdownKeepsOneLabelSetPerTrack(t *testing.T) {
	a := alphabet.Lower(2)
	db := workload.RandomDB(rand.New(rand.NewSource(40)), a, 40, 120)
	q := query.NewBuilder(a).
		Reach("x", "p1", "y").
		Reach("x", "p2", "y").
		Rel(synchro.HammingAtMost(a, 1), "p1", "p2").
		Lang("p1", "a(a|b)*").
		Lang("p2", "b(a|b)*").
		MustBuild()
	ctx := context.Background()
	generic, err := Prepare(q, Options{Strategy: Generic})
	if err != nil {
		t.Fatal(err)
	}
	cand := generic.PushdownCandidates(db)
	if len(cand["x"]) == 0 {
		t.Fatalf("pushdown leaves x no candidate vertex: %v", cand)
	}
	results := map[string]*Result{}
	if results["auto"], err = generic.EvaluateContextHinted(ctx, db, nil, &PlanHints{Candidates: cand}); err != nil {
		t.Fatal(err)
	}
	for name, strat := range map[string]Strategy{"generic": Generic, "reduction": Reduction, "core-auto": Auto} {
		if results[name], err = EvaluateContext(ctx, db, q, Options{Strategy: strat}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if !results["generic"].Sat {
		t.Fatal("instance is unsatisfiable: it cannot show a lost answer")
	}
	for name, res := range results {
		if res.Sat != results["generic"].Sat {
			t.Errorf("%s: sat = %v, generic says %v", name, res.Sat, results["generic"].Sat)
			continue
		}
		if err := VerifyWitness(db, q, res); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestPushdownCandidatesLabelSetPairs tabulates two tracks out of one
// variable against a database with one vertex per out-label combination.
func TestPushdownCandidatesLabelSetPairs(t *testing.T) {
	db, err := graphdb.ParseString(`
alphabet a b
onlyA a sink
onlyB b sink
both a sink
both b sink
`)
	if err != nil {
		t.Fatal(err)
	}
	a := db.Alphabet()
	for _, tc := range []struct {
		name         string
		rel          *synchro.Relation
		lang1, lang2 string // "" leaves the track unrestricted
		want         []string
	}{
		{"disjoint", synchro.EqualLength(a, 2), "a(a|b)*", "b(a|b)*", []string{"both"}},
		{"nested", synchro.EqualLength(a, 2), "a(a|b)*", "(a|b)(a|b)*", []string{"onlyA", "both"}},
		{"equal", synchro.EqualLength(a, 2), "a(a|b)*", "a(a|b)*", []string{"onlyA", "both"}},
		{"one unrestricted", synchro.EqualLength(a, 2), "b(a|b)*", "", []string{"onlyB", "both"}},
		{"both unrestricted", synchro.EqualLength(a, 2), "", "", nil},
		// The relation itself can rule joint first letters out: eq admits
		// no pair of words starting a… and b…, so no vertex qualifies.
		{"disjoint under eq", synchro.Equality(a, 2), "a(a|b)*", "b(a|b)*", []string{}},
	} {
		b := query.NewBuilder(a).
			Reach("x", "p1", "y").
			Reach("x", "p2", "y").
			Rel(tc.rel, "p1", "p2")
		if tc.lang1 != "" {
			b.Lang("p1", tc.lang1)
		}
		if tc.lang2 != "" {
			b.Lang("p2", tc.lang2)
		}
		p, err := Prepare(b.MustBuild(), Options{Strategy: Generic})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		cand := p.PushdownCandidates(db)
		if tc.want == nil {
			if _, ok := cand["x"]; ok {
				t.Errorf("%s: x restricted to %v, want unrestricted", tc.name, cand["x"])
			}
			continue
		}
		if _, ok := cand["x"]; !ok {
			t.Errorf("%s: x is unrestricted, want %v", tc.name, tc.want)
		}
		var got []string
		for _, v := range cand["x"] {
			got = append(got, db.VertexName(v))
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s: candidates for x = %v, want %v", tc.name, got, tc.want)
		}
	}
}
