package core

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"ecrpq/internal/alphabet"
	"ecrpq/internal/graphdb"
	"ecrpq/internal/query"
	"ecrpq/internal/synchro"
)

// TestEvaluateSeesMutations: the database owns the layout the kernels
// traverse, and a library caller may mutate it between evaluations. A query
// that needs an edge is unsatisfiable before AddEdge, AddVertex + AddEdge or
// DisjointUnion supplies it and satisfiable after, under every strategy,
// with a witness over the new edge.
func TestEvaluateSeesMutations(t *testing.T) {
	a := alphabet.Lower(2)
	// Two equal-length paths x→y, one reading a+ and one b+.
	q := query.NewBuilder(a).
		Reach("x", "p1", "y").Reach("x", "p2", "y").
		Rel(synchro.EqualLength(a, 2), "p1", "p2").
		Lang("p1", "aa*").Lang("p2", "bb*").
		MustBuild()
	for _, opts := range strategies() {
		db := graphdb.New(a)
		u, v := db.MustAddVertex("u"), db.MustAddVertex("v")
		db.MustAddEdge(u, 0, v)
		sat := func(q *query.Query, step string, want bool) {
			t.Helper()
			res, err := Evaluate(db, q, opts)
			if err != nil || res.Sat != want {
				t.Fatalf("%v %s: sat=%v err=%v, want %v", opts, step, res != nil && res.Sat, err, want)
			}
			if want {
				if err := VerifyWitness(db, q, res); err != nil {
					t.Fatalf("%v %s: witness: %v", opts, step, err)
				}
			}
		}
		sat(q, "u -a-> v only", false)
		db.MustAddEdge(u, 1, v)
		sat(q, "after AddEdge u -b-> v", true)

		// The same through a vertex that did not exist at the first
		// evaluation: w -a-> w and, last, w -b-> w.
		p := query.NewBuilder(a).
			Reach("x", "p1", "x").Reach("x", "p2", "x").
			Rel(synchro.EqualLength(a, 2), "p1", "p2").
			Lang("p1", "aa*").Lang("p2", "bb*").
			MustBuild()
		sat(p, "no vertex has both loops", false)
		w := db.MustAddVertex("w")
		db.MustAddEdge(w, 0, w)
		sat(p, "after AddVertex w, w -a-> w", false)
		db.MustAddEdge(w, 1, w)
		sat(p, "after w -b-> w", true)

		// And through DisjointUnion: the loops arrive in the copy.
		fresh := graphdb.New(a)
		fresh.MustAddEdge(fresh.MustAddVertex("u"), 0, fresh.MustAddVertex("v"))
		db = fresh
		sat(p, "fresh database", false)
		other := graphdb.New(a)
		o := other.MustAddVertex("")
		other.MustAddEdge(o, 0, o)
		other.MustAddEdge(o, 1, o)
		if _, err := db.DisjointUnion(other); err != nil {
			t.Fatal(err)
		}
		sat(p, "after DisjointUnion", true)
	}
}

// TestConcurrentFirstEvaluation: eight goroutines evaluate on one fresh
// database at once, so each is a candidate to build its layout (run under
// -race); afterwards witness-bearing evaluations over a materialisation —
// one kernel per component each — leave the database's one layout in place.
func TestConcurrentFirstEvaluation(t *testing.T) {
	a := alphabet.Lower(2)
	db := randomDB(rand.New(rand.NewSource(8)), a, 12, 36)
	q := query.NewBuilder(a).
		Reach("x", "p1", "y").Reach("x", "p2", "y").Reach("y", "p3", "z").Reach("y", "p4", "z").
		Rel(synchro.EqualLength(a, 2), "p1", "p2").Rel(synchro.PrefixOf(a), "p3", "p4").
		MustBuild()
	want, err := Evaluate(randomDB(rand.New(rand.NewSource(8)), a, 12, 36), q, Options{Strategy: Reduction})
	if err != nil || !want.Sat {
		t.Fatalf("reference evaluation: sat=%v err=%v", want != nil && want.Sat, err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := Evaluate(db, q, strategies()[i%len(strategies())])
			if err != nil || res.Sat != want.Sat {
				t.Errorf("goroutine %d: sat=%v err=%v, want %v", i, res != nil && res.Sat, err, want.Sat)
			}
		}(i)
	}
	wg.Wait()

	p, err := Prepare(q, Options{Strategy: Reduction})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	mat, err := p.Materialize(ctx, db)
	if err != nil {
		t.Fatal(err)
	}
	layout := db.Forward()
	for i := 0; i < 3; i++ {
		res, err := p.EvaluateContext(ctx, db, mat)
		if err != nil || !res.Sat || len(res.Paths) != 4 {
			t.Fatalf("materialisation hit %d: sat=%v paths=%d err=%v", i, res != nil && res.Sat, len(res.Paths), err)
		}
	}
	if db.Forward() != layout {
		t.Fatal("an evaluation over a materialisation rebuilt the database's layout")
	}
}

// TestPreparedSharedByGoroutines: a plan keeps its components' decoded
// relation automata and every kernel over it reads them in place, so one
// Prepared per strategy is evaluated from eight goroutines at once (run
// under -race) — over a materialisation with witness recovery, streaming,
// through the generic search with and without pushdown candidates — and
// every result is the sequential one with a verified witness.
func TestPreparedSharedByGoroutines(t *testing.T) {
	a := alphabet.Lower(2)
	db := randomDB(rand.New(rand.NewSource(8)), a, 12, 36)
	q := query.NewBuilder(a).
		Reach("x", "p1", "y").Reach("x", "p2", "y").Reach("y", "p3", "z").Reach("y", "p4", "z").
		Rel(synchro.EqualLength(a, 2), "p1", "p2").Rel(synchro.HammingAtMost(a, 1), "p3", "p4").
		Lang("p1", "a(a|b)*").Lang("p2", "b(a|b)*").Lang("p3", "(a|b)(a|b)*"). // no empty-path witness
		MustBuild()
	ctx := context.Background()
	for _, opts := range strategies() {
		p, err := Prepare(q, opts)
		if err != nil {
			t.Fatal(err)
		}
		var mat *Materialization
		if p.Strategy() == Reduction {
			if mat, err = p.Materialize(ctx, db); err != nil {
				t.Fatal(err)
			}
		}
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				m, hints := mat, (*PlanHints)(nil)
				if i%2 == 1 { // Reduction: the streaming path; Generic: pushdown over the shared views
					m, hints = nil, &PlanHints{Candidates: p.PushdownCandidates(db)}
				}
				for round := 0; round < 3; round++ {
					res, err := p.EvaluateContextHinted(ctx, db, m, hints)
					if err != nil || !res.Sat {
						t.Errorf("%+v goroutine %d: sat=%v err=%v, want a witness", opts, i, res != nil && res.Sat, err)
						return
					}
					if err := VerifyWitness(db, q, res); err != nil {
						t.Errorf("%+v goroutine %d: %v", opts, i, err)
					}
				}
			}(i)
		}
		wg.Wait()
	}
}
