package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"ecrpq/internal/alphabet"
	"ecrpq/internal/graphdb"
	"ecrpq/internal/query"
	"ecrpq/internal/synchro"
	"ecrpq/internal/trace"
)

// genericShape builds one query shape of the differential matrix. vars maps
// the shape's roles (x, y, z, u1, …) to the names the query uses, so every
// shape runs under a naming where destinations sort before their sources.
type genericShape struct {
	name   string
	tracks int
	build  func(b *query.Builder, v func(string) string)
	// chain: the shape's tracks are related pairwise (rel(p1,p2), rel(p2,p3));
	// otherwise by one relation over all of them.
	chain bool
	maxV  int // the largest database the shape is drawn on (0 = all)
}

var genericShapes = []genericShape{
	{name: "fan2", tracks: 2, build: func(b *query.Builder, v func(string) string) {
		b.Reach(v("x"), "p1", v("y")).Reach(v("x"), "p2", v("y"))
	}},
	{name: "fan3", tracks: 3, build: func(b *query.Builder, v func(string) string) {
		b.Reach(v("x"), "p1", v("y")).Reach(v("x"), "p2", v("y")).Reach(v("x"), "p3", v("y"))
	}},
	{name: "chain3", tracks: 3, chain: true, build: func(b *query.Builder, v func(string) string) {
		b.Reach(v("x"), "p1", v("y")).Reach(v("x"), "p2", v("y")).Reach(v("x"), "p3", v("y"))
	}},
	{name: "pair", tracks: 2, build: func(b *query.Builder, v func(string) string) {
		b.Reach(v("u1"), "p1", v("v1")).Reach(v("u2"), "p2", v("v2"))
	}},
	{name: "selfloop", tracks: 2, build: func(b *query.Builder, v func(string) string) {
		b.Reach(v("x"), "p1", v("x")).Reach(v("x"), "p2", v("y"))
	}},
	// y is the destination of p1 and the source of p2, in one component.
	{name: "through", tracks: 2, build: func(b *query.Builder, v func(string) string) {
		b.Reach(v("x"), "p1", v("y")).Reach(v("y"), "p2", v("z"))
	}},
	// Two components sharing y, so that ComponentOrder has something to
	// permute: reversed, the second component's destination is assigned
	// before its source and every check is a traversal of its own.
	{name: "twocomp", tracks: 4, build: func(b *query.Builder, v func(string) string) {
		b.Reach(v("x"), "p1", v("y")).Reach(v("x"), "p2", v("y"))
		b.Reach(v("z"), "p3", v("x")).Reach(v("z"), "p4", v("x"))
	}},
	// Eight relation automata of up to 30 states each, which the Lemma 4.1
	// merge runs in lockstep: a small merged automaton the kernels walk.
	{name: "combo-overflow", tracks: 2, maxV: 3, build: func(b *query.Builder, v func(string) string) {
		comboOverflowLangs(b.Reach(v("x"), "p1", v("y")).Reach(v("x"), "p2", v("y")), "p1", "p2")
	}},
}

// genericNamings: the roles under their own names, and under names whose
// sort order reverses every source/destination pair.
var genericNamings = []map[string]string{
	nil,
	{"x": "n3", "y": "n2", "z": "n1", "u1": "m4", "v1": "m3", "u2": "m2", "v2": "m1"},
}

type genericInstance struct {
	name string
	db   *graphdb.DB
	q    *query.Query
}

// relate adds the shape's relation atoms: relName over all tracks (eq and
// eqlen have a k-ary form), or pairwise along the tracks.
func (s genericShape) relate(t testing.TB, b *query.Builder, a *alphabet.Alphabet, relName string) bool {
	binary := sweepRelations(t, a)
	paths := []string{"p1", "p2", "p3", "p4"}
	switch {
	case s.name == "twocomp":
		b.Rel(binary[relName], "p1", "p2").Rel(binary[relName], "p3", "p4")
	case s.chain || s.tracks == 2:
		for k := 0; k+1 < s.tracks; k++ {
			b.Rel(binary[relName], paths[k], paths[k+1])
		}
	case relName == "eq":
		b.Rel(synchro.Equality(a, s.tracks), paths[:s.tracks]...)
	case relName == "eqlen":
		b.Rel(synchro.EqualLength(a, s.tracks), paths[:s.tracks]...)
	default:
		return false // no k-ary form: the chain shape covers it
	}
	return true
}

// genericInstances enumerates V ∈ 1…8 × shapes × the five relations × both
// namings, each with a language draw: none, one track, or two tracks whose
// languages disagree on the first letter (what makes eq unsatisfiable and
// the search exhaustive).
func genericInstances(t testing.TB, rng *rand.Rand) []genericInstance {
	a := alphabet.Lower(2)
	relNames := []string{"eq", "eqlen", "prefix", "hamming<=1", "edit<=1"}
	var out []genericInstance
	for v := 1; v <= 8; v++ {
		db := randomDB(rng, a, v, v+rng.Intn(2*v+1))
		for _, s := range genericShapes {
			if s.maxV > 0 && v > s.maxV {
				continue // eight automata to merge per evaluation: the reference is what costs
			}
			for _, relName := range relNames {
				for ni, naming := range genericNamings {
					b := query.NewBuilder(a)
					s.build(b, func(role string) string {
						if n, ok := naming[role]; ok {
							return n
						}
						return role
					})
					if !s.relate(t, b, a, relName) {
						continue
					}
					lang := rng.Intn(3)
					if lang >= 1 {
						b.Lang("p1", "a(a|b)*")
					}
					if lang == 2 {
						b.Lang("p2", "b(a|b)*")
					}
					out = append(out, genericInstance{
						name: fmt.Sprintf("V%d/%s/%s/naming%d/lang%d", v, s.name, relName, ni, lang),
						db:   db,
						q:    b.MustBuild(),
					})
				}
			}
		}
	}
	return out
}

// perCheckGeneric is the generic strategy as it ran before its kernels were
// kept: the same backtracking order over the same components, but a fresh
// kernel and a fresh search for every check. It is the reference the
// memoised evaluation is held to, on the decision and on the state budget.
func perCheckGeneric(db *graphdb.DB, q *query.Query, comps []component, maxStates int) (bool, error) {
	var order []string
	pos := map[string]int{}
	add := func(v string) {
		if _, ok := pos[v]; !ok {
			pos[v] = len(order)
			order = append(order, v)
		}
	}
	for ci := range comps {
		for _, v := range comps[ci].nodeVars {
			add(v)
		}
	}
	for _, v := range q.NodeVars() {
		add(v)
	}
	assign := make([]int, len(order))
	ctx := context.Background()
	var rec func(i int) (bool, error)
	rec = func(i int) (bool, error) {
		if i == len(order) {
			return true, nil
		}
	next:
		for d := 0; d < db.NumVertices(); d++ {
			assign[i] = d
			for ci := range comps {
				c := &comps[ci]
				srcs, dsts := make([]int, len(c.tracks)), make([]int, len(c.tracks))
				ready := 0
				for k, tr := range c.tracks {
					srcs[k], dsts[k] = assign[pos[tr.srcVar]], assign[pos[tr.dstVar]]
					ready = max(ready, pos[tr.srcVar], pos[tr.dstVar])
				}
				if ready != i {
					continue
				}
				fp := newFastProduct(db, c)
				err := fp.begin(ctx, srcs, maxStates)
				ok := false
				if err == nil {
					ok, err = fp.seek(ctx, fp.destKey(dsts))
				}
				fp.releaseMem()
				if err != nil {
					return false, err
				}
				if !ok {
					continue next
				}
			}
			if ok, err := rec(i + 1); ok || err != nil {
				return ok, err
			}
		}
		return false, nil
	}
	return rec(0)
}

// TestGenericDifferential holds the memoised generic evaluation, under every
// planner hint, to the per-check reference, to the reduction strategy and
// (on the smallest databases) to the brute-force semantics; every witness it
// returns, all of them read off the recording kernel's parent links, must
// verify. Each instance is evaluated again forced into the wide key regime:
// keys are then row ids, not packings, and nothing else may differ — the
// decision, the witness's validity, and the count of every traversal and
// expanded state.
func TestGenericDifferential(t *testing.T) {
	const bound = 3
	rng := rand.New(rand.NewSource(20220614))
	ctx := context.Background()
	for _, in := range genericInstances(t, rng) {
		want, err := perCheckGeneric(in.db, in.q, mergedComponents(t, in.q), 0)
		if err != nil {
			t.Fatalf("%s: reference: %v", in.name, err)
		}
		red, err := EvaluateContext(ctx, in.db, in.q, Options{Strategy: Reduction})
		if err != nil {
			t.Fatalf("%s: reduction: %v", in.name, err)
		}
		if red.Sat != want {
			t.Fatalf("%s: reduction says %v, the per-check reference %v", in.name, red.Sat, want)
		}
		if red.Sat {
			if err := VerifyWitness(in.db, in.q, red); err != nil {
				t.Fatalf("%s: reduction witness: %v", in.name, err)
			}
		}
		p, err := Prepare(in.q, Options{Strategy: Generic})
		if err != nil {
			t.Fatalf("%s: Prepare: %v", in.name, err)
		}
		reversed := make([]int, len(p.comps))
		for i := range reversed {
			reversed[i] = len(reversed) - 1 - i
		}
		// One variable fixed by a singleton domain: to the reduction's
		// witness when there is one, which keeps the decision.
		first := in.q.NodeVars()[0]
		for hi, hints := range []*PlanHints{
			nil,
			{ComponentOrder: reversed},
			{Candidates: p.PushdownCandidates(in.db)},
			{ComponentOrder: reversed, Candidates: p.PushdownCandidates(in.db)},
			{Candidates: map[string][]int{first: {red.Nodes[first]}}},
		} {
			res, err := p.EvaluateContextHinted(ctx, in.db, nil, hints)
			if err != nil {
				t.Fatalf("%s hints=%d: %v", in.name, hi, err)
			}
			if res.Sat != want {
				t.Fatalf("%s hints=%d: memoised kernel says %v, the per-check reference %v", in.name, hi, res.Sat, want)
			}
			if res.Stats.Traversals > res.Stats.ProductChecks {
				t.Fatalf("%s hints=%d: %d traversals for %d checks", in.name, hi, res.Stats.Traversals, res.Stats.ProductChecks)
			}
			if res.Sat {
				if err := VerifyWitness(in.db, in.q, res); err != nil {
					t.Fatalf("%s hints=%d: witness: %v", in.name, hi, err)
				}
			}
			if hi > 0 {
				continue
			}
			inWideRegime(func() {
				wide, err := p.EvaluateContextHinted(ctx, in.db, nil, hints)
				if err != nil || wide.Stats != res.Stats || wide.Sat != want {
					t.Fatalf("%s forced wide: sat=%v stats=%+v err=%v, own regime sat=%v stats=%+v",
						in.name, wide != nil && wide.Sat, wide.Stats, err, want, res.Stats)
				}
				if wide.Sat {
					if err := VerifyWitness(in.db, in.q, wide); err != nil {
						t.Fatalf("%s forced wide: witness: %v", in.name, err)
					}
				}
			})
		}
		if in.db.NumVertices() > 3 {
			continue
		}
		naive, err := NaiveBounded(in.db, in.q, bound)
		if err != nil {
			t.Fatal(err)
		}
		if naive.Sat && !want {
			t.Fatalf("%s: NaiveBounded finds a witness, the engine none", in.name)
		}
		if want && !naive.Sat {
			long := false
			for _, p := range red.Paths {
				long = long || p.Len() > bound
			}
			if !long {
				t.Fatalf("%s: the reduction witness fits the bound but NaiveBounded found none", in.name)
			}
		}
	}
}

// TestGenericOneTraversalPerSource: a single component's sources come first
// in the order whatever the variables are called, so an exhaustive search
// begins one traversal per source assignment, not one per check.
func TestGenericOneTraversalPerSource(t *testing.T) {
	db := abDB(rand.New(rand.NewSource(3)), alphabet.Lower(3), 9, 27)
	for _, names := range [][2]string{{"x", "y"}, {"y", "x"}, {"n2", "n1"}} {
		x, y := names[0], names[1]
		q := cFan(x, y).MustBuild()
		requireUnsatOnKernels(t, db, q)
		res, err := Evaluate(db, q, Options{Strategy: Generic})
		if err != nil {
			t.Fatal(err)
		}
		if res.Sat || res.Stats.ProductChecks != 81 || res.Stats.Traversals != 9 {
			t.Fatalf("%s→%s: sat=%v with %d checks and %d traversals, want unsatisfiable with 81 and 9",
				x, y, res.Sat, res.Stats.ProductChecks, res.Stats.Traversals)
		}
	}
	// BenchmarkGenericCheck's unsatisfiable shape is this fan on V = 100.
	fan := genericCheckShapes(alphabet.Lower(2))[0]
	requireUnsatOnKernels(t, genericCheckDB(fan.q.Alphabet(), fan.v), fan.q)
}

// smallestBudget is the least budget ≥ 1 that fits, for a monotone fits.
func smallestBudget(fits func(int) bool) int {
	hi := 1
	for !fits(hi) {
		hi *= 2
	}
	lo := hi / 2 // fails (or is 0)
	for hi-lo > 1 {
		if mid := (lo + hi) / 2; fits(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// TestGenericBudget: the state budget bounds each traversal exactly as it
// bounded each per-check search. The smallest budget under which the
// per-check reference decides the instance is also the smallest under which
// the memoised evaluation does, with the same answer; one state less is the
// budget error for both.
func TestGenericBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	ctx := context.Background()
	tested := 0
	for _, in := range genericInstances(t, rng) {
		if in.db.NumVertices() < 6 || rng.Intn(4) != 0 {
			continue
		}
		comps := mergedComponents(t, in.q)
		want, err := perCheckGeneric(in.db, in.q, comps, 0)
		if err != nil {
			t.Fatal(err)
		}
		hi := smallestBudget(func(budget int) bool {
			got, err := perCheckGeneric(in.db, in.q, comps, budget)
			if err != nil {
				if !strings.Contains(err.Error(), "state budget") {
					t.Fatalf("%s budget %d: %v", in.name, budget, err)
				}
				return false
			}
			if got != want {
				t.Fatalf("%s budget %d: reference says %v, unbounded %v", in.name, budget, got, want)
			}
			return true
		})
		res, err := EvaluateContext(ctx, in.db, in.q, Options{Strategy: Generic, MaxProductStates: hi})
		if err != nil || res.Sat != want {
			t.Fatalf("%s: budget %d suffices per check, memoised gives sat=%v err=%v", in.name, hi, res != nil && res.Sat, err)
		}
		if hi > 1 {
			tested++
			_, err := EvaluateContext(ctx, in.db, in.q, Options{Strategy: Generic, MaxProductStates: hi - 1})
			if err == nil || !strings.Contains(err.Error(), "state budget") {
				t.Fatalf("%s: budget %d is one short per check, memoised gives err=%v", in.name, hi-1, err)
			}
		}
		inWideRegime(func() {
			res, err := EvaluateContext(ctx, in.db, in.q, Options{Strategy: Generic, MaxProductStates: hi})
			if err != nil || res.Sat != want {
				t.Fatalf("%s forced wide: budget %d suffices in the narrow regime, here sat=%v err=%v", in.name, hi, res != nil && res.Sat, err)
			}
			if hi > 1 {
				_, err := EvaluateContext(ctx, in.db, in.q, Options{Strategy: Generic, MaxProductStates: hi - 1})
				if err == nil || !strings.Contains(err.Error(), "state budget") {
					t.Fatalf("%s forced wide: budget %d is one short in the narrow regime, here err=%v", in.name, hi-1, err)
				}
			}
		})
	}
	if tested < 20 {
		t.Fatalf("only %d instances needed a budget above 1", tested)
	}
}

// eqFan starts a query of `tracks` paths x→y chained by binary equalities:
// every track reads the same word.
func eqFan(a *alphabet.Alphabet, tracks int) *query.Builder {
	b := query.NewBuilder(a)
	for k := 1; k <= tracks; k++ {
		b.Reach("x", fmt.Sprintf("p%d", k), "y")
		if k > 1 {
			b.Rel(synchro.Equality(a, 2), fmt.Sprintf("p%d", k-1), fmt.Sprintf("p%d", k))
		}
	}
	return b
}

// functionalDB draws a database with at most one successor per vertex and
// label, so that tracks reading one word from one vertex stay together: a
// 17-track equality fan has at most V reachable vertex tuples per word, not
// (successors per letter)^17.
func functionalDB(rng *rand.Rand, a *alphabet.Alphabet, n int) *graphdb.DB {
	db := randomDB(rng, a, n, 0)
	for v := 0; v < n; v++ {
		for s := 0; s < a.Size(); s++ {
			if rng.Intn(4) > 0 {
				db.MustAddEdge(v, alphabet.Symbol(s), rng.Intn(n))
			}
		}
	}
	return db
}

// TestGenericWideComponent: components whose product state does not fit 63
// bits (17 tracks over V ≥ 5; eight automata merged into one, forced wide
// through packedBits on any V) run on the one kernel like any other — the
// decision, the paths, the counts of its work and the memo of one traversal
// per source assignment — and agree with a fresh kernel per check on the
// decision and on the smallest sufficient state budget, and with the
// reduction strategy where its sweep is in reach.
func TestGenericWideComponent(t *testing.T) {
	a := alphabet.Lower(2)
	rng := rand.New(rand.NewSource(29))
	fan := eqFan(a, 17).Lang("p1", "a(a|b)*")
	deep := comboOverflowLangs(query.NewBuilder(a).Reach("x", "p1", "y").Reach("x", "p2", "y").
		Rel(synchro.EqualLength(a, 2), "p1", "p2"), "p1", "p2")
	sats := 0
	for name, q := range map[string]*query.Query{"17 tracks": fan.MustBuild(), "combo overflow": deep.MustBuild()} {
		comps := mergedComponents(t, q)
		if len(comps) != 1 {
			t.Fatalf("%s: %d components", name, len(comps))
		}
		regime := func(f func()) { f() }
		if name == "combo overflow" {
			regime = inWideRegime
		}
		for v := 1; v <= 6; v++ {
			db := functionalDB(rng, a, v)
			if name == "combo overflow" {
				db = randomDB(rng, a, v, 3*v)
			}
			regime(func() {
				if !packProduct(db, &comps[0]).wide && (v >= 5 || name == "combo overflow") {
					t.Fatalf("%s V=%d: the component packs; it does not reach the wide regime", name, v)
				}
				res, err := Evaluate(db, q, Options{Strategy: Generic})
				if err != nil {
					t.Fatalf("%s V=%d: %v", name, v, err)
				}
				// x is the component's one source variable: a traversal per vertex
				// tried for it, however many destinations are checked under each.
				if st := res.Stats; st.ProductStates == 0 || st.Traversals == 0 || st.Traversals > v || st.ProductChecks < st.Traversals {
					t.Fatalf("%s V=%d: %d states expanded by %d traversals for %d checks, want work counted and at most %d traversals",
						name, v, st.ProductStates, st.Traversals, st.ProductChecks, v)
				}
				if res.Sat {
					sats++
					if err := VerifyWitness(db, q, res); err != nil {
						t.Fatalf("%s V=%d: witness: %v", name, v, err)
					}
				}
				if want, err := perCheckGeneric(db, q, comps, 0); err != nil || want != res.Sat {
					t.Fatalf("%s V=%d: sat=%v, a fresh kernel per check says %v (err %v)", name, v, res.Sat, want, err)
				}
				budget := smallestBudget(func(b int) bool {
					_, err := perCheckGeneric(db, q, comps, b)
					return err == nil
				})
				if got, err := Evaluate(db, q, Options{Strategy: Generic, MaxProductStates: budget}); err != nil || got.Sat != res.Sat {
					t.Fatalf("%s V=%d: budget %d suffices per check, memoised gives err=%v", name, v, budget, err)
				}
				if budget > 1 {
					if _, err := Evaluate(db, q, Options{Strategy: Generic, MaxProductStates: budget - 1}); err == nil || !strings.Contains(err.Error(), "state budget") {
						t.Fatalf("%s V=%d: budget %d is one short per check, memoised gives err=%v", name, v, budget-1, err)
					}
				}
				if name == "17 tracks" {
					// The 17-track sweep is out of the reduction's reach; one
					// track's language decides it: all tracks read one word x→y.
					one := query.NewBuilder(a).Reach("x", "p1", "y").Lang("p1", "a(a|b)*").MustBuild()
					ref, err := Evaluate(db, one, Options{Strategy: Generic})
					if err != nil || ref.Sat != res.Sat {
						t.Fatalf("%s V=%d: sat=%v, the single-track query says %v (err %v)", name, v, res.Sat, ref.Sat, err)
					}
					return
				}
				red, err := Evaluate(db, q, Options{Strategy: Reduction})
				if err != nil || red.Sat != res.Sat {
					t.Fatalf("%s V=%d: generic says %v, reduction %v (err %v)", name, v, res.Sat, red.Sat, err)
				}
			})
		}
	}
	if sats < 4 {
		t.Fatalf("only %d satisfiable instances: the witness path is barely exercised", sats)
	}
}

// prefixChain3 is the satisfiable 3-track prefix chain of the generic-search
// workload and genericCheckDB the database BenchmarkGenericCheck draws for V
// vertices, over the query's alphabet with a- and b-edges only:
// TestGenericSearchChargesWhatItMeets runs the same pair under a
// reservation.
func prefixChain3(a *alphabet.Alphabet) *query.Query {
	return query.NewBuilder(a).
		Reach("x", "p1", "y").Reach("x", "p2", "y").Reach("x", "p3", "y").
		Rel(synchro.PrefixOf(a), "p1", "p2").Rel(synchro.PrefixOf(a), "p2", "p3").
		Lang("p1", "a(a|b)*").MustBuild()
}

func genericCheckDB(a *alphabet.Alphabet, v int) *graphdb.DB {
	return abDB(rand.New(rand.NewSource(int64(v))), a, v, 3*v)
}

// abDB is randomDB with every edge labelled a or b: over {a, b} it is
// randomDB, draw for draw; over {a, b, c} it is the same graph, with no
// c-edge.
func abDB(rng *rand.Rand, a *alphabet.Alphabet, n, e int) *graphdb.DB {
	db := graphdb.New(a)
	for i := 0; i < n; i++ {
		db.MustAddVertex("")
	}
	for i := 0; i < e; i++ {
		db.MustAddEdge(rng.Intn(n), alphabet.Symbol(rng.Intn(2)), rng.Intn(n))
	}
	return db
}

// cFan is the 3-track eq fan x→y over {a, b, c} with p1 ∈ c(a|b|c)*. Its
// Lemma 4.1 merge has states, so a Generic plan decides it on the kernels,
// not in prepare; on a database with no c-edge (abDB) no start state has a
// successor, and it is unsatisfiable. It stands where an unsatisfiable
// instance must make checks: an eq fan whose languages disagree (a(a|b)*
// against b(a|b)*) is the empty relation, decided before any database is
// read.
func cFan(x, y string) *query.Builder {
	a := alphabet.Lower(3)
	return query.NewBuilder(a).
		Reach(x, "p1", y).Reach(x, "p2", y).Reach(x, "p3", y).
		Rel(synchro.Equality(a, 3), "p1", "p2", "p3").
		Lang("p1", "c(a|b|c)*")
}

// requireUnsatOnKernels fails unless q has a merged view with states in
// every component and db satisfies it under neither strategy nor
// NaiveBounded (bound 3).
func requireUnsatOnKernels(t testing.TB, db *graphdb.DB, q *query.Query) {
	t.Helper()
	for ci, c := range mergedComponents(t, q) {
		if c.nfa.NumStates() == 0 {
			t.Fatalf("component %d merges to the empty relation", ci)
		}
	}
	for _, s := range []Strategy{Generic, Reduction} {
		if res, err := Evaluate(db, q, Options{Strategy: s}); err != nil || res.Sat {
			t.Fatalf("%v: sat=%v err=%v, want unsatisfiable", s, res != nil && res.Sat, err)
		}
	}
	if res, err := NaiveBounded(db, q, 3); err != nil || res.Sat {
		t.Fatalf("NaiveBounded: sat=%v err=%v, want unsatisfiable", res != nil && res.Sat, err)
	}
}

// genericCheckShapes are the two shapes of the generic-search workload that
// cost the most, each with the size of the database it is drawn on. The
// workload's unsatisfiable eq fan is the empty relation, decided in
// prepare; cFan stands for it here, with the same 10 000 checks from 100
// source assignments on V = 100.
func genericCheckShapes(a *alphabet.Alphabet) []struct {
	name string
	v    int
	q    *query.Query
} {
	return []struct {
		name string
		v    int
		q    *query.Query
	}{
		{"fan-eq3-unsat", 100, cFan("x", "y").MustBuild()},
		{"chain-prefix3-sat", 40, prefixChain3(a)},
	}
}

// genericCheckOp is the Lemma 4.2 layer's operation on one of
// genericCheckShapes: a generic evaluation of the prepared query, which
// returns its search counters.
func genericCheckOp(tb testing.TB, q *query.Query, db *graphdb.DB) func(testing.TB) Stats {
	p, err := Prepare(q, Options{Strategy: Generic})
	if err != nil {
		tb.Fatal(err)
	}
	return func(tb testing.TB) Stats {
		res, err := p.EvaluateContext(context.Background(), db, nil)
		if err != nil {
			tb.Fatal(err)
		}
		return res.Stats
	}
}

// BenchmarkGenericCheck is the Lemma 4.2 layer benchmark, on the two shapes
// of the generic-search workload that cost the most: the exhaustive
// unsatisfiable 3-track eq fan on V = 100 (cFan: 10 000 checks from 100
// source assignments) and the satisfiable prefix 3-chain on V = 40.
// TestCeilings holds its traversals, allocations per check and bytes per
// evaluation.
func BenchmarkGenericCheck(b *testing.B) {
	a := alphabet.Lower(2)
	for _, bc := range genericCheckShapes(a) {
		op := genericCheckOp(b, bc.q, genericCheckDB(bc.q.Alphabet(), bc.v))
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			var stats Stats
			for i := 0; i < b.N; i++ {
				stats = op(b)
			}
			b.ReportMetric(float64(stats.ProductChecks), "checks/op")
			b.ReportMetric(float64(stats.Traversals), "traversals/op")
			b.ReportMetric(float64(stats.ProductStates), "states/op")
		})
	}
}

// mergedComponents is what prepare builds for the kernels to walk: the
// query's components merged by Lemma 4.1, each with its decoded automaton.
// Every test that hands a component straight to a kernel takes it from here.
func mergedComponents(tb testing.TB, q *query.Query) []component {
	tb.Helper()
	comps, err := decompose(q)
	if err != nil {
		tb.Fatal(err)
	}
	merged, _, _, err := mergedViews(context.Background(), q, comps)
	if err != nil {
		tb.Fatal(err)
	}
	return merged
}

// searchWork sums, over the spans of tr, the work the walk and the sweep
// report: product checks, node assignments, traversals, expanded states,
// sources opened and R′ rows.
func searchWork(tr *trace.Trace) int64 {
	var n int64
	for _, sp := range tr.Snapshot().Spans {
		for _, k := range []string{"product_checks", "node_assignments", "traversals", "states", "sources", "rows"} {
			if v, ok := sp.Attrs[k].(int64); ok {
				n += v
			}
		}
	}
	return n
}

// TestEmptyRelationDecided: a plan with a component whose Lemma 4.1 merge
// has no state — eq over p2 ∈ a(a|b)* and p3 ∈ b(a|b)* — is decided by
// prepare. Evaluate, Answers, Enumerate and Materialize, under both
// strategies and in both key regimes, make no check, no node assignment,
// no traversal, open no sweep source and keep no R′ row; they and the
// witness kernel on the empty component agree with NaiveBounded that
// nothing holds. The two-component query's empty component is the walk's
// second level, which a walk that found out by searching would only reach
// after the first level's guesses and rows.
func TestEmptyRelationDecided(t *testing.T) {
	a := alphabet.Lower(2)
	ctx := context.Background()
	eqFan := func(b *query.Builder, x, y string) *query.Builder {
		return b.Reach(x, "p2", y).Reach(x, "p3", y).
			Rel(synchro.Equality(a, 2), "p2", "p3").
			Lang("p2", "a(a|b)*").Lang("p3", "b(a|b)*")
	}
	shapes := []struct {
		name  string
		build func(free ...string) *query.Query
		free  []string
	}{
		{"fan", func(free ...string) *query.Query {
			return eqFan(query.NewBuilder(a).Free(free...), "x", "y").MustBuild()
		}, []string{"x", "y"}},
		{"empty-second", func(free ...string) *query.Query {
			b := query.NewBuilder(a).Free(free...).Reach("x", "p1", "y").Lang("p1", "a(a|b)*")
			return eqFan(b, "y", "z").MustBuild()
		}, []string{"x", "z"}},
	}
	rng := rand.New(rand.NewSource(37))
	for _, sh := range shapes {
		boolean, free := sh.build(), sh.build(sh.free...)
		comps := mergedComponents(t, boolean)
		for ci, c := range comps {
			if (c.nfa.NumStates() == 0) != (ci == len(comps)-1) {
				t.Fatalf("%s: want the last component, and only it, merged to no state", sh.name)
			}
		}
		empty := &comps[len(comps)-1]
		for v := 1; v <= 4; v++ {
			db := randomDB(rng, a, v, 3*v)
			if naive, err := NaiveBounded(db, boolean, 3); err != nil || naive.Sat {
				t.Fatalf("%s V=%d: NaiveBounded says %v (err %v)", sh.name, v, naive != nil && naive.Sat, err)
			}
			for regime, in := range map[string]func(func()){"narrow": func(f func()) { f() }, "wide": inWideRegime} {
				in(func() {
					at := fmt.Sprintf("%s V=%d %s", sh.name, v, regime)
					if wide := packProduct(db, empty).wide; wide != (regime == "wide") {
						t.Fatalf("%s: wide=%v", at, wide)
					}
					srcs, dsts := []int{0, 0}, []int{v - 1, v - 1}
					if paths, ok, err := checkComponent(ctx, db, empty, srcs, dsts, 0); err != nil || ok || paths != nil {
						t.Fatalf("%s: witness kernel found %v (ok %v, err %v)", at, paths, ok, err)
					}
					for _, s := range []Strategy{Generic, Reduction} {
						emptyRelationDecided(t, fmt.Sprintf("%s %v", at, s), db, boolean, free, Options{Strategy: s})
					}
				})
			}
		}
	}
}

// emptyRelationDecided runs TestEmptyRelationDecided's four entry points on
// one database under opts: no answer, no row and no search work.
func emptyRelationDecided(t *testing.T, at string, db *graphdb.DB, boolean, free *query.Query, opts Options) {
	t.Helper()
	traced := func(op string, q *query.Query, run func(ctx context.Context, p *Prepared) int) {
		t.Helper()
		p, err := Prepare(q, opts)
		if err != nil {
			t.Fatal(err)
		}
		if p.cqq.Atoms[0].Rel != "__comp0" {
			t.Fatalf("%s: the walk's first level is %s", at, p.cqq.Atoms[0].Rel)
		}
		tr := trace.New(op)
		if got := run(trace.NewContext(context.Background(), tr), p); got != 0 {
			t.Fatalf("%s %s: %d answers or rows, want none", at, op, got)
		}
		if work := searchWork(tr); work != 0 {
			t.Fatalf("%s %s: %d units of search work, want 0", at, op, work)
		}
	}
	traced("Evaluate", boolean, func(ctx context.Context, p *Prepared) int {
		res, err := p.EvaluateContext(ctx, db, nil)
		if err != nil {
			t.Fatal(err)
		}
		st := res.Stats
		if work := st.ProductChecks + st.NodeAssignments + st.Traversals + st.ProductStates + st.CQTuples; res.Sat || work != 0 {
			t.Fatalf("%s Evaluate: sat=%v stats %+v", at, res.Sat, st)
		}
		return 0
	})
	traced("Answers", free, func(ctx context.Context, p *Prepared) int {
		rows, err := p.Answers(ctx, db, nil)
		if err != nil {
			t.Fatal(err)
		}
		return len(rows)
	})
	traced("Enumerate", free, func(ctx context.Context, p *Prepared) int {
		it, err := p.Enumerate(ctx, db)
		if err != nil {
			t.Fatal(err)
		}
		defer it.Close()
		rows, err := page(it, 0, math.MaxInt)
		if err != nil {
			t.Fatal(err)
		}
		return len(rows)
	})
	if opts.Strategy == Reduction {
		traced("Materialize", boolean, func(ctx context.Context, p *Prepared) int {
			mat, err := p.Materialize(ctx, db)
			if err != nil {
				t.Fatal(err)
			}
			if res, err := p.EvaluateContext(ctx, db, mat); err != nil || res.Sat {
				t.Fatalf("%s over the materialisation: sat=%v err=%v", at, res != nil && res.Sat, err)
			}
			return mat.Tuples()
		})
	}
}
