package core

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"ecrpq/internal/alphabet"
	"ecrpq/internal/graphdb"
	"ecrpq/internal/query"
	"ecrpq/internal/synchro"
)

// lineDB builds a labelled path graph: v0 -a-> v1 -a-> ... with a final -b->
// edge, plus a parallel branch.
func lineDB(t *testing.T) *graphdb.DB {
	t.Helper()
	db, err := graphdb.ParseString(`
alphabet a b
u a m1
m1 a m2
m2 b z
u b n1
n1 a n2
n2 a z
`)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func strategies() []Options {
	return []Options{
		{Strategy: Generic},
		{Strategy: Generic, EagerMerge: true},
		{Strategy: Reduction},
		{Strategy: Auto},
	}
}

// evalAll runs the query under every strategy, asserts agreement, verifies
// witnesses, and returns the common verdict.
func evalAll(t *testing.T, db *graphdb.DB, q *query.Query) bool {
	t.Helper()
	var verdict *bool
	for _, opts := range strategies() {
		res, err := Evaluate(db, q, opts)
		if err != nil {
			t.Fatalf("strategy %v (merge=%v): %v", opts.Strategy, opts.EagerMerge, err)
		}
		if verdict == nil {
			v := res.Sat
			verdict = &v
		} else if *verdict != res.Sat {
			t.Fatalf("strategies disagree: %v (merge=%v) says %v, earlier said %v",
				opts.Strategy, opts.EagerMerge, res.Sat, *verdict)
		}
		if res.Sat {
			if err := VerifyWitness(db, q, res); err != nil {
				t.Fatalf("strategy %v (merge=%v): bad witness: %v", opts.Strategy, opts.EagerMerge, err)
			}
		}
	}
	return *verdict
}

func TestEqualLengthPaths(t *testing.T) {
	db := lineDB(t)
	a := db.Alphabet()
	// Two equal-length paths u→z exist (both have length 3).
	q := query.NewBuilder(a).
		Reach("x", "p1", "y").
		Reach("x", "p2", "y").
		Rel(synchro.EqualLength(a, 2), "p1", "p2").
		MustBuild()
	if !evalAll(t, db, q) {
		t.Error("equal-length pair should exist")
	}
}

func TestEqualityVsEqualLength(t *testing.T) {
	db := lineDB(t)
	a := db.Alphabet()
	// The two u→z paths read aab and baa: equal length, not equal words.
	// Demand equality AND that both paths have length exactly 3 and differ
	// in start labels — here simply: equality plus one path starting with a,
	// the other with b, is unsatisfiable unless the paths coincide.
	q := query.NewBuilder(a).
		Reach("x", "p1", "y").
		Reach("x", "p2", "y").
		Rel(synchro.Equality(a, 2), "p1", "p2").
		Lang("p1", "a(a|b)*").
		Lang("p2", "b(a|b)*").
		MustBuild()
	if evalAll(t, db, q) {
		t.Error("equal words with different first letters is unsatisfiable")
	}
	// Hamming distance ≤ 2 allows aab vs baa? They differ in positions 0 and
	// 2 → distance 2 → satisfiable.
	q2 := query.NewBuilder(a).
		Reach("x", "p1", "y").
		Reach("x", "p2", "y").
		Rel(synchro.HammingAtMost(a, 2), "p1", "p2").
		Lang("p1", "a(a|b)*").
		Lang("p2", "b(a|b)*").
		MustBuild()
	if !evalAll(t, db, q2) {
		t.Error("hamming ≤ 2 should be satisfiable (aab vs baa)")
	}
	// Hamming ≤ 1 is not: any two distinct u→z equal-length... the only
	// length-3 paths are aab and baa at distance 2; p1 must start a, p2 b.
	q3 := query.NewBuilder(a).
		Reach("x", "p1", "y").
		Reach("x", "p2", "y").
		Rel(synchro.HammingAtMost(a, 1), "p1", "p2").
		Lang("p1", "a(a|b)*").
		Lang("p2", "b(a|b)*").
		MustBuild()
	if evalAll(t, db, q3) {
		t.Error("hamming ≤ 1 should be unsatisfiable")
	}
}

func TestCRPQPlain(t *testing.T) {
	db := lineDB(t)
	a := db.Alphabet()
	q := query.NewBuilder(a).Edge("x", "a*b", "y").MustBuild()
	if !evalAll(t, db, q) {
		t.Error("a*b path exists (u→z via aab)")
	}
	q2 := query.NewBuilder(a).Edge("x", "bb", "y").MustBuild()
	if evalAll(t, db, q2) {
		t.Error("no bb path exists")
	}
}

func TestUnconstrainedPathVariable(t *testing.T) {
	db := lineDB(t)
	a := db.Alphabet()
	// p2 unconstrained: plain reachability.
	q := query.NewBuilder(a).
		Reach("x", "p1", "y").
		Reach("y", "p2", "z").
		Lang("p1", "aa").
		MustBuild()
	if !evalAll(t, db, q) {
		t.Error("aa path then anything should exist (u→m2→z)")
	}
}

func TestEmptyPathSemantics(t *testing.T) {
	db := lineDB(t)
	a := db.Alphabet()
	// ε-path: x and y must coincide.
	q := query.NewBuilder(a).
		Reach("x", "p", "y").
		Lang("p", "ε").
		MustBuild()
	if !evalAll(t, db, q) {
		t.Error("empty path always exists (x=y)")
	}
	// Same-endpoint equality of two empty paths.
	q2 := query.NewBuilder(a).
		Reach("x", "p1", "x").
		Reach("x", "p2", "x").
		Rel(synchro.Equality(a, 2), "p1", "p2").
		MustBuild()
	if !evalAll(t, db, q2) {
		t.Error("two empty equal paths should exist")
	}
}

func TestSharedPathVariableAcrossAtoms(t *testing.T) {
	db := lineDB(t)
	a := db.Alphabet()
	// p2 participates in two relation atoms → one component of 3 tracks.
	q := query.NewBuilder(a).
		Reach("x", "p1", "y").
		Reach("x", "p2", "y").
		Reach("x", "p3", "y").
		Rel(synchro.EqualLength(a, 2), "p1", "p2").
		Rel(synchro.EqualLength(a, 2), "p2", "p3").
		MustBuild()
	if !evalAll(t, db, q) {
		t.Error("three equal-length paths x→y should exist (take the same path)")
	}
}

func TestPrefixRelation(t *testing.T) {
	db := lineDB(t)
	a := db.Alphabet()
	// p1 a strict prefix shape: p1 from u ends at m2 reading aa, p2 from u
	// reads aab to z: prefix holds.
	q := query.NewBuilder(a).
		Reach("x", "p1", "y1").
		Reach("x", "p2", "y2").
		Rel(synchro.PrefixOf(a), "p1", "p2").
		Lang("p1", "aa").
		Lang("p2", "aab").
		MustBuild()
	if !evalAll(t, db, q) {
		t.Error("prefix pair should exist")
	}
}

func TestAnswersExample21(t *testing.T) {
	// The paper's Example 2.1: q(x, x') = ∃y x →p1 y ∧ x' →p2 y ∧
	// eq-len(p1, p2).
	db, err := graphdb.ParseString(`
alphabet a b
s1 a t
s2 b t
s3 a m
m a t
`)
	if err != nil {
		t.Fatal(err)
	}
	a := db.Alphabet()
	q := query.NewBuilder(a).
		Reach("x", "p1", "y").
		Reach("xp", "p2", "y").
		Rel(synchro.EqualLength(a, 2), "p1", "p2").
		Free("x", "xp").
		MustBuild()
	for _, opts := range strategies() {
		got, err := Answers(db, q, opts)
		if err != nil {
			t.Fatalf("%v: %v", opts.Strategy, err)
		}
		// Every pair (u, u') where equal-length paths to a common vertex
		// exist. Notably (s1, s2) via t (lengths 1,1) and every (v, v)
		// (empty paths). Check a few certain members/non-members.
		set := make(map[[2]int]bool)
		for _, tup := range got {
			set[[2]int{tup[0], tup[1]}] = true
		}
		s1, _ := db.Lookup("s1")
		s2, _ := db.Lookup("s2")
		s3, _ := db.Lookup("s3")
		for v := 0; v < db.NumVertices(); v++ {
			if !set[[2]int{v, v}] {
				t.Errorf("%v: missing reflexive pair (%d,%d)", opts.Strategy, v, v)
			}
		}
		if !set[[2]int{s1, s2}] || !set[[2]int{s2, s1}] {
			t.Errorf("%v: missing (s1,s2) pair", opts.Strategy)
		}
		// s3 needs 2 steps to reach t; s1 needs 1; but s3→m (1 step)... is
		// there u' with a 1-step path to m? no other edge into m. And s3→t
		// (2 steps) pairs with any 2-step path to t: s3 itself only. But
		// (s3, s1): paths to t of equal length? s1's only path has length 1,
		// s3's has length 2 → no common vertex with equal lengths except...
		if set[[2]int{s3, s1}] {
			t.Errorf("%v: (s3,s1) should not be an answer", opts.Strategy)
		}
	}
}

func TestAnswersOnBooleanQueryFails(t *testing.T) {
	db := lineDB(t)
	q := query.NewBuilder(db.Alphabet()).Edge("x", "a", "y").MustBuild()
	if _, err := Answers(db, q, Options{}); err == nil {
		t.Error("Answers on Boolean query should error")
	}
}

func TestAlphabetMismatch(t *testing.T) {
	db := lineDB(t)
	other := alphabet.Lower(3)
	q := query.NewBuilder(other).Edge("x", "a", "y").MustBuild()
	if _, err := Evaluate(db, q, Options{}); err == nil {
		t.Error("alphabet size mismatch should error")
	}
}

func TestStateBudget(t *testing.T) {
	db := lineDB(t)
	a := db.Alphabet()
	q := query.NewBuilder(a).
		Reach("x", "p1", "y").
		Reach("x", "p2", "y").
		Rel(synchro.EqualLength(a, 2), "p1", "p2").
		Lang("p1", "a+b").
		MustBuild()
	if _, err := Evaluate(db, q, Options{Strategy: Generic, MaxProductStates: 1}); err == nil {
		t.Error("tiny state budget should error")
	}
}

func TestEmptyDatabase(t *testing.T) {
	a := alphabet.Lower(2)
	db := graphdb.New(a)
	q := query.NewBuilder(a).Edge("x", "a", "y").MustBuild()
	for _, opts := range strategies() {
		res, err := Evaluate(db, q, opts)
		if err != nil {
			t.Fatalf("%v: %v", opts.Strategy, err)
		}
		if res.Sat {
			t.Errorf("%v: query on empty database should be unsatisfiable", opts.Strategy)
		}
	}
}

func TestStatsPopulated(t *testing.T) {
	db := lineDB(t)
	a := db.Alphabet()
	q := query.NewBuilder(a).
		Reach("x", "p1", "y").
		Reach("x", "p2", "y").
		Rel(synchro.EqualLength(a, 2), "p1", "p2").
		MustBuild()
	res, err := Evaluate(db, q, Options{Strategy: Reduction})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.StrategyUsed != Reduction || res.Stats.Components != 1 {
		t.Errorf("stats = %+v", res.Stats)
	}
	if res.Stats.CQTuples == 0 {
		t.Error("reduction should materialize tuples")
	}
	res2, err := Evaluate(db, q, Options{Strategy: Generic, EagerMerge: true})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.MergedStatesTotal == 0 {
		t.Error("eager merge should report merged states")
	}
}

func TestAutoStrategySelection(t *testing.T) {
	db := lineDB(t)
	a := db.Alphabet()
	// Small component → Reduction.
	q := query.NewBuilder(a).
		Reach("x", "p1", "y").Reach("x", "p2", "y").
		Rel(synchro.EqualLength(a, 2), "p1", "p2").
		MustBuild()
	res, err := Evaluate(db, q, Options{Strategy: Auto})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.StrategyUsed != Reduction {
		t.Errorf("auto picked %v for a 2-track component", res.Stats.StrategyUsed)
	}
	// Large component (5 tracks) → Generic.
	b := query.NewBuilder(a)
	paths := []string{"q1", "q2", "q3", "q4", "q5"}
	for _, p := range paths {
		b.Reach("x", p, "y")
	}
	b.Rel(synchro.EqualLength(a, 5), paths...)
	q2 := b.MustBuild()
	res2, err := Evaluate(db, q2, Options{Strategy: Auto})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.StrategyUsed != Generic {
		t.Errorf("auto picked %v for a 5-track component", res2.Stats.StrategyUsed)
	}
}

// --- randomized cross-validation against a brute-force oracle ---

// oracle decides D ⊨ q by enumerating node assignments and bounded-length
// path combinations.
func oracle(db *graphdb.DB, q *query.Query, maxLen int) bool {
	nodeVars := q.NodeVars()
	n := db.NumVertices()
	assign := make(map[string]int)
	// All paths between u,v up to maxLen, per (u,v).
	var pathsBetween func(u, v int) []graphdb.Path
	pathsBetween = func(u, v int) []graphdb.Path {
		var out []graphdb.Path
		var rec func(cur int, edges []graphdb.Edge)
		rec = func(cur int, edges []graphdb.Edge) {
			if cur == v {
				out = append(out, graphdb.Path{Start: u, Edges: append([]graphdb.Edge(nil), edges...)})
			}
			if len(edges) >= maxLen {
				return
			}
			for _, e := range db.Out(cur) {
				rec(e.To, append(edges, e))
			}
		}
		rec(u, nil)
		return out
	}
	var tryAssign func(i int) bool
	tryAssign = func(i int) bool {
		if i == len(nodeVars) {
			// Choose paths per path variable.
			pvs := q.PathVars()
			choices := make([][]graphdb.Path, len(pvs))
			for k, pv := range pvs {
				ra, _ := q.ReachAtomFor(pv)
				choices[k] = pathsBetween(assign[ra.Src], assign[ra.Dst])
				if len(choices[k]) == 0 {
					return false
				}
			}
			chosen := make(map[string]graphdb.Path, len(pvs))
			var pick func(k int) bool
			pick = func(k int) bool {
				if k == len(pvs) {
					for _, ra := range q.Rels {
						words := make([]alphabet.Word, len(ra.Paths))
						for j, pv := range ra.Paths {
							words[j] = chosen[pv].Label()
						}
						ok, err := ra.Rel.Contains(words...)
						if err != nil || !ok {
							return false
						}
					}
					return true
				}
				for _, p := range choices[k] {
					chosen[pvs[k]] = p
					if pick(k + 1) {
						return true
					}
				}
				return false
			}
			return pick(0)
		}
		for d := 0; d < n; d++ {
			assign[nodeVars[i]] = d
			if tryAssign(i + 1) {
				return true
			}
		}
		return false
	}
	return tryAssign(0)
}

func randomDB(rng *rand.Rand, a *alphabet.Alphabet, n, e int) *graphdb.DB {
	db := graphdb.New(a)
	for i := 0; i < n; i++ {
		db.MustAddVertex("")
	}
	for i := 0; i < e; i++ {
		db.MustAddEdge(rng.Intn(n), alphabet.Symbol(rng.Intn(a.Size())), rng.Intn(n))
	}
	return db
}

func randomQuery(rng *rand.Rand, a *alphabet.Alphabet) *query.Query {
	b := query.NewBuilder(a)
	nodeVars := []string{"x", "y", "z"}
	nPaths := 1 + rng.Intn(3)
	var paths []string
	for i := 0; i < nPaths; i++ {
		p := []string{"p1", "p2", "p3"}[i]
		paths = append(paths, p)
		b.Reach(nodeVars[rng.Intn(len(nodeVars))], p, nodeVars[rng.Intn(len(nodeVars))])
	}
	rels := []func() *synchro.Relation{
		func() *synchro.Relation { return synchro.Equality(a, 2) },
		func() *synchro.Relation { return synchro.EqualLength(a, 2) },
		func() *synchro.Relation { return synchro.PrefixOf(a) },
		func() *synchro.Relation { return synchro.HammingAtMost(a, 1) },
	}
	nRels := rng.Intn(3)
	for i := 0; i < nRels && len(paths) >= 2; i++ {
		r := rels[rng.Intn(len(rels))]()
		i1 := rng.Intn(len(paths))
		i2 := rng.Intn(len(paths))
		for i2 == i1 {
			i2 = rng.Intn(len(paths))
		}
		b.Rel(r, paths[i1], paths[i2])
	}
	// Occasionally a language constraint.
	if rng.Intn(2) == 0 {
		exprs := []string{"a*", "ab", "(a|b)*", "b+", "a?"}
		b.Lang(paths[rng.Intn(len(paths))], exprs[rng.Intn(len(exprs))])
	}
	return b.MustBuild()
}

func TestStrategiesAgreeWithOracleProperty(t *testing.T) {
	a := alphabet.Lower(2)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		db := randomDB(rng, a, 2+rng.Intn(3), 2+rng.Intn(5))
		q := randomQuery(rng, a)
		want := oracle(db, q, 4)
		for _, opts := range strategies() {
			res, err := Evaluate(db, q, opts)
			if err != nil {
				t.Logf("seed %d: %v", seed, err)
				return false
			}
			if res.Sat {
				if err := VerifyWitness(db, q, res); err != nil {
					t.Logf("seed %d: bad witness: %v", seed, err)
					return false
				}
			}
			// The oracle is bounded: oracle-sat implies evaluator-sat; and
			// evaluator-sat witnesses were verified above. Oracle-unsat with
			// evaluator-sat is fine only if the witness uses paths longer
			// than the oracle bound — witness verification already covers
			// soundness, so only check the implication.
			if want && !res.Sat {
				t.Logf("seed %d: oracle sat but %v unsat", seed, opts.Strategy)
				return false
			}
			if !want && res.Sat {
				// Check the witness really needs a long path.
				long := false
				for _, p := range res.Paths {
					if p.Len() > 4 {
						long = true
					}
				}
				if !long {
					t.Logf("seed %d: %v sat with short paths but oracle unsat", seed, opts.Strategy)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestDecompose(t *testing.T) {
	a := alphabet.Lower(2)
	q := query.NewBuilder(a).
		Reach("x", "p1", "y").
		Reach("x", "p2", "y").
		Reach("y", "p3", "z").
		Reach("z", "p4", "z").
		Rel(synchro.EqualLength(a, 2), "p1", "p2").
		Rel(synchro.Universal(a, 2), "p2", "p3"). // universal: no semantic link
		MustBuild()
	comps, err := decomposeViews(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(comps) != 3 {
		t.Fatalf("components = %d, want 3: {p1, p2}, then p3 and p4 as Σ* components", len(comps))
	}
	if len(comps[0].tracks) != 2 {
		t.Errorf("component tracks = %d, want 2", len(comps[0].tracks))
	}
	if frees := plainTracks(comps); frees != 2 {
		t.Errorf("free tracks = %d, want 2 (p3 via universal only, p4 unconstrained)", frees)
	}
	for ci, want := range []string{"p3", "p4"} {
		c := comps[1+ci]
		if !c.plain || len(c.tracks) != 1 || c.tracks[0].pathVar != want || len(c.rels) != 1 || c.rels[0].IsUniversal() {
			t.Errorf("component %d = %+v, want the one-track explicit Σ* component of %s", 1+ci, c, want)
		}
	}
	if got := comps[2].nodeVars; !slices.Equal(got, []string{"z"}) {
		t.Errorf("node variables of z -p4-> z = %v, want [z]", got)
	}
}

func TestVerifyWitnessRejects(t *testing.T) {
	db := lineDB(t)
	a := db.Alphabet()
	q := query.NewBuilder(a).Edge("x", "a", "y").MustBuild()
	res, err := Evaluate(db, q, Options{})
	if err != nil || !res.Sat {
		t.Fatalf("setup: %v %v", err, res)
	}
	// Tamper: wrong endpoint.
	bad := &Result{Sat: true, Nodes: map[string]int{}, Paths: map[string]graphdb.Path{}}
	for k, v := range res.Nodes {
		bad.Nodes[k] = v
	}
	for k, v := range res.Paths {
		bad.Paths[k] = v
	}
	bad.Nodes["y"] = (bad.Nodes["y"] + 1) % db.NumVertices()
	if err := VerifyWitness(db, q, bad); err == nil {
		t.Error("tampered endpoint should fail verification")
	}
	if err := VerifyWitness(db, q, &Result{Sat: false}); err == nil {
		t.Error("unsat result should fail verification")
	}
}

// TestAnswersReductionFastPathUsed: a reduction-eligible query resolves to
// the Reduction strategy under Auto, so its answer set comes off one
// materialisation and one join rather than per-candidate pinning.
func TestAnswersReductionFastPathUsed(t *testing.T) {
	db := lineDB(t)
	a := db.Alphabet()
	q2 := query.NewBuilder(a).
		Reach("x", "p1", "y").
		Lang("p1", "a+").
		Free("x", "y").
		MustBuild()
	p, err := Prepare(q2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Strategy() != Reduction {
		t.Fatalf("auto resolved to %v, want reduction", p.Strategy())
	}
	ans, err := Answers(db, q2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	u, _ := db.Lookup("u")
	m1, _ := db.Lookup("m1")
	m2, _ := db.Lookup("m2")
	want := map[[2]int]bool{
		{u, m1}: true, {u, m2}: true, {m1, m2}: true,
		// n-branch single a-steps:
		// n1 -a-> n2 -a-> z
	}
	n1, _ := db.Lookup("n1")
	n2, _ := db.Lookup("n2")
	z, _ := db.Lookup("z")
	want[[2]int{n1, n2}] = true
	want[[2]int{n1, z}] = true
	want[[2]int{n2, z}] = true
	got := map[[2]int]bool{}
	for _, tup := range ans {
		got[[2]int{tup[0], tup[1]}] = true
	}
	if len(got) != len(want) {
		t.Fatalf("answers = %v, want %v", got, want)
	}
	for k := range want {
		if !got[k] {
			t.Errorf("missing answer %v", k)
		}
	}
}

func TestParallelSweepMatchesSequential(t *testing.T) {
	a := alphabet.Lower(2)
	rng := rand.New(rand.NewSource(99))
	db := randomDB(rng, a, 8, 20)
	q := query.NewBuilder(a).
		Reach("x", "p1", "y").
		Reach("x", "p2", "y").
		Rel(synchro.EqualLength(a, 2), "p1", "p2").
		Free("x", "y").
		MustBuild()
	seq, err := Answers(db, q, Options{Strategy: Reduction})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, -1} {
		par, err := Answers(db, q, Options{Strategy: Reduction, Parallelism: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(par) != len(seq) {
			t.Fatalf("workers=%d: %d answers vs %d sequential", workers, len(par), len(seq))
		}
		for i := range seq {
			for j := range seq[i] {
				if par[i][j] != seq[i][j] {
					t.Fatalf("workers=%d: answers differ at %d", workers, i)
				}
			}
		}
	}
}

func TestParallelSweepBudgetError(t *testing.T) {
	db := lineDB(t)
	a := db.Alphabet()
	q := query.NewBuilder(a).
		Reach("x", "p1", "y").
		Reach("x", "p2", "y").
		Rel(synchro.EqualLength(a, 2), "p1", "p2").
		MustBuild()
	if _, err := Evaluate(db, q, Options{Strategy: Reduction, MaxProductStates: 1, Parallelism: 4}); err == nil {
		t.Error("tiny state budget should surface from workers")
	}
}

// TestMonotonicityProperty: ECRPQ has no negation, so adding edges can never
// turn a satisfiable instance unsatisfiable.
func TestMonotonicityProperty(t *testing.T) {
	a := alphabet.Lower(2)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		db := randomDB(rng, a, 2+rng.Intn(3), 2+rng.Intn(4))
		q := randomQuery(rng, a)
		before, err := Evaluate(db, q, Options{Strategy: Generic})
		if err != nil {
			return false
		}
		// Add a few random edges.
		n := db.NumVertices()
		for i := 0; i < 3; i++ {
			db.MustAddEdge(rng.Intn(n), alphabet.Symbol(rng.Intn(a.Size())), rng.Intn(n))
		}
		after, err := Evaluate(db, q, Options{Strategy: Generic})
		if err != nil {
			return false
		}
		if before.Sat && !after.Sat {
			t.Logf("seed %d: adding edges broke satisfiability", seed)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestDisjointJunkInvarianceProperty: unioning an unrelated component into
// the database never changes Boolean satisfiability of a connected query...
// it can only add satisfying assignments, and removing reachability it
// cannot. (Satisfiability is preserved in both directions for queries whose
// node variables can be mapped anywhere: sat stays sat; unsat can become sat
// only using the junk part, which is a genuine new witness — so we only
// check sat ⇒ sat.)
func TestDisjointJunkInvarianceProperty(t *testing.T) {
	a := alphabet.Lower(2)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		db := randomDB(rng, a, 2+rng.Intn(3), 3+rng.Intn(4))
		q := randomQuery(rng, a)
		before, err := Evaluate(db, q, Options{Strategy: Generic})
		if err != nil {
			return false
		}
		junk := randomDB(rng, a, 1+rng.Intn(3), rng.Intn(4))
		if _, err := db.DisjointUnion(junk); err != nil {
			return false
		}
		after, err := Evaluate(db, q, Options{Strategy: Generic})
		if err != nil {
			return false
		}
		return !before.Sat || after.Sat
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestNaiveBoundedAgreesWithEngineProperty(t *testing.T) {
	a := alphabet.Lower(2)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		db := randomDB(rng, a, 2+rng.Intn(3), 2+rng.Intn(4))
		q := randomQuery(rng, a)
		naive, err := NaiveBounded(db, q, 4)
		if err != nil {
			return false
		}
		engine, err := Evaluate(db, q, Options{Strategy: Generic})
		if err != nil {
			return false
		}
		if naive.Sat {
			if err := VerifyWitness(db, q, naive); err != nil {
				t.Logf("seed %d: naive witness invalid: %v", seed, err)
				return false
			}
			if !engine.Sat {
				t.Logf("seed %d: naive sat, engine unsat", seed)
				return false
			}
		}
		// Engine-sat with naive-unsat is possible only via long paths.
		if engine.Sat && !naive.Sat {
			for _, p := range engine.Paths {
				if p.Len() > 4 {
					return true
				}
			}
			t.Logf("seed %d: engine sat with short paths, naive unsat", seed)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestNaiveBoundedEdgeCases(t *testing.T) {
	a := alphabet.Lower(1)
	empty := graphdb.New(a)
	q := query.NewBuilder(a).Edge("x", "a", "y").MustBuild()
	res, err := NaiveBounded(empty, q, 2)
	if err != nil || res.Sat {
		t.Errorf("empty db: %v %v", err, res)
	}
	db := graphdb.New(a)
	db.MustAddVertex("v")
	if _, err := NaiveBounded(db, q, -1); err == nil {
		t.Error("negative bound should error")
	}
}

func TestSimplifyPreservesSemanticsProperty(t *testing.T) {
	a := alphabet.Lower(2)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		db := randomDB(rng, a, 2+rng.Intn(3), 2+rng.Intn(5))
		q := randomQuery(rng, a)
		// Inject redundancy: duplicate the first relation atom and add a
		// universal atom.
		if len(q.Rels) > 0 {
			q.Rels = append(q.Rels, q.Rels[0])
		}
		q.Rels = append(q.Rels, query.RelAtom{
			Rel:   synchro.Universal(a, 1),
			Paths: []string{q.PathVars()[0]},
		})
		s := query.Simplify(q)
		r1, err := Evaluate(db, q, Options{Strategy: Generic})
		if err != nil {
			return false
		}
		r2, err := Evaluate(db, s, Options{Strategy: Generic})
		if err != nil {
			return false
		}
		return r1.Sat == r2.Sat
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
