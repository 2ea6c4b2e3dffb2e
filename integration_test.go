package ecrpq_test

import (
	"slices"
	"testing"

	"ecrpq"
	"ecrpq/internal/core"
	"ecrpq/internal/query"
	"ecrpq/internal/twolevel"
)

// TestPaperExample11 encodes Example 1.1: q1 = ∃y x -π1-> y ∧ x -π2-> y ∧
// label(π1) ∈ a*b ∧ label(π2) ∈ (a+b)*, a CRPQ. It holds at any vertex with
// an a*b-path and an (a|b)*-path to a common target.
func TestPaperExample11(t *testing.T) {
	db, err := ecrpq.ParseDB(`
alphabet a b
v a v2
v2 b w
v b w2
`)
	if err != nil {
		t.Fatal(err)
	}
	q, err := ecrpq.ParseQuery(`
alphabet a b
free x
x -[a*b]-> y
x -[(a|b)*]-> y
`)
	if err != nil {
		t.Fatal(err)
	}
	if !q.IsCRPQ() {
		t.Error("Example 1.1 is a CRPQ")
	}
	ans, err := ecrpq.Answers(db, q, ecrpq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	v, _ := db.Lookup("v")
	v2, _ := db.Lookup("v2")
	got := map[int]bool{}
	for _, tup := range ans {
		got[tup[0]] = true
	}
	// v: path v->v2->w reads ab ∈ a*b; (a|b)*-path to w exists. ✓
	// v2: path v2->w reads b ∈ a*b; and b ∈ (a|b)*. ✓
	if !got[v] || !got[v2] {
		t.Errorf("answers %v should include v and v2", ans)
	}
	w, _ := db.Lookup("w")
	if got[w] {
		t.Error("w has no outgoing a*b path")
	}
}

// TestPaperExample21 encodes Example 2.1 and checks the equal-length
// semantics described there, including that witnesses have equal lengths.
func TestPaperExample21(t *testing.T) {
	db, err := ecrpq.ParseDB(`
alphabet a b
u a p
p a q
v b r
r b q
w a q
`)
	if err != nil {
		t.Fatal(err)
	}
	q, err := ecrpq.ParseQuery(`
alphabet a b
x -[$p1]-> y
xp -[$p2]-> y
rel eqlen(p1, p2)
lang p1 aa
lang p2 bb
`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ecrpq.Evaluate(db, q, ecrpq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Sat {
		t.Fatal("aa and bb paths of equal length into q exist")
	}
	if err := ecrpq.VerifyWitness(db, q, res); err != nil {
		t.Fatal(err)
	}
	if res.Paths["p1"].Len() != res.Paths["p2"].Len() {
		t.Error("eq-len witness has different lengths")
	}
}

// TestMeasurePipeline exercises DSL → measures → classification end to end
// on the three regime families.
func TestMeasurePipeline(t *testing.T) {
	cases := []struct {
		src          string
		ccv, cch, tw int
	}{
		{ // pair: small everything
			`alphabet a
x -[$p1]-> y
x -[$p2]-> y
rel eqlen(p1, p2)`, 2, 1, 1,
		},
		{ // triangle CRPQ: treewidth 2
			`alphabet a
x -[a]-> y
y -[a]-> z
z -[a]-> x`, 1, 1, 2,
		},
		{ // fan of 3 with one ternary atom
			`alphabet a
x -[$p1]-> y
x -[$p2]-> y
x -[$p3]-> y
rel eqlen(p1, p2, p3)`, 3, 1, 1,
		},
	}
	for i, c := range cases {
		q, err := ecrpq.ParseQuery(c.src)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		m := ecrpq.QueryMeasures(q)
		if m.CCVertex != c.ccv || m.CCHedge != c.cch {
			t.Errorf("case %d: cc measures (%d, %d), want (%d, %d)",
				i, m.CCVertex, m.CCHedge, c.ccv, c.cch)
		}
		if !m.TreewidthExact || m.TreewidthUpper != c.tw {
			t.Errorf("case %d: tw %d, want %d", i, m.TreewidthUpper, c.tw)
		}
	}
}

// TestUnionFacade exercises UECRPQ through the facade.
func TestUnionFacade(t *testing.T) {
	db, _ := ecrpq.ParseDB("alphabet a b\nu a v\nv b w\n")
	u, err := ecrpq.ParseUnionQuery(`
alphabet a b
x -[ba]-> y
or
x -[ab]-> y
`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ecrpq.EvaluateUnion(db, u, ecrpq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Sat || res.Disjunct != 1 {
		t.Errorf("union result %+v", res)
	}
}

// TestStrategiesAgreeOnDSLQueries runs a battery of DSL queries on a shared
// database under every strategy and demands agreement plus witness validity.
func TestStrategiesAgreeOnDSLQueries(t *testing.T) {
	db, err := ecrpq.ParseDB(`
alphabet a b
n0 a n1
n1 a n2
n2 b n0
n1 b n3
n3 a n3
n3 b n2
`)
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{
		"alphabet a b\nx -[$p]-> x\nlang p (ab|ba)+",
		"alphabet a b\nx -[$p1]-> y\nx -[$p2]-> y\nrel eq(p1, p2)\nlang p1 a+",
		"alphabet a b\nx -[$p1]-> y\ny -[$p2]-> z\nrel prefix(p1, p2)\nlang p2 ab.*",
		"alphabet a b\nx -[$p1]-> y\nx -[$p2]-> y\nrel hamming<=1(p1, p2)\nlang p1 aab\nlang p2 bab",
		"alphabet a b\nx -[$p1]-> y\nx -[$p2]-> z\nrel lendiff<=1(p1, p2)\nlang p1 aaa",
		"alphabet a b\nx -[$p1]-> y\nx -[$p2]-> y\nrel edit<=1(p1, p2)\nlang p1 ab\nlang p2 b",
	}
	for qi, src := range queries {
		q, err := ecrpq.ParseQuery(src)
		if err != nil {
			t.Fatalf("query %d: %v", qi, err)
		}
		var first *bool
		for _, opts := range []ecrpq.Options{
			{Strategy: ecrpq.Generic},
			{Strategy: ecrpq.Reduction},
			{Strategy: ecrpq.Auto},
		} {
			res, err := ecrpq.Evaluate(db, q, opts)
			if err != nil {
				t.Fatalf("query %d strategy %v: %v", qi, opts.Strategy, err)
			}
			if first == nil {
				v := res.Sat
				first = &v
			} else if *first != res.Sat {
				t.Fatalf("query %d: strategies disagree", qi)
			}
			if res.Sat {
				if err := ecrpq.VerifyWitness(db, q, res); err != nil {
					t.Fatalf("query %d strategy %v: %v", qi, opts.Strategy, err)
				}
			}
		}
	}
}

// TestNormalizedMeasuresMatchEvaluationSemantics: a query whose path
// variable is only constrained by a universal atom must behave exactly like
// the unconstrained one, in both measures and evaluation.
func TestNormalizedMeasuresMatchEvaluationSemantics(t *testing.T) {
	a, _ := ecrpq.NewAlphabet("a")
	db := ecrpq.NewDB(a)
	u := db.MustAddVertex("u")
	v := db.MustAddVertex("v")
	db.MustAddEdge(u, 0, v)

	plain := ecrpq.NewQuery(a).Reach("x", "p", "y").MustBuild()
	universal := ecrpq.NewQuery(a).
		Reach("x", "p", "y").
		Rel(ecrpq.UniversalRelation(a, 1), "p").
		MustBuild()
	m1 := ecrpq.QueryMeasures(plain)
	m2 := ecrpq.QueryMeasures(universal)
	if m1 != m2 {
		t.Errorf("measures differ: %+v vs %+v", m1, m2)
	}
	r1, err := ecrpq.Evaluate(db, plain, ecrpq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := ecrpq.Evaluate(db, universal, ecrpq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Sat != r2.Sat {
		t.Error("universal atom changed satisfiability")
	}
}

// TestLemma41EquivalenceViaStrategies: the Lemma 4.1 merge of eqlen and
// hamming<=2 is the one automaton both strategies search — the product
// search per candidate, the sweep over all sources — so their answer sets
// agree, and the Boolean query's verdict is the brute-force semantics'.
func TestLemma41EquivalenceViaStrategies(t *testing.T) {
	db, err := ecrpq.ParseDB(`
alphabet a b
s a t1
s b t2
t1 a goal
t2 b goal
s a goal
`)
	if err != nil {
		t.Fatal(err)
	}
	q, err := ecrpq.ParseQuery(`
alphabet a b
free x
x -[$p1]-> y
x -[$p2]-> y
rel eqlen(p1, p2)
rel hamming<=2(p1, p2)
`)
	if err != nil {
		t.Fatal(err)
	}
	generic, err := ecrpq.Answers(db, q, ecrpq.Options{Strategy: ecrpq.Generic})
	if err != nil {
		t.Fatal(err)
	}
	reduction, err := ecrpq.Answers(db, q, ecrpq.Options{Strategy: ecrpq.Reduction})
	if err != nil {
		t.Fatal(err)
	}
	if len(generic) == 0 || !slices.EqualFunc(generic, reduction, slices.Equal[[]int]) {
		t.Fatalf("answer sets: generic %v, reduction %v; want the same non-empty set", generic, reduction)
	}
	boolean := *q
	boolean.Free = nil
	naive, err := core.NaiveBounded(db, &boolean, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []ecrpq.Strategy{ecrpq.Generic, ecrpq.Reduction} {
		res, err := ecrpq.Evaluate(db, &boolean, ecrpq.Options{Strategy: s})
		if err != nil || res.Sat != naive.Sat {
			t.Fatalf("%v: sat=%v (err %v), NaiveBounded says %v", s, res != nil && res.Sat, err, naive.Sat)
		}
	}
}

// TestClassifierMatchesTheoremTable pins the full 2×2×2 case analysis.
func TestClassifierMatchesTheoremTable(t *testing.T) {
	type row struct {
		ccv, cch, tw bool
		ec           twolevel.EvalClass
		pc           twolevel.ParamClass
	}
	rows := []row{
		{true, true, true, twolevel.EvalPTime, twolevel.ParamFPT},
		{true, true, false, twolevel.EvalNP, twolevel.ParamW1},
		{true, false, true, twolevel.EvalPSpace, twolevel.ParamFPT},
		{true, false, false, twolevel.EvalPSpace, twolevel.ParamW1},
		{false, true, true, twolevel.EvalPSpace, twolevel.ParamXNL},
		{false, true, false, twolevel.EvalPSpace, twolevel.ParamXNL},
		{false, false, true, twolevel.EvalPSpace, twolevel.ParamXNL},
		{false, false, false, twolevel.EvalPSpace, twolevel.ParamXNL},
	}
	for _, r := range rows {
		ec, pc := ecrpq.Classify(r.ccv, r.cch, r.tw)
		if ec != r.ec || pc != r.pc {
			t.Errorf("Classify(%v,%v,%v) = (%v,%v), want (%v,%v)",
				r.ccv, r.cch, r.tw, ec, pc, r.ec, r.pc)
		}
	}
}

// TestResultStatsStrategies sanity-checks auto strategy routing through the
// facade on small/large components.
func TestResultStatsStrategies(t *testing.T) {
	db, _ := ecrpq.ParseDB("alphabet a\nu a v\nv a u\n")
	small, _ := ecrpq.ParseQuery("alphabet a\nx -[$p1]-> y\nx -[$p2]-> y\nrel eqlen(p1, p2)")
	res, err := ecrpq.Evaluate(db, small, ecrpq.Options{Strategy: ecrpq.Auto})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.StrategyUsed != core.Reduction {
		t.Errorf("auto chose %v for a 2-track component", res.Stats.StrategyUsed)
	}
	bigSrc := "alphabet a\n"
	paths := ""
	for i := 1; i <= 5; i++ {
		bigSrc += "x -[$p" + string(rune('0'+i)) + "]-> y\n"
		if i > 1 {
			paths += ", "
		}
		paths += "p" + string(rune('0'+i))
	}
	bigSrc += "rel eqlen(" + paths + ")\n"
	big, err := query.ParseString(bigSrc)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := ecrpq.Evaluate(db, big, ecrpq.Options{Strategy: ecrpq.Auto})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.StrategyUsed != core.Generic {
		t.Errorf("auto chose %v for a 5-track component", res2.Stats.StrategyUsed)
	}
}

// TestSatisfiableFacade checks satisfiability with canonical databases
// through the facade.
func TestSatisfiableFacade(t *testing.T) {
	q, err := ecrpq.ParseQuery(`
alphabet a b
x -[$p1]-> y
x -[$p2]-> y
rel hamming<=1(p1, p2)
lang p1 aab
lang p2 abb
`)
	if err != nil {
		t.Fatal(err)
	}
	// aab vs abb differ at one position → Hamming 1 → satisfiable on SOME db.
	db, res, sat, err := ecrpq.Satisfiable(q)
	if err != nil {
		t.Fatal(err)
	}
	if !sat {
		t.Fatal("should be satisfiable")
	}
	if err := ecrpq.VerifyWitness(db, q, res); err != nil {
		t.Fatal(err)
	}
	// But on a database without b-edges it is not.
	noB, _ := ecrpq.ParseDB("alphabet a b\nu a u\n")
	r, err := ecrpq.Evaluate(noB, q, ecrpq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Sat {
		t.Error("no b-edges: should be unsatisfiable on this database")
	}
	// Unsatisfiable query.
	q2, err := ecrpq.ParseQuery(`
alphabet a b
x -[$p1]-> y
x -[$p2]-> y
rel eq(p1, p2)
lang p1 a
lang p2 b
`)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, sat, err := ecrpq.Satisfiable(q2); err != nil || sat {
		t.Errorf("a = b should be unsatisfiable everywhere (sat=%v err=%v)", sat, err)
	}
}
