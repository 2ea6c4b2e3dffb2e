package reductions

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"ecrpq/internal/alphabet"
	"ecrpq/internal/automata"
	"ecrpq/internal/core"
	"ecrpq/internal/cq"
	"ecrpq/internal/query"
	"ecrpq/internal/rex"
	"ecrpq/internal/twolevel"
)

// ineFromExprs builds an INE instance from regular expressions.
func ineFromExprs(t *testing.T, a *alphabet.Alphabet, exprs ...string) *INEInstance {
	t.Helper()
	in := &INEInstance{Alphabet: a}
	for _, e := range exprs {
		in.Automata = append(in.Automata, rex.MustCompileString(a, e))
	}
	return in
}

func TestSolveDirect(t *testing.T) {
	a := alphabet.Lower(2)
	in := ineFromExprs(t, a, "a*b", "(a|b)*b", "ab|b")
	w, ok := in.Solve()
	if !ok {
		t.Fatal("intersection should be non-empty (b)")
	}
	for _, atm := range in.Automata {
		if !atm.Accepts(w) {
			t.Error("witness not accepted by all automata")
		}
	}
	in2 := ineFromExprs(t, a, "a+", "b+")
	if _, ok := in2.Solve(); ok {
		t.Error("a+ ∩ b+ should be empty")
	}
}

func TestBigHyperedgeReduction(t *testing.T) {
	a := alphabet.Lower(2)
	cases := []struct {
		exprs []string
		want  bool
	}{
		{[]string{"a*b"}, true},
		{[]string{"a*b", "(a|b)*b"}, true},
		{[]string{"a*b", "b*"}, true}, // b ∈ both
		{[]string{"a+", "b+"}, false},
		{[]string{"a*b", "(a|b)*a"}, false},
		{[]string{"ab*", "a*b", "(a|b)(a|b)"}, true}, // ab
		{[]string{"a", "aa"}, false},
	}
	for _, c := range cases {
		in := ineFromExprs(t, a, c.exprs...)
		db, q, err := BigHyperedge(in)
		if err != nil {
			t.Fatalf("%v: %v", c.exprs, err)
		}
		res, err := core.Evaluate(db, q, core.Options{Strategy: core.Generic})
		if err != nil {
			t.Fatalf("%v: %v", c.exprs, err)
		}
		if res.Sat != c.want {
			t.Errorf("BigHyperedge(%v) sat=%v, want %v", c.exprs, res.Sat, c.want)
		}
		if res.Sat {
			if err := core.VerifyWitness(db, q, res); err != nil {
				t.Errorf("%v: witness: %v", c.exprs, err)
			}
			// The witness paths' labels must embed a common word accepted by
			// all automata: strip $ prefix/suffix and trailing #s of track 1.
			p1 := res.Paths["pi1"]
			lbl := p1.Label()
			if len(lbl) < 3 {
				t.Errorf("%v: witness label too short: %v", c.exprs, lbl)
				continue
			}
			u := lbl[1 : len(lbl)-2] // $ u # $
			uw := make(alphabet.Word, len(u))
			copy(uw, u)
			for _, atm := range in.Automata {
				if !atm.Accepts(uw) {
					t.Errorf("%v: extracted word %v not in all languages", c.exprs, uw)
				}
			}
		}
	}
}

func TestBigHyperedgeMeasures(t *testing.T) {
	a := alphabet.Lower(2)
	in := ineFromExprs(t, a, "a*", "b*", "(a|b)*", "a*b*")
	_, q, err := BigHyperedge(in)
	if err != nil {
		t.Fatal(err)
	}
	m := twolevel.QueryMeasures(q)
	if m.CCVertex != 4 || m.CCHedge != 1 {
		t.Errorf("measures = %+v, want cc_vertex=4 cc_hedge=1", m)
	}
}

func TestSharedVariableReduction(t *testing.T) {
	a := alphabet.Lower(2)
	cases := []struct {
		exprs []string
		want  bool
	}{
		{[]string{"a*b", "(a|b)*b", "ab|b"}, true},
		{[]string{"a+", "b+"}, false},
		{[]string{"a*", "a*a", "aaa*"}, true},
	}
	for _, c := range cases {
		in := ineFromExprs(t, a, c.exprs...)
		db, q, err := SharedVariable(in)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Evaluate(db, q, core.Options{Strategy: core.Generic})
		if err != nil {
			t.Fatal(err)
		}
		if res.Sat != c.want {
			t.Errorf("SharedVariable(%v) = %v, want %v", c.exprs, res.Sat, c.want)
		}
		if res.Sat {
			if err := core.VerifyWitness(db, q, res); err != nil {
				t.Errorf("witness: %v", err)
			}
			// The single path's label is the witness word itself.
			w := res.Paths["pi"].Label()
			for _, atm := range in.Automata {
				if !atm.Accepts(w) {
					t.Errorf("extracted %v not accepted", w)
				}
			}
		}
	}
	m := twolevel.QueryMeasures(mustQuery(t, a, []string{"a*", "b*", "a|b"}))
	if m.CCHedge != 3 || m.CCVertex != 1 {
		t.Errorf("shared-variable measures = %+v", m)
	}
}

func mustQuery(t *testing.T, a *alphabet.Alphabet, exprs []string) *query.Query {
	t.Helper()
	in := ineFromExprs(t, a, exprs...)
	_, q, err := SharedVariable(in)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestChainReduction(t *testing.T) {
	a := alphabet.Lower(2)
	cases := []struct {
		exprs []string
		want  bool
	}{
		{[]string{"a*b", "(a|b)*b"}, true},
		{[]string{"a+", "b+"}, false},
		{[]string{"a*b", "(a|b)*b", "ab*|b"}, true},
	}
	for _, c := range cases {
		in := ineFromExprs(t, a, c.exprs...)
		db, q, err := Chain(in)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Evaluate(db, q, core.Options{Strategy: core.Generic})
		if err != nil {
			t.Fatal(err)
		}
		if res.Sat != c.want {
			t.Errorf("Chain(%v) = %v, want %v", c.exprs, res.Sat, c.want)
		}
	}
	// Measures: big component with n tracks, hyperedges of size ≤ 2.
	in := ineFromExprs(t, a, "a*", "b*", "(a|b)*", ".*")
	_, q, _ := Chain(in)
	m := twolevel.QueryMeasures(q)
	if m.CCVertex != 4 {
		t.Errorf("chain cc_vertex = %d, want 4", m.CCVertex)
	}
}

func TestINEReductionsAgreeProperty(t *testing.T) {
	a := alphabet.Lower(2)
	exprs := []string{"a*", "b*", "a*b", "(a|b)*", "ab*", "b+", "(ab)*", "a?b?"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(3)
		var chosen []string
		for i := 0; i < n; i++ {
			chosen = append(chosen, exprs[rng.Intn(len(exprs))])
		}
		in := ineFromExprs(t, a, chosen...)
		_, want := in.Solve()

		db1, q1, err := BigHyperedge(in)
		if err != nil {
			return false
		}
		r1, err := core.Evaluate(db1, q1, core.Options{Strategy: core.Generic})
		if err != nil || r1.Sat != want {
			t.Logf("seed %d exprs %v: BigHyperedge=%v want=%v err=%v", seed, chosen, r1 != nil && r1.Sat, want, err)
			return false
		}
		db2, q2, err := SharedVariable(in)
		if err != nil {
			return false
		}
		r2, err := core.Evaluate(db2, q2, core.Options{Strategy: core.Generic})
		if err != nil || r2.Sat != want {
			return false
		}
		db3, q3, err := Chain(in)
		if err != nil {
			return false
		}
		r3, err := core.Evaluate(db3, q3, core.Options{Strategy: core.Generic})
		if err != nil || r3.Sat != want {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestEmptyINEInstance(t *testing.T) {
	a := alphabet.Lower(2)
	in := &INEInstance{Alphabet: a}
	if _, _, err := BigHyperedge(in); err == nil {
		t.Error("empty instance should error")
	}
	if _, _, err := SharedVariable(in); err == nil {
		t.Error("empty instance should error")
	}
	if _, _, err := Chain(in); err == nil {
		t.Error("empty instance should error")
	}
}

func TestEmptyLanguageMember(t *testing.T) {
	a := alphabet.Lower(2)
	// One automaton with empty language.
	empty := automata.NewNFA[alphabet.Symbol](1)
	empty.SetStart(0, true) // no accepting states
	in := &INEInstance{Alphabet: a, Automata: []*automata.NFA[alphabet.Symbol]{
		rex.MustCompileString(a, "a*"), empty,
	}}
	if _, ok := in.Solve(); ok {
		t.Fatal("intersection with ∅ should be empty")
	}
	db, q, err := BigHyperedge(in)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Evaluate(db, q, core.Options{Strategy: core.Generic})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sat {
		t.Error("reduction should be unsatisfiable")
	}
}

// --- Lemma 5.3 ---

// triangleCQ: does the structure contain a directed triangle?
func triangleCQ() *cq.Query {
	return &cq.Query{Atoms: []cq.Atom{
		{Rel: "E", Args: []string{"x", "y"}},
		{Rel: "E", Args: []string{"y", "z"}},
		{Rel: "E", Args: []string{"z", "x"}},
	}}
}

func structureWithEdges(n int, edges [][2]int) *cq.Structure {
	s := cq.NewStructure(n)
	if err := s.AddRelation("E", 2); err != nil {
		panic(err)
	}
	for _, e := range edges {
		s.MustAddTuple("E", e[0], e[1])
	}
	return s
}

func TestCQToECRPQTriangle(t *testing.T) {
	withTriangle := structureWithEdges(4, [][2]int{{0, 1}, {1, 2}, {2, 0}, {2, 3}})
	noTriangle := structureWithEdges(4, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	for _, tc := range []struct {
		st   *cq.Structure
		want bool
	}{{withTriangle, true}, {noTriangle, false}} {
		sub, comps, err := SubdivideCQ(tc.st, triangleCQ())
		if err != nil {
			t.Fatal(err)
		}
		// Sanity: subdivided CQ matches original satisfiability.
		splitQ := splitFormQuery(comps)
		_, subSat, err := cq.EvalBacktrack(context.Background(), sub, splitQ)
		if err != nil {
			t.Fatal(err)
		}
		if subSat != tc.want {
			t.Fatalf("subdivision changed satisfiability: %v want %v", subSat, tc.want)
		}
		db, q, err := CQToECRPQ(sub, comps)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Evaluate(db, q, core.Options{Strategy: core.Generic})
		if err != nil {
			t.Fatal(err)
		}
		if res.Sat != tc.want {
			t.Errorf("CQToECRPQ triangle = %v, want %v", res.Sat, tc.want)
		}
		if res.Sat {
			if err := core.VerifyWitness(db, q, res); err != nil {
				t.Errorf("witness: %v", err)
			}
		}
	}
}

// splitFormQuery converts SplitComponents back to a plain CQ (for the
// sanity cross-check).
func splitFormQuery(comps []SplitComponent) *cq.Query {
	q := &cq.Query{}
	for ci, c := range comps {
		yc := "y_" + string(rune('A'+ci))
		for _, p := range c.Paths {
			q.Atoms = append(q.Atoms,
				cq.Atom{Rel: p.R, Args: []string{p.X, yc}},
				cq.Atom{Rel: p.Rp, Args: []string{yc, p.Xp}},
			)
		}
	}
	return q
}

func TestCQToECRPQMultiPathComponent(t *testing.T) {
	// One component with two paths: R(x, y_c) ∧ R'(y_c, x') and
	// S(z, y_c) ∧ S'(y_c, z') — forces both paths through the same middle.
	st := cq.NewStructure(3)
	for _, n := range []string{"R", "Rp", "S", "Sp"} {
		st.AddRelation(n, 2)
	}
	// Middle vertex 1 works for both; middle vertex 2 only for R.
	st.MustAddTuple("R", 0, 1)
	st.MustAddTuple("Rp", 1, 2)
	st.MustAddTuple("R", 0, 2)
	st.MustAddTuple("S", 2, 1)
	st.MustAddTuple("Sp", 1, 0)
	comps := []SplitComponent{{Paths: []SplitAtom{
		{X: "x", R: "R", Rp: "Rp", Xp: "xp"},
		{X: "z", R: "S", Rp: "Sp", Xp: "zp"},
	}}}
	db, q, err := CQToECRPQ(st, comps)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Evaluate(db, q, core.Options{Strategy: core.Generic})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Sat {
		t.Fatal("shared middle vertex 1 exists")
	}
	if err := core.VerifyWitness(db, q, res); err != nil {
		t.Fatal(err)
	}
	// Both witness paths must pass through domain vertex 1 after their first
	// edge: the middle word identifies vertex 1.
	p1 := res.Paths["pi1"]
	if p1.Edges[0].To != 1 {
		t.Errorf("pi1 middle vertex = %d, want 1", p1.Edges[0].To)
	}
	// Unsat variant: remove Sp tuple; no shared middle.
	st2 := cq.NewStructure(3)
	for _, n := range []string{"R", "Rp", "S", "Sp"} {
		st2.AddRelation(n, 2)
	}
	st2.MustAddTuple("R", 0, 1)
	st2.MustAddTuple("Rp", 1, 2)
	st2.MustAddTuple("S", 2, 0)
	st2.MustAddTuple("Sp", 0, 0)
	db2, q2, err := CQToECRPQ(st2, comps)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := core.Evaluate(db2, q2, core.Options{Strategy: core.Generic})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Sat {
		// Middle of R-path is 1; middle of S-path is 0 → different words.
		t.Error("different middles should be unsatisfiable")
	}
}

func TestCQToECRPQAgainstCQEvalProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(3)
		var edges [][2]int
		ne := 1 + rng.Intn(5)
		for i := 0; i < ne; i++ {
			edges = append(edges, [2]int{rng.Intn(n), rng.Intn(n)})
		}
		st := structureWithEdges(n, edges)
		// Random small CQ over E.
		vars := []string{"x", "y", "z"}
		q := &cq.Query{}
		na := 1 + rng.Intn(3)
		for i := 0; i < na; i++ {
			q.Atoms = append(q.Atoms, cq.Atom{Rel: "E", Args: []string{
				vars[rng.Intn(len(vars))], vars[rng.Intn(len(vars))]}})
		}
		_, want, err := cq.EvalBacktrack(context.Background(), st, q)
		if err != nil {
			return false
		}
		sub, comps, err := SubdivideCQ(st, q)
		if err != nil {
			return false
		}
		db, eq, err := CQToECRPQ(sub, comps)
		if err != nil {
			return false
		}
		res, err := core.Evaluate(db, eq, core.Options{Strategy: core.Generic})
		if err != nil {
			return false
		}
		if res.Sat != want {
			t.Logf("seed %d: CQ=%v ECRPQ=%v (query %+v edges %v)", seed, want, res.Sat, q.Atoms, edges)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestCQToECRPQErrors(t *testing.T) {
	st := cq.NewStructure(2)
	st.AddRelation("T", 3)
	st.MustAddTuple("T", 0, 0, 0)
	if _, _, err := CQToECRPQ(st, []SplitComponent{{Paths: []SplitAtom{{X: "x", R: "T", Rp: "T", Xp: "y"}}}}); err == nil {
		t.Error("ternary relation should error")
	}
	st2 := cq.NewStructure(2)
	st2.AddRelation("E", 2)
	if _, _, err := CQToECRPQ(st2, []SplitComponent{{}}); err == nil {
		t.Error("empty component should error")
	}
	if _, _, err := CQToECRPQ(st2, []SplitComponent{{Paths: []SplitAtom{{X: "x", R: "nope", Rp: "E", Xp: "y"}}}}); err == nil {
		t.Error("unknown relation should error")
	}
	if _, _, err := SubdivideCQ(st, &cq.Query{Atoms: []cq.Atom{{Rel: "T", Args: []string{"a", "b", "c"}}}}); err == nil {
		t.Error("non-binary SubdivideCQ should error")
	}
}
