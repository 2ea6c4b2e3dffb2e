package cq

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// rows32 narrows test rows to the element type relations store.
func rows32(flat []int) []int32 {
	out := make([]int32, len(flat))
	for i, v := range flat {
		out[i] = int32(v)
	}
	return out
}

// pathStructure builds a structure with a binary relation E forming a
// directed path 0 → 1 → ... → n-1.
func pathStructure(n int) *Structure {
	s := NewStructure(n)
	if err := s.AddRelation("E", 2); err != nil {
		panic(err)
	}
	for i := 0; i+1 < n; i++ {
		s.MustAddTuple("E", i, i+1)
	}
	return s
}

func TestStructureBasics(t *testing.T) {
	s := pathStructure(4)
	if s.Domain != 4 || s.NumTuples() != 3 {
		t.Fatalf("domain=%d tuples=%d", s.Domain, s.NumTuples())
	}
	if !s.Contains("E", 1, 2) || s.Contains("E", 2, 1) {
		t.Error("Contains wrong")
	}
	if s.Contains("F", 0, 1) || s.Contains("E", 0) {
		t.Error("unknown relation / wrong arity should be false")
	}
	if err := s.AddRelation("E", 2); err == nil {
		t.Error("duplicate relation should fail")
	}
	if err := s.AddRelation("Z", 0); err == nil {
		t.Error("arity 0 should fail")
	}
	if err := s.AddTuple("E", 0, 99); err == nil {
		t.Error("out-of-domain should fail")
	}
	if err := s.AddTuple("nope", 0); err == nil {
		t.Error("unknown relation should fail")
	}
	if err := s.AddTuple("E", 0); err == nil {
		t.Error("wrong arity should fail")
	}
	s.MustAddTuple("E", 0, 1) // duplicate ignored
	if s.NumTuples() != 3 {
		t.Error("duplicate tuple counted")
	}
	names := s.RelationNames()
	if len(names) != 1 || names[0] != "E" {
		t.Errorf("names = %v", names)
	}
}

func TestQueryValidate(t *testing.T) {
	s := pathStructure(3)
	good := &Query{Atoms: []Atom{{Rel: "E", Args: []string{"x", "y"}}}}
	if err := good.Validate(s); err != nil {
		t.Errorf("valid query rejected: %v", err)
	}
	bad := []*Query{
		{Atoms: []Atom{{Rel: "F", Args: []string{"x", "y"}}}},
		{Atoms: []Atom{{Rel: "E", Args: []string{"x"}}}},
		{Atoms: []Atom{{Rel: "E", Args: []string{"x", ""}}}},
		{Atoms: []Atom{{Rel: "E", Args: []string{"x", "y"}}}, Free: []string{"z"}},
	}
	for i, q := range bad {
		if err := q.Validate(s); err == nil {
			t.Errorf("bad query %d accepted", i)
		}
	}
}

func TestVarsOrder(t *testing.T) {
	q := &Query{
		Atoms: []Atom{{Rel: "E", Args: []string{"b", "a"}}, {Rel: "E", Args: []string{"a", "c"}}},
		Free:  []string{"c"},
	}
	vars := q.Vars()
	if len(vars) != 3 || vars[0] != "c" || vars[1] != "b" {
		t.Errorf("Vars = %v", vars)
	}
}

func TestGaifmanGraph(t *testing.T) {
	q := &Query{Atoms: []Atom{
		{Rel: "R", Args: []string{"x", "y", "z"}},
		{Rel: "E", Args: []string{"z", "w"}},
	}}
	g, vars := q.GaifmanGraph()
	if g.N != 4 {
		t.Fatalf("N = %d", g.N)
	}
	idx := map[string]int{}
	for i, v := range vars {
		idx[v] = i
	}
	// Ternary atom → triangle.
	for _, pair := range [][2]string{{"x", "y"}, {"y", "z"}, {"x", "z"}, {"z", "w"}} {
		if !g.HasEdge(idx[pair[0]], idx[pair[1]]) {
			t.Errorf("missing Gaifman edge %v", pair)
		}
	}
	if g.HasEdge(idx["x"], idx["w"]) {
		t.Error("extra Gaifman edge")
	}
}

func evalBoth(t *testing.T, s *Structure, q *Query) bool {
	t.Helper()
	a1, ok1, err1 := EvalBacktrack(context.Background(), s, q)
	a2, ok2, err2 := EvalTreeDecomp(s, q)
	if err1 != nil || err2 != nil {
		t.Fatalf("errors: %v / %v", err1, err2)
	}
	if ok1 != ok2 {
		t.Fatalf("evaluators disagree: backtrack=%v treedecomp=%v", ok1, ok2)
	}
	if ok1 {
		checkAssignment(t, s, q, a1)
		checkAssignment(t, s, q, a2)
	}
	return ok1
}

func checkAssignment(t *testing.T, s *Structure, q *Query, a Assignment) {
	t.Helper()
	for _, at := range q.Atoms {
		tuple := make([]int, len(at.Args))
		for i, v := range at.Args {
			x, ok := a[v]
			if !ok {
				t.Fatalf("assignment missing %q", v)
			}
			tuple[i] = x
		}
		if !s.Contains(at.Rel, tuple...) {
			t.Fatalf("assignment violates %v", at)
		}
	}
}

func TestEvalPathQueries(t *testing.T) {
	s := pathStructure(5)
	// Path of length 3 exists.
	q3 := &Query{Atoms: []Atom{
		{Rel: "E", Args: []string{"a", "b"}},
		{Rel: "E", Args: []string{"b", "c"}},
		{Rel: "E", Args: []string{"c", "d"}},
	}}
	if !evalBoth(t, s, q3) {
		t.Error("length-3 path should exist")
	}
	// Path of length 5 does not.
	q5 := &Query{Atoms: []Atom{
		{Rel: "E", Args: []string{"a", "b"}},
		{Rel: "E", Args: []string{"b", "c"}},
		{Rel: "E", Args: []string{"c", "d"}},
		{Rel: "E", Args: []string{"d", "e"}},
		{Rel: "E", Args: []string{"e", "f"}},
	}}
	if evalBoth(t, s, q5) {
		t.Error("length-5 path should not exist in a 5-vertex path")
	}
	// Cycle query on an acyclic structure.
	qc := &Query{Atoms: []Atom{
		{Rel: "E", Args: []string{"a", "b"}},
		{Rel: "E", Args: []string{"b", "a"}},
	}}
	if evalBoth(t, s, qc) {
		t.Error("2-cycle should not exist")
	}
}

func TestEvalRepeatedVariable(t *testing.T) {
	s := pathStructure(3)
	// E(x, x): self-loop — none in a path.
	q := &Query{Atoms: []Atom{{Rel: "E", Args: []string{"x", "x"}}}}
	if evalBoth(t, s, q) {
		t.Error("self-loop should not exist")
	}
	s.MustAddTuple("E", 2, 2)
	if !evalBoth(t, s, q) {
		t.Error("self-loop now exists")
	}
}

func TestEvalEmptyQuery(t *testing.T) {
	s := pathStructure(2)
	q := &Query{}
	if !evalBoth(t, s, q) {
		t.Error("empty query should be satisfiable")
	}
}

func TestEvalDisconnectedQuery(t *testing.T) {
	s := pathStructure(4)
	s.AddRelation("U", 1)
	s.MustAddTuple("U", 3)
	q := &Query{Atoms: []Atom{
		{Rel: "E", Args: []string{"a", "b"}},
		{Rel: "U", Args: []string{"z"}},
	}}
	if !evalBoth(t, s, q) {
		t.Error("disconnected satisfiable query failed")
	}
	q2 := &Query{Atoms: []Atom{
		{Rel: "E", Args: []string{"a", "b"}},
		{Rel: "U", Args: []string{"z"}},
		{Rel: "E", Args: []string{"z", "w"}}, // U only holds 3, which has no outgoing edge
	}}
	if evalBoth(t, s, q2) {
		t.Error("should be unsatisfiable")
	}
}

func TestEvalHigherArity(t *testing.T) {
	s := NewStructure(4)
	s.AddRelation("T", 3)
	s.MustAddTuple("T", 0, 1, 2)
	s.MustAddTuple("T", 1, 2, 3)
	q := &Query{Atoms: []Atom{
		{Rel: "T", Args: []string{"x", "y", "z"}},
		{Rel: "T", Args: []string{"y", "z", "w"}},
	}}
	if !evalBoth(t, s, q) {
		t.Error("chained ternary atoms should match")
	}
	q2 := &Query{Atoms: []Atom{
		{Rel: "T", Args: []string{"x", "y", "x"}},
	}}
	if evalBoth(t, s, q2) {
		t.Error("no tuple with first=third")
	}
}

func TestAllAnswers(t *testing.T) {
	s := pathStructure(4)
	q := &Query{
		Atoms: []Atom{{Rel: "E", Args: []string{"x", "y"}}, {Rel: "E", Args: []string{"y", "z"}}},
		Free:  []string{"x", "z"},
	}
	ans, err := AllAnswers(context.Background(), s, q)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int{{0, 2}, {1, 3}}
	if len(ans) != len(want) {
		t.Fatalf("answers = %v, want %v", ans, want)
	}
	for i := range want {
		if ans[i][0] != want[i][0] || ans[i][1] != want[i][1] {
			t.Errorf("answers = %v, want %v", ans, want)
		}
	}
	if _, err := AllAnswers(context.Background(), s, &Query{Atoms: q.Atoms}); err == nil {
		t.Error("AllAnswers on Boolean query should error")
	}
}

// pollCtx turns cancelled at its cancelAt-th Err poll and counts the polls.
type pollCtx struct {
	context.Context
	polls, cancelAt int
}

func (c *pollCtx) Err() error {
	c.polls++
	if c.polls >= c.cancelAt {
		return context.Canceled
	}
	return nil
}

// TestAllAnswersCancelled: the enumeration polls its context every pollRows
// rows, so a cancellation stops it there and no answer comes back.
func TestAllAnswersCancelled(t *testing.T) {
	s := pathStructure(10 * pollRows)
	q := &Query{
		Atoms: []Atom{{Rel: "E", Args: []string{"x", "y"}}, {Rel: "E", Args: []string{"y", "z"}}},
		Free:  []string{"x", "z"},
	}
	ctx := &pollCtx{Context: context.Background(), cancelAt: 10}
	ans, err := AllAnswers(ctx, s, q)
	if !errors.Is(err, context.Canceled) || ans != nil {
		t.Fatalf("AllAnswers = %v, %v; want nil, context.Canceled", ans, err)
	}
	if ctx.polls != ctx.cancelAt {
		t.Errorf("%d context polls for a cancellation at poll %d: the enumeration ran on", ctx.polls, ctx.cancelAt)
	}
}

// TestLoadSorted covers the bulk-load constructor: rows must be distinct,
// ascending under the given column order and inside the domain; a loaded
// relation answers Contains by binary search and refuses AddTuple.
func TestLoadSorted(t *testing.T) {
	s := NewStructure(4)
	// Ascending by column 1, then column 0.
	flat := []int32{2, 0, 3, 0, 0, 1, 1, 3}
	if err := s.LoadSorted("R", 2, flat, []int{1, 0}); err != nil {
		t.Fatal(err)
	}
	r := s.Relation("R")
	if r.Len() != 4 || &r.Row(1)[0] != &flat[2] || cap(r.Row(1)) != 2 {
		t.Fatalf("%d rows, row 1 = %v: want 4 rows slicing the loaded array", r.Len(), r.Row(1))
	}
	for d := 0; d < 16; d++ {
		tup := []int{d / 4, d % 4}
		want := false
		for i := 0; i < r.Len(); i++ {
			want = want || (int(r.Row(i)[0]) == tup[0] && int(r.Row(i)[1]) == tup[1])
		}
		if got := s.Contains("R", tup...); got != want {
			t.Errorf("Contains(%v) = %v, want %v", tup, got, want)
		}
	}
	if s.NumTuples() != 4 {
		t.Errorf("NumTuples = %d, want 4", s.NumTuples())
	}
	if err := s.AddTuple("R", 0, 0); err == nil {
		t.Error("AddTuple on a bulk-loaded relation should fail")
	}
	if !evalBoth(t, s, &Query{Atoms: []Atom{{Rel: "R", Args: []string{"x", "y"}}, {Rel: "R", Args: []string{"y", "z"}}}}) {
		t.Error("R(2,0), R(0,1) should join")
	}
	for name, bad := range map[string]struct {
		arity int
		flat  []int32
		order []int
	}{
		"duplicate name":      {2, nil, []int{0, 1}},
		"unsorted":            {2, []int32{1, 0, 0, 0}, []int{0, 1}},
		"repeated row":        {2, []int32{1, 0, 1, 0}, []int{0, 1}},
		"ragged":              {2, []int32{1, 0, 1}, []int{0, 1}},
		"outside domain":      {2, []int32{1, 4}, []int{0, 1}},
		"negative value":      {2, []int32{1, -1}, []int{0, 1}},
		"short order":         {2, []int32{1, 0}, []int{0}},
		"long order":          {2, []int32{1, 0}, []int{0, 1, 0}},
		"empty order":         {2, []int32{1, 0, 2, 0}, []int{}},
		"nil order, one row":  {2, []int32{1, 0}, nil},
		"nil order, no rows":  {2, nil, nil},
		"repeated column":     {2, []int32{1, 0}, []int{0, 0}},
		"column too large":    {2, []int32{1, 0}, []int{0, 2}},
		"negative column":     {2, []int32{1, 0}, []int{0, -1}},
		"zero arity":          {0, nil, nil},
		"unsorted and beyond": {2, []int32{1, 0, 0, 0, 0, 4}, []int{0, 1}},
	} {
		rel := "R"
		if name != "duplicate name" {
			rel = "bad " + name
		}
		err := s.LoadSorted(rel, bad.arity, bad.flat, bad.order)
		if err == nil {
			t.Errorf("%s: LoadSorted accepted it", name)
		} else if name == "unsorted and beyond" && !strings.Contains(err.Error(), "outside domain") {
			t.Errorf("%s: err = %v; a value outside the domain is reported before the order", name, err)
		}
		if rel != "R" && s.Relation(rel) != nil {
			t.Errorf("%s: the rejected relation was declared", name)
		}
	}
	if err := s.LoadSorted("empty", 3, nil, []int{2, 1, 0}); err != nil || s.Contains("empty", 0, 0, 0) {
		t.Errorf("empty bulk load: err %v", err)
	}
}

func TestTreewidthOfQuery(t *testing.T) {
	// Acyclic chain: tw 1.
	q := &Query{Atoms: []Atom{
		{Rel: "E", Args: []string{"a", "b"}},
		{Rel: "E", Args: []string{"b", "c"}},
	}}
	lo, hi, exact := q.Treewidth()
	if !exact || lo != 1 || hi != 1 {
		t.Errorf("chain tw = [%d,%d]", lo, hi)
	}
	// Triangle: tw 2.
	q2 := &Query{Atoms: []Atom{
		{Rel: "E", Args: []string{"a", "b"}},
		{Rel: "E", Args: []string{"b", "c"}},
		{Rel: "E", Args: []string{"c", "a"}},
	}}
	lo, _, _ = q2.Treewidth()
	if lo != 2 {
		t.Errorf("triangle tw = %d", lo)
	}
}

// randomInstance builds a random structure + query for the agreement
// property test.
func randomInstance(rng *rand.Rand) (*Structure, *Query) {
	dom := 2 + rng.Intn(4)
	s := NewStructure(dom)
	s.AddRelation("E", 2)
	s.AddRelation("U", 1)
	nE := rng.Intn(dom * 2)
	for i := 0; i < nE; i++ {
		s.MustAddTuple("E", rng.Intn(dom), rng.Intn(dom))
	}
	for i := 0; i < rng.Intn(dom); i++ {
		s.MustAddTuple("U", rng.Intn(dom))
	}
	varNames := []string{"a", "b", "c", "d", "e"}
	nAtoms := 1 + rng.Intn(4)
	q := &Query{}
	for i := 0; i < nAtoms; i++ {
		if rng.Intn(4) == 0 {
			q.Atoms = append(q.Atoms, Atom{Rel: "U", Args: []string{varNames[rng.Intn(len(varNames))]}})
		} else {
			q.Atoms = append(q.Atoms, Atom{Rel: "E", Args: []string{
				varNames[rng.Intn(len(varNames))], varNames[rng.Intn(len(varNames))]}})
		}
	}
	return s, q
}

func TestEvaluatorsAgreeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s, q := randomInstance(rng)
		_, ok1, err1 := EvalBacktrack(context.Background(), s, q)
		_, ok2, err2 := EvalTreeDecomp(s, q)
		if err1 != nil || err2 != nil {
			return false
		}
		if ok1 != ok2 {
			t.Logf("disagreement on seed %d: query %+v", seed, q)
			return false
		}
		// Cross-check with brute force over all assignments (domains small).
		vars := q.Vars()
		brute := false
		assign := make(Assignment)
		var rec func(i int) bool
		rec = func(i int) bool {
			if i == len(vars) {
				for _, at := range q.Atoms {
					tuple := make([]int, len(at.Args))
					for k, a := range at.Args {
						tuple[k] = assign[a]
					}
					if !s.Contains(at.Rel, tuple...) {
						return false
					}
				}
				return true
			}
			for d := 0; d < s.Domain; d++ {
				assign[vars[i]] = d
				if rec(i + 1) {
					return true
				}
			}
			return false
		}
		brute = rec(0)
		return brute == ok1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestEvalLargerTreeShapedQuery(t *testing.T) {
	// Binary-tree-shaped query on a random-ish structure: exercises the
	// decomposition machinery on >2 bags.
	s := NewStructure(6)
	s.AddRelation("E", 2)
	edges := [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}, {0, 3}, {1, 4}}
	for _, e := range edges {
		s.MustAddTuple("E", e[0], e[1])
	}
	var atoms []Atom
	for i := 0; i < 7; i++ {
		atoms = append(atoms, Atom{Rel: "E", Args: []string{
			fmt.Sprintf("v%d", i), fmt.Sprintf("v%d", 2*i+1)}})
	}
	q := &Query{Atoms: atoms}
	if !evalBoth(t, s, q) {
		t.Error("tree query on cyclic structure should be satisfiable")
	}
}
