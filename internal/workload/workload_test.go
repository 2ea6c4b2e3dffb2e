package workload

import (
	"context"
	"math/rand"
	"testing"

	"ecrpq/internal/alphabet"
	"ecrpq/internal/core"
	"ecrpq/internal/cq"
	"ecrpq/internal/twolevel"
)

func TestDBGenerators(t *testing.T) {
	a := alphabet.Lower(2)
	rng := rand.New(rand.NewSource(1))
	db := RandomDB(rng, a, 10, 20)
	if db.NumVertices() != 10 {
		t.Errorf("vertices = %d", db.NumVertices())
	}
	if db.NumEdges() == 0 || db.NumEdges() > 20 {
		t.Errorf("edges = %d", db.NumEdges())
	}
	c := CycleDB(a, 5)
	if c.NumVertices() != 5 || c.NumEdges() != 5 {
		t.Errorf("cycle: %d/%d", c.NumVertices(), c.NumEdges())
	}
	l := LineDB(a, 5)
	if l.NumEdges() != 4 {
		t.Errorf("line edges = %d", l.NumEdges())
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a := alphabet.Lower(2)
	d1 := RandomDB(rand.New(rand.NewSource(7)), a, 8, 16)
	d2 := RandomDB(rand.New(rand.NewSource(7)), a, 8, 16)
	if d1.FormatString() != d2.FormatString() {
		t.Error("RandomDB not deterministic for equal seeds")
	}
}

func TestRandomDFAComplete(t *testing.T) {
	a := alphabet.Lower(2)
	d := RandomDFA(rand.New(rand.NewSource(3)), a, 5)
	for q := 0; q < d.NumStates(); q++ {
		for _, s := range a.Symbols() {
			if len(d.Successors(q, s)) != 1 {
				t.Fatalf("state %d symbol %d: not deterministic-complete", q, s)
			}
		}
	}
	if len(d.AcceptStates()) == 0 {
		t.Error("no accepting states")
	}
}

func TestPlantedINE(t *testing.T) {
	a := alphabet.Lower(2)
	for seed := int64(0); seed < 10; seed++ {
		in := PlantedINE(rand.New(rand.NewSource(seed)), a, 4, 4, true)
		if _, ok := in.Solve(); !ok {
			t.Errorf("seed %d: planted instance should be non-empty", seed)
		}
	}
	// Unplanted instances with many automata are usually empty; at minimum
	// they must be well-formed.
	in := PlantedINE(rand.New(rand.NewSource(1)), a, 3, 4, false)
	if len(in.Automata) != 3 {
		t.Errorf("automata = %d", len(in.Automata))
	}
}

func TestQueryFamilyMeasures(t *testing.T) {
	a := alphabet.Lower(2)
	// PairChain: cc_vertex 2, tw ≤ 2.
	m := twolevel.QueryMeasures(PairChainQuery(a, 6))
	if m.CCVertex != 2 || m.CCHedge != 1 {
		t.Errorf("PairChain measures = %+v", m)
	}
	if m.TreewidthUpper > 2 {
		t.Errorf("PairChain tw = %d, want ≤ 2", m.TreewidthUpper)
	}
	// Clique: cc_vertex 1, tw = k-1.
	for _, k := range []int{3, 4, 5} {
		m := twolevel.QueryMeasures(CliqueQuery(a, k))
		if m.CCVertex != 1 {
			t.Errorf("Clique(%d) cc_vertex = %d", k, m.CCVertex)
		}
		if !m.TreewidthExact || m.TreewidthUpper != k-1 {
			t.Errorf("Clique(%d) tw = %d, want %d", k, m.TreewidthUpper, k-1)
		}
	}
	// Fan: cc_vertex = k.
	for _, k := range []int{2, 4} {
		m := twolevel.QueryMeasures(FanQuery(a, k))
		if m.CCVertex != k || m.CCHedge != 1 {
			t.Errorf("Fan(%d) measures = %+v", k, m)
		}
	}
	// SplitFan: cc_vertex = k, as for the fan.
	for _, k := range []int{2, 4} {
		m := twolevel.QueryMeasures(SplitFanQuery(a, k))
		if m.CCVertex != k || m.CCHedge != 1 {
			t.Errorf("SplitFan(%d) measures = %+v", k, m)
		}
	}
	// EqChain: cc_vertex = k, hyperedges of size 2.
	m = twolevel.QueryMeasures(EqChainQuery(a, 5))
	if m.CCVertex != 5 || m.CCHedge != 4 {
		t.Errorf("EqChain measures = %+v", m)
	}
	// CRPQ path: tw 1.
	m = twolevel.QueryMeasures(CRPQPathQuery(a, 4))
	if m.CCVertex != 1 || m.TreewidthUpper != 1 {
		t.Errorf("CRPQPath measures = %+v", m)
	}
}

func TestQueryFamiliesEvaluate(t *testing.T) {
	a := alphabet.Lower(2)
	db := CycleDB(a, 6)
	// On a cycle, equal-length paths always exist (follow the same path):
	res, err := core.Evaluate(db, PairChainQuery(a, 4), core.Options{})
	if err != nil || !res.Sat {
		t.Errorf("PairChain on cycle: %v %v", err, res)
	}
	res, err = core.Evaluate(db, FanQuery(a, 3), core.Options{Strategy: core.Generic})
	if err != nil || !res.Sat {
		t.Errorf("Fan on cycle: %v %v", err, res)
	}
	res, err = core.Evaluate(db, SplitFanQuery(a, 3), core.Options{Strategy: core.Reduction})
	if err != nil || !res.Sat {
		t.Errorf("SplitFan on cycle: %v %v", err, res)
	}
	res, err = core.Evaluate(db, EqChainQuery(a, 3), core.Options{Strategy: core.Generic})
	if err != nil || !res.Sat {
		t.Errorf("EqChain on cycle: %v %v", err, res)
	}
	// CRPQ path over label-0 edges: cycle alternates labels, so "a*" chains
	// exist of length ≥ 1 (empty paths allowed).
	res, err = core.Evaluate(db, CRPQPathQuery(a, 3), core.Options{})
	if err != nil || !res.Sat {
		t.Errorf("CRPQPath on cycle: %v %v", err, res)
	}
	// CliqueQuery on a triangle of first-symbol edges.
	tri := RandomDB(rand.New(rand.NewSource(1)), a, 1, 0)
	tri.MustAddEdge(0, 0, 0)
	res, err = core.Evaluate(tri, CliqueQuery(a, 3), core.Options{})
	if err != nil || !res.Sat {
		t.Errorf("Clique on loop vertex: %v %v", err, res)
	}
}

func TestCliqueCQ(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s, q := CliqueCQ(rng, 3, 8, 5, true)
	_, sat, err := cq.EvalBacktrack(context.Background(), s, q)
	if err != nil {
		t.Fatal(err)
	}
	if !sat {
		t.Error("planted clique should be found")
	}
	// Without planting and with no edges: unsat for k ≥ 2.
	s2, q2 := CliqueCQ(rand.New(rand.NewSource(3)), 3, 8, 0, false)
	_, sat2, err := cq.EvalBacktrack(context.Background(), s2, q2)
	if err != nil {
		t.Fatal(err)
	}
	if sat2 {
		t.Error("no edges: no clique")
	}
}
