// Package workload generates the databases, automata and query families
// used by the experiment suite. Every generator is deterministic given its
// *rand.Rand, so experiments are reproducible.
//
// The query families realize the regimes of the characterization theorems:
//
//	PairChainQuery   cc_vertex = 2, cc_hedge = 1, treewidth ≤ 2   → Thm 3.2(3) PTIME / Thm 3.1(3) FPT
//	CliqueQuery      cc_vertex = 1, cc_hedge = 1, treewidth = k−1 → Thm 3.2(2) NP    / Thm 3.1(2) W[1]
//	FanQuery         cc_vertex = k (one big component)            → Thm 3.2(1) PSPACE / Thm 3.1(1) XNL
//	SplitFanQuery    FanQuery with 2k distinct endpoint variables  → Lemma 4.3's R' over V^(2k) rows
package workload

import (
	"fmt"
	"math/rand"

	"ecrpq/internal/alphabet"
	"ecrpq/internal/automata"
	"ecrpq/internal/cq"
	"ecrpq/internal/graphdb"
	"ecrpq/internal/invariant"
	"ecrpq/internal/query"
	"ecrpq/internal/reductions"
	"ecrpq/internal/synchro"
)

// RandomDB generates a random edge-labelled graph with n vertices and
// approximately e edges over the alphabet.
func RandomDB(rng *rand.Rand, a *alphabet.Alphabet, n, e int) *graphdb.DB {
	db := graphdb.New(a)
	for i := 0; i < n; i++ {
		db.MustAddVertex("")
	}
	for i := 0; i < e; i++ {
		db.MustAddEdge(rng.Intn(n), alphabet.Symbol(rng.Intn(a.Size())), rng.Intn(n))
	}
	return db
}

// CycleDB generates a single directed cycle of n vertices with labels drawn
// cyclically from the alphabet.
func CycleDB(a *alphabet.Alphabet, n int) *graphdb.DB {
	db := graphdb.New(a)
	for i := 0; i < n; i++ {
		db.MustAddVertex("")
	}
	for i := 0; i < n; i++ {
		db.MustAddEdge(i, alphabet.Symbol(i%a.Size()), (i+1)%n)
	}
	return db
}

// LineDB generates a directed path of n vertices, labels cyclic.
func LineDB(a *alphabet.Alphabet, n int) *graphdb.DB {
	db := graphdb.New(a)
	for i := 0; i < n; i++ {
		db.MustAddVertex("")
	}
	for i := 0; i+1 < n; i++ {
		db.MustAddEdge(i, alphabet.Symbol(i%a.Size()), i+1)
	}
	return db
}

// RandomDFA generates a complete random DFA with the given number of states
// over the alphabet, as an NFA value (start state 0; each state accepting
// with probability 1/3, at least one accepting state).
func RandomDFA(rng *rand.Rand, a *alphabet.Alphabet, states int) *automata.NFA[alphabet.Symbol] {
	n := automata.NewNFA[alphabet.Symbol](states)
	n.SetStart(0, true)
	any := false
	for q := 0; q < states; q++ {
		if rng.Intn(3) == 0 {
			n.SetAccept(q, true)
			any = true
		}
		for _, s := range a.Symbols() {
			n.AddTransition(q, s, rng.Intn(states))
		}
	}
	if !any {
		n.SetAccept(rng.Intn(states), true)
	}
	return n
}

// PlantedINE generates a k-automaton INE instance. When plant is true, a
// common word is planted so the intersection is guaranteed non-empty (each
// DFA gets an accepting run on the planted word); otherwise the instance is
// random and usually empty for larger k.
func PlantedINE(rng *rand.Rand, a *alphabet.Alphabet, k, states int, plant bool) *reductions.INEInstance {
	in := &reductions.INEInstance{Alphabet: a}
	var planted alphabet.Word
	if plant {
		planted = make(alphabet.Word, 1+rng.Intn(4))
		for i := range planted {
			planted[i] = alphabet.Symbol(rng.Intn(a.Size()))
		}
	}
	for i := 0; i < k; i++ {
		d := RandomDFA(rng, a, states)
		if plant {
			// Force an accepting run on the planted word along fresh deterministic
			// choices: walk the DFA and accept the final state.
			cur := 0
			for _, s := range planted {
				succ := d.Successors(cur, s)
				cur = succ[0]
			}
			d.SetAccept(cur, true)
		}
		in.Automata = append(in.Automata, d)
	}
	return in
}

// PairChainQuery builds the tractable-family query with k path variables:
//
//	x0 -p1-> x1 -p2-> x2 ... -pk-> xk,  eqlen(p1,p2), eqlen(p3,p4), ...
//
// Components are pairs (cc_vertex = 2, cc_hedge = 1) and G^node is a chain
// of 3-cliques, so treewidth ≤ 2: the PTIME/FPT regime.
func PairChainQuery(a *alphabet.Alphabet, k int) *query.Query {
	b := query.NewBuilder(a)
	for i := 1; i <= k; i++ {
		b.Reach(nodeName(i-1), pathName(i), nodeName(i))
	}
	for i := 1; i+1 <= k; i += 2 {
		b.Rel(synchro.EqualLength(a, 2), pathName(i), pathName(i+1))
	}
	return b.MustBuild()
}

// CliqueQuery builds the NP/W[1]-family query: node variables v1..vk and,
// for every pair i < j, a path variable with a one-letter language
// constraint (so the query asks for a k-clique of single edges labelled by
// the first symbol). Components are singletons; treewidth is k−1.
func CliqueQuery(a *alphabet.Alphabet, k int) *query.Query {
	b := query.NewBuilder(a)
	first := a.Name(0)
	for i := 1; i <= k; i++ {
		for j := i + 1; j <= k; j++ {
			b.Edge(nodeName(i), first, nodeName(j))
		}
	}
	return b.MustBuild()
}

// FanQuery builds the PSPACE/XNL-family query: k parallel path variables
// from x to y joined by one k-ary equal-length atom — a single component
// with cc_vertex = k.
func FanQuery(a *alphabet.Alphabet, k int) *query.Query {
	b := query.NewBuilder(a)
	paths := make([]string, k)
	for i := range paths {
		paths[i] = pathName(i + 1)
		b.Reach("x", paths[i], "y")
	}
	b.Rel(synchro.EqualLength(a, k), paths...)
	return b.MustBuild()
}

// SplitFanQuery builds FanQuery with distinct endpoints: k path variables
// x_i -p_i-> y_i joined by one k-ary equal-length atom — a single component
// with cc_vertex = k whose atom has 2k distinct node variables, so its
// endpoint relation R' ranges over V^k source tuples (FanQuery's, whose
// tracks share x and y, over V).
func SplitFanQuery(a *alphabet.Alphabet, k int) *query.Query {
	b := query.NewBuilder(a)
	paths := make([]string, k)
	for i := range paths {
		paths[i] = pathName(i + 1)
		b.Reach(fmt.Sprintf("x%d", i+1), paths[i], fmt.Sprintf("y%d", i+1))
	}
	b.Rel(synchro.EqualLength(a, k), paths...)
	return b.MustBuild()
}

// EqChainQuery builds a k-track single component out of binary atoms only:
// x -pi-> y for each i, chained by eq(p_i, p_{i+1}). cc_vertex = k with
// hyperedges of size 2 (the Lemma 5.4(a) shape on arbitrary databases).
func EqChainQuery(a *alphabet.Alphabet, k int) *query.Query {
	b := query.NewBuilder(a)
	paths := make([]string, k)
	for i := range paths {
		paths[i] = pathName(i + 1)
		b.Reach("x", paths[i], "y")
	}
	for i := 0; i+1 < k; i++ {
		b.Rel(synchro.Equality(a, 2), paths[i], paths[i+1])
	}
	return b.MustBuild()
}

// CRPQPathQuery builds a plain CRPQ: a chain of k regex edges "a*" (first
// symbol star). Treewidth 1, no relations beyond languages.
func CRPQPathQuery(a *alphabet.Alphabet, k int) *query.Query {
	b := query.NewBuilder(a)
	expr := a.Name(0) + "*"
	for i := 1; i <= k; i++ {
		b.Edge(nodeName(i-1), expr, nodeName(i))
	}
	return b.MustBuild()
}

// CliqueCQ builds the k-clique conjunctive query over a binary symmetric
// relation E, together with a random structure of n vertices and e edges in
// which a k-clique is planted when plant is true.
func CliqueCQ(rng *rand.Rand, k, n, e int, plant bool) (*cq.Structure, *cq.Query) {
	s := cq.NewStructure(n)
	invariant.NoError(s.AddRelation("E", 2), "workload: CliqueCQ relation setup")
	addSym := func(u, v int) {
		s.MustAddTuple("E", u, v)
		s.MustAddTuple("E", v, u)
	}
	for i := 0; i < e; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			addSym(u, v)
		}
	}
	if plant && k <= n {
		verts := rng.Perm(n)[:k]
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				addSym(verts[i], verts[j])
			}
		}
	}
	q := &cq.Query{}
	for i := 1; i <= k; i++ {
		for j := i + 1; j <= k; j++ {
			q.Atoms = append(q.Atoms, cq.Atom{Rel: "E", Args: []string{nodeName(i), nodeName(j)}})
		}
	}
	return s, q
}

func nodeName(i int) string { return fmt.Sprintf("x%d", i) }
func pathName(i int) string { return fmt.Sprintf("p%d", i) }
