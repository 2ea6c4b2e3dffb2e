// The relation-class hierarchy Recognizable ⊊ Synchronous ⊊ Rational from
// the paper's introduction, made concrete:
//
//   - a recognizable relation (a product of languages) converts losslessly
//     into ECRPQ form, and CRPQ+Recognizable collapses to a union of CRPQs;
//   - a synchronous relation (equal length) is evaluated exactly and always
//     terminates — the paper's sweet spot;
//   - a rational relation (suffix) escapes the synchronous class: evaluation
//     of CRPQ+Rational is undecidable, and all this library can offer is a
//     sound-but-incomplete bounded search, demonstrated on a Post
//     Correspondence Problem encoding.
//
// Run with:  go run ./examples/hierarchy
package main

import (
	"fmt"
	"log"

	"ecrpq"
	"ecrpq/examples/hierarchy/rational"
	"ecrpq/examples/hierarchy/recog"
	"ecrpq/internal/alphabet"
	"ecrpq/internal/automata"
	"ecrpq/internal/core"
	"ecrpq/internal/query"
	"ecrpq/internal/rex"
)

func main() {
	a, err := ecrpq.NewAlphabet("a", "b")
	if err != nil {
		log.Fatal(err)
	}
	db, err := ecrpq.ParseDB(`
alphabet a b
u a v
v a w
u b m
m b w
`)
	if err != nil {
		log.Fatal(err)
	}

	// --- Level 1: recognizable (weakest). R = a⁺ × b⁺.
	rec, err := recog.New(a, 2, recog.Term{Langs: []*automata.NFA[alphabet.Symbol]{
		rex.MustCompileString(a, "a+"), rex.MustCompileString(a, "b+"),
	}})
	if err != nil {
		log.Fatal(err)
	}
	base := query.NewBuilder(a).
		Reach("x", "p1", "y").
		Reach("x", "p2", "y").
		Lang("p1", "(a|b)*").
		Lang("p2", "(a|b)*").
		MustBuild()
	u, err := recog.ToUCRPQ(base, []recog.Atom{{Rel: rec, Paths: []string{"p1", "p2"}}})
	if err != nil {
		log.Fatal(err)
	}
	res1, err := core.EvaluateUnion(db, u, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("recognizable a⁺×b⁺ as a UCRPQ:", len(u.Disjuncts), "disjunct(s); satisfiable:", res1.Sat)

	// --- Level 2: synchronous (the paper's class). eq-len needs lock-step
	// tape access: no recognizable relation can express it, but ECRPQ
	// evaluates it exactly.
	q2, err := ecrpq.ParseQuery(`
alphabet a b
x -[$p1]-> y
x -[$p2]-> y
rel eqlen(p1, p2)
lang p1 a+
lang p2 b+
`)
	if err != nil {
		log.Fatal(err)
	}
	res2, err := ecrpq.Evaluate(db, q2, ecrpq.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("synchronous eq-len between a⁺ and b⁺ paths:", res2.Sat,
		"(exact, always terminates — Thm 3.2 applies)")

	// --- Level 3: rational (too strong). Suffix is rational but not
	// synchronous; with transducer relations only a bounded search remains.
	rq := &rational.RationalQuery{
		Reach: []rational.ReachAtom{
			{Src: "x1", Dst: "y1", Path: "s1"},
			{Src: "x2", Dst: "y2", Path: "s2"},
		},
		Atoms: []rational.RationalAtom{{Rel: rational.SuffixOf(a), Path1: "s1", Path2: "s2"}},
	}
	_, ok, err := rational.BoundedEval(db, rq, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("rational suffix relation, bounded search (≤3 edges):", ok,
		"(sound but incomplete — evaluation is undecidable in general)")

	// The undecidability source, concretely: PCP reduces to CRPQ+Rational.
	w := func(s string) alphabet.Word { return alphabet.MustParseWord(a, s) }
	pcp := &rational.PCPInstance{
		Alphabet: a,
		X:        []alphabet.Word{w("ab"), w("b")},
		Y:        []alphabet.Word{w("a"), w("bb")},
	}
	pdb, pq, err := pcp.ToCRPQRational()
	if err != nil {
		log.Fatal(err)
	}
	_, solvable, err := rational.BoundedEval(pdb, pq, 3)
	if err != nil {
		log.Fatal(err)
	}
	seq, _ := pcp.SolveBounded(4)
	fmt.Printf("PCP instance as CRPQ+Rational: bounded evaluation says %v (solution indices %v)\n",
		solvable, seq)
	fmt.Println("— no bound works for every instance: that failure mode is exactly why ECRPQ stops at synchronous relations")
}
