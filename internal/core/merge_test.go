package core

import (
	"context"
	"testing"

	"ecrpq/internal/alphabet"
	"ecrpq/internal/invariant"
	"ecrpq/internal/query"
	"ecrpq/internal/synchro"
)

// mergeShapes are the component shapes of the generic-search workload whose
// Lemma 4.1 merge costs the most: the edit<=2 fan, the prefix and hamming<=1
// 3-chains and the 3-track eq fan, whose merge trims to the empty relation.
func mergeShapes(a *alphabet.Alphabet) []struct {
	name string
	q    *query.Query
} {
	hamming := synchro.HammingAtMost(a, 1)
	return []struct {
		name string
		q    *query.Query
	}{
		{"fan-edit2", query.NewBuilder(a).
			Reach("x", "p1", "y").Reach("x", "p2", "y").
			Rel(invariant.Must(synchro.EditDistanceAtMost(a, 2)), "p1", "p2").
			Lang("p1", "aa(a|b)*").Lang("p2", "b(a|b)*").MustBuild()},
		{"chain-prefix3", prefixChain3(a)},
		{"chain-hamming3", query.NewBuilder(a).
			Reach("x", "p1", "y").Reach("x", "p2", "y").Reach("x", "p3", "y").
			Rel(hamming, "p1", "p2").Rel(hamming, "p2", "p3").
			Lang("p1", "aa(a|b)*").Lang("p3", "bb(a|b)*").MustBuild()},
		{"fan-eq3", query.NewBuilder(a).
			Reach("x", "p1", "y").Reach("x", "p2", "y").Reach("x", "p3", "y").
			Rel(synchro.Equality(a, 3), "p1", "p2", "p3").
			Lang("p1", "a(a|b)*").Lang("p2", "b(a|b)*").Lang("p3", "(a|b)*").MustBuild()},
	}
}

// mergeOp is the merge layer's operation on a query: prepare, which is the
// merge and little else on a one-component Generic plan. It returns the
// merged automaton's transitions, what TestCeilings' merge rows are per.
func mergeOp(q *query.Query) func(testing.TB) int {
	return func(tb testing.TB) int {
		p, err := prepare(context.Background(), q, Options{Strategy: Generic})
		if err != nil {
			tb.Fatal(err)
		}
		transitions := 0
		for i := range p.merged {
			transitions += p.merged[i].nfa.NumTransitions()
		}
		return transitions
	}
}

// BenchmarkMerge is the Lemma 4.1 layer benchmark: a Generic prepare of each
// of mergeShapes, what every generic-search op and every plan-cache miss
// pays before its search.
func BenchmarkMerge(b *testing.B) {
	for _, ms := range mergeShapes(alphabet.Lower(2)) {
		op := mergeOp(ms.q)
		b.Run(ms.name, func(b *testing.B) {
			b.ReportAllocs()
			transitions := 0
			for i := 0; i < b.N; i++ {
				transitions = op(b)
			}
			b.ReportMetric(float64(transitions), "transitions/op")
		})
	}
}
