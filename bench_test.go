// Benchmarks mirroring the experiment suite (see DESIGN.md for the index
// and EXPERIMENTS.md for recorded results): one testing.B benchmark per
// experiment, each exercising the representative operation of that regime.
package ecrpq_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"ecrpq/internal/alphabet"
	"ecrpq/internal/core"
	"ecrpq/internal/cq"
	"ecrpq/internal/graphdb"
	"ecrpq/internal/query"
	"ecrpq/internal/reductions"
	"ecrpq/internal/synchro"
	"ecrpq/internal/twolevel"
	"ecrpq/internal/workload"
)

func mustEvalB(b *testing.B, db *graphdb.DB, q *query.Query, opts core.Options) *core.Result {
	b.Helper()
	res, err := core.Evaluate(db, q, opts)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkE1_TractableEval — Thm 3.2(3): bounded measures, database sweep.
func BenchmarkE1_TractableEval(b *testing.B) {
	a := alphabet.Lower(2)
	q := workload.PairChainQuery(a, 4)
	for _, n := range []int{12, 18, 27} {
		db := workload.RandomDB(rand.New(rand.NewSource(1)), a, n, 3*n)
		b.Run(fmt.Sprintf("V=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mustEvalB(b, db, q, core.Options{Strategy: core.Reduction})
			}
		})
	}
}

// BenchmarkE1b_TractableQuerySweep — Thm 3.2(3): query-size sweep.
func BenchmarkE1b_TractableQuerySweep(b *testing.B) {
	a := alphabet.Lower(2)
	db := workload.RandomDB(rand.New(rand.NewSource(1)), a, 16, 48)
	for _, k := range []int{4, 8, 12} {
		q := workload.PairChainQuery(a, k)
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mustEvalB(b, db, q, core.Options{Strategy: core.Reduction})
			}
		})
	}
}

// BenchmarkE2_NPRegime — Thm 3.2(2): clique size drives superpolynomial
// growth.
func BenchmarkE2_NPRegime(b *testing.B) {
	a := alphabet.Lower(2)
	for _, k := range []int{2, 3, 4} {
		db := cliqueDB(rand.New(rand.NewSource(1)), a, 18, k)
		q := workload.CliqueQuery(a, k)
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mustEvalB(b, db, q, core.Options{Strategy: core.Reduction})
			}
		})
	}
}

func cliqueDB(rng *rand.Rand, a *alphabet.Alphabet, n, k int) *graphdb.DB {
	db := graphdb.New(a)
	for i := 0; i < n; i++ {
		db.MustAddVertex("")
	}
	for i := 0; i < n; i++ {
		db.MustAddEdge(rng.Intn(n), 0, rng.Intn(n))
	}
	verts := rng.Perm(n)[:k]
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			if i != j {
				db.MustAddEdge(verts[i], 0, verts[j])
			}
		}
	}
	return db
}

// BenchmarkE3_PSPACERegime — Thm 3.2(1): one big component (Lemma 5.1
// case 1); time explodes in the component size.
func BenchmarkE3_PSPACERegime(b *testing.B) {
	a := alphabet.Lower(2)
	for _, n := range []int{2, 3} {
		in := workload.PlantedINE(rand.New(rand.NewSource(1)), a, n, 3, true)
		db, q, err := reductions.BigHyperedge(in)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mustEvalB(b, db, q, core.Options{Strategy: core.Generic})
			}
		})
	}
}

// BenchmarkE4_FPT — Thm 3.1(3): same data exponent at different fixed query
// sizes.
func BenchmarkE4_FPT(b *testing.B) {
	a := alphabet.Lower(2)
	for _, k := range []int{2, 6} {
		q := workload.PairChainQuery(a, k)
		for _, n := range []int{12, 24} {
			db := workload.RandomDB(rand.New(rand.NewSource(1)), a, n, 3*n)
			b.Run(fmt.Sprintf("k=%d/V=%d", k, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					mustEvalB(b, db, q, core.Options{Strategy: core.Reduction})
				}
			})
		}
	}
}

// BenchmarkE5_W1 — Thm 3.1(2): the data exponent grows with the clique
// parameter.
func BenchmarkE5_W1(b *testing.B) {
	a := alphabet.Lower(2)
	for _, k := range []int{2, 3, 4} {
		q := workload.CliqueQuery(a, k)
		db := cliqueDB(rand.New(rand.NewSource(1)), a, 16, k)
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mustEvalB(b, db, q, core.Options{Strategy: core.Reduction})
			}
		})
	}
}

// BenchmarkE6_XNL — Thm 3.1(1): chain-encoded parameterized intersection
// non-emptiness.
func BenchmarkE6_XNL(b *testing.B) {
	a := alphabet.Lower(2)
	for _, k := range []int{2, 3, 4} {
		in := workload.PlantedINE(rand.New(rand.NewSource(1)), a, k, 3, true)
		db, q, err := reductions.Chain(in)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mustEvalB(b, db, q, core.Options{Strategy: core.Generic})
			}
		})
	}
}

// BenchmarkE7_MergeGrowth — Lemma 4.1: merged relation product size.
func BenchmarkE7_MergeGrowth(b *testing.B) {
	a := alphabet.Lower(2)
	h := synchro.HammingAtMost(a, 2)
	for _, l := range []int{2, 4} {
		rels := make([]*synchro.Relation, l)
		vars := make([][]int, l)
		for i := 0; i < l; i++ {
			rels[i] = h
			vars[i] = []int{i, i + 1}
		}
		b.Run(fmt.Sprintf("l=%d", l), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := synchro.Join(a, l+1, rels, vars); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE8_ReductionCost — Lemma 4.3: R' materialization cost grows with
// component arity.
func BenchmarkE8_ReductionCost(b *testing.B) {
	a := alphabet.Lower(2)
	for _, t := range []int{1, 2, 3} {
		q := workload.FanQuery(a, t)
		db := workload.RandomDB(rand.New(rand.NewSource(1)), a, 12, 24)
		b.Run(fmt.Sprintf("t=%d", t), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mustEvalB(b, db, q, core.Options{Strategy: core.Reduction, MaxReductionTracks: 8})
			}
		})
	}
}

// BenchmarkE9_INEReduction — Lemma 5.1: build + evaluate vs direct product.
func BenchmarkE9_INEReduction(b *testing.B) {
	a := alphabet.Lower(2)
	in := workload.PlantedINE(rand.New(rand.NewSource(1)), a, 3, 3, true)
	b.Run("ecrpq-route", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			db, q, err := reductions.BigHyperedge(in)
			if err != nil {
				b.Fatal(err)
			}
			mustEvalB(b, db, q, core.Options{Strategy: core.Generic})
		}
	})
	b.Run("direct-product", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			in.Solve()
		}
	})
}

// BenchmarkE10_CQReduction — Lemma 5.3: CQ evaluation via the ECRPQ
// encoding vs directly.
func BenchmarkE10_CQReduction(b *testing.B) {
	st, q := workload.CliqueCQ(rand.New(rand.NewSource(1)), 3, 6, 6, true)
	sub, comps, err := reductions.SubdivideCQ(st, q)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("ecrpq-route", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			db, eq, err := reductions.CQToECRPQ(sub, comps)
			if err != nil {
				b.Fatal(err)
			}
			mustEvalB(b, db, eq, core.Options{Strategy: core.Generic})
		}
	})
	b.Run("direct-cq", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := cq.EvalTreeDecomp(st, q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE11_DataComplexity — fixed query, per-strategy database scaling.
func BenchmarkE11_DataComplexity(b *testing.B) {
	a := alphabet.Lower(2)
	q := workload.PairChainQuery(a, 2)
	for _, n := range []int{12, 24} {
		db := workload.RandomDB(rand.New(rand.NewSource(1)), a, n, 3*n)
		for _, s := range []struct {
			name string
			opts core.Options
		}{
			{"generic", core.Options{Strategy: core.Generic}},
			{"reduction", core.Options{Strategy: core.Reduction}},
		} {
			b.Run(fmt.Sprintf("%s/V=%d", s.name, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					mustEvalB(b, db, q, s.opts)
				}
			})
		}
	}
}

// BenchmarkE12_CRPQ — Corollary 2.4: plain CRPQ evaluation is polynomial.
func BenchmarkE12_CRPQ(b *testing.B) {
	a := alphabet.Lower(2)
	for _, k := range []int{4, 8} {
		q := workload.CRPQPathQuery(a, k)
		db := workload.RandomDB(rand.New(rand.NewSource(1)), a, 40, 120)
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mustEvalB(b, db, q, core.Options{Strategy: core.Reduction})
			}
		})
	}
}

// BenchmarkAblation_Strategy — generic vs reduction on the same instance.
func BenchmarkAblation_Strategy(b *testing.B) {
	a := alphabet.Lower(2)
	db := workload.RandomDB(rand.New(rand.NewSource(1)), a, 14, 42)
	q := workload.PairChainQuery(a, 4)
	for _, s := range []struct {
		name string
		opts core.Options
	}{
		{"generic-lazy", core.Options{Strategy: core.Generic}},
		{"generic-eager", core.Options{Strategy: core.Generic, EagerMerge: true}},
		{"reduction", core.Options{Strategy: core.Reduction}},
	} {
		b.Run(s.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mustEvalB(b, db, q, s.opts)
			}
		})
	}
}

// BenchmarkAblation_CQEval — backtracking vs tree-decomposition DP.
func BenchmarkAblation_CQEval(b *testing.B) {
	st, q := workload.CliqueCQ(rand.New(rand.NewSource(1)), 3, 16, 48, false)
	b.Run("backtrack", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := cq.EvalBacktrack(context.Background(), st, q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("treedecomp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := cq.EvalTreeDecomp(st, q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblation_Treewidth — exact subset DP vs min-fill heuristic on
// random graphs near the exact-DP size limit.
func BenchmarkAblation_Treewidth(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := twolevel.NewSimpleGraph(14)
	for i := 0; i < 14; i++ {
		for j := i + 1; j < 14; j++ {
			if rng.Intn(3) == 0 {
				g.AddEdge(i, j)
			}
		}
	}
	b.Run("exact-dp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g.Treewidth()
		}
	})
	b.Run("min-fill", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g.Decompose()
		}
	})
}
