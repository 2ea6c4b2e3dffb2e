package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"ecrpq/internal/alphabet"
	"ecrpq/internal/govern"
	"ecrpq/internal/graphdb"
	"ecrpq/internal/query"
	"ecrpq/internal/synchro"
	"ecrpq/internal/workload"
)

// pairChain is workload.PairChainQuery with the pair relation as a
// parameter: x0 -p1-> x1 -p2-> ... -pk-> xk, rel(p1,p2), rel(p3,p4), ...
func pairChain(a *alphabet.Alphabet, k int, rel *synchro.Relation) *query.Query {
	b := query.NewBuilder(a)
	for i := 1; i <= k; i++ {
		b.Reach(fmt.Sprintf("x%d", i-1), fmt.Sprintf("p%d", i), fmt.Sprintf("x%d", i))
	}
	for i := 1; i+1 <= k; i += 2 {
		b.Rel(rel, fmt.Sprintf("p%d", i), fmt.Sprintf("p%d", i+1))
	}
	return b.MustBuild()
}

// joinCases are the materialised-join shapes the repository benchmark's
// hot-cache workload serves: the join-class templates on V = 12 and two of
// the thin ones.
func joinCases() []struct {
	name string
	db   *graphdb.DB
	q    *query.Query
} {
	a := alphabet.Lower(2)
	db12 := workload.RandomDB(rand.New(rand.NewSource(12)), a, 12, 36)
	db14 := workload.RandomDB(rand.New(rand.NewSource(14)), a, 14, 42)
	return []struct {
		name string
		db   *graphdb.DB
		q    *query.Query
	}{
		{"pairchain2-eqlen", db12, pairChain(a, 2, synchro.EqualLength(a, 2))},
		{"pairchain2-hamming1", db12, pairChain(a, 2, synchro.HammingAtMost(a, 1))},
		{"pairchain4-eqlen", db12, pairChain(a, 4, synchro.EqualLength(a, 2))},
		{"pairchain4-hamming1", db12, pairChain(a, 4, synchro.HammingAtMost(a, 1))},
		{"crpq5", db14, workload.CRPQPathQuery(a, 5)},
		{"clique3", db14, workload.CliqueQuery(a, 3)},
	}
}

// BenchmarkCQJoin measures one evaluation of a prepared Reduction plan on a
// prebuilt materialisation: the compiled Prop 2.3 join plus witness
// recovery. rows/op is the materialisation's tuple count, the rows the join
// reads; `make join-gate` holds B/op and allocs/op per such row under its
// ceilings.
func BenchmarkCQJoin(b *testing.B) {
	ctx := context.Background()
	for _, jc := range joinCases() {
		p, err := Prepare(jc.q, Options{Strategy: Reduction})
		if err != nil {
			b.Fatal(err)
		}
		mat, err := p.Materialize(ctx, jc.db)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(jc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := p.EvaluateContext(ctx, jc.db, mat); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(mat.Tuples()), "rows/op")
		})
	}
}

// TestCancelMidJoin cancels an evaluation over a cached materialisation at
// every poll it makes — in the join's scans, semijoins and witness pick, and
// in witness recovery: each run returns context.Canceled with nothing left
// charged, until one completes.
func TestCancelMidJoin(t *testing.T) {
	jc := joinCases()[3] // two bags, 41 472 rows in
	p, err := Prepare(jc.q, Options{Strategy: Reduction})
	if err != nil {
		t.Fatal(err)
	}
	mat, err := p.Materialize(context.Background(), jc.db)
	if err != nil {
		t.Fatal(err)
	}
	broker := govern.NewBroker(1 << 30)
	for polls := 0; ; polls++ {
		res, err := broker.Reserve(0)
		if err != nil {
			t.Fatal(err)
		}
		ctx := &countdownCtx{Context: govern.NewContext(context.Background(), res)}
		ctx.left.Store(int64(polls))
		out, err := p.EvaluateContext(ctx, jc.db, mat)
		used, peak := res.Used(), res.Peak()
		res.Release()
		if used != 0 {
			t.Fatalf("cancelled at poll %d (err %v): %d bytes still charged", polls, err, used)
		}
		if err == nil {
			if !out.Sat || peak == 0 {
				t.Fatalf("completed run: sat=%v, peak charge %d", out.Sat, peak)
			}
			if polls < 12 {
				t.Fatalf("evaluation completed after %d polls: the join does not poll its rows", polls)
			}
			break
		}
		if !errors.Is(err, context.Canceled) || out != nil {
			t.Fatalf("cancelled at poll %d: result %v, err %v, want context.Canceled", polls, out, err)
		}
	}
	if got := broker.Reserved(); got != 0 {
		t.Fatalf("broker holds %d bytes after every reservation was released", got)
	}
}

// TestPreparedJoinLeavesMaterialisationUntouched: a materialisation is
// shared by every request that hits it, so neither deciding the query nor
// computing an answer set over it may add a relation or a tuple to the
// structure, and a second evaluation over it says what the first did.
func TestPreparedJoinLeavesMaterialisationUntouched(t *testing.T) {
	ctx := context.Background()
	for _, jc := range joinCases() {
		fq := *jc.q
		fq.Free = jc.q.NodeVars()[:1]
		for _, q := range []*query.Query{jc.q, &fq} {
			p, err := Prepare(q, Options{Strategy: Reduction})
			if err != nil {
				t.Fatal(err)
			}
			mat, err := p.Materialize(ctx, jc.db)
			if err != nil {
				t.Fatal(err)
			}
			names, tuples := mat.st.RelationNames(), mat.st.NumTuples()
			first, err := p.EvaluateContext(ctx, jc.db, mat)
			if err != nil {
				t.Fatal(err)
			}
			if first.Sat {
				if err := VerifyWitness(jc.db, q, first); err != nil {
					t.Errorf("%s: %v", jc.name, err)
				}
			}
			if len(q.Free) > 0 {
				if _, err := p.Answers(ctx, jc.db, mat); err != nil {
					t.Fatal(err)
				}
			}
			again, err := p.EvaluateContext(ctx, jc.db, mat)
			if err != nil {
				t.Fatal(err)
			}
			if again.Sat != first.Sat || again.Stats != first.Stats {
				t.Errorf("%s: second evaluation sat=%v stats=%+v, first sat=%v stats=%+v", jc.name, again.Sat, again.Stats, first.Sat, first.Stats)
			}
			if after := mat.st.RelationNames(); !slices.Equal(after, names) || mat.st.NumTuples() != tuples {
				t.Errorf("%s: evaluation changed the materialised structure: %v (%d tuples) → %v (%d)", jc.name, names, tuples, after, mat.st.NumTuples())
			}
		}
	}
}
