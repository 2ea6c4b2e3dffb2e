package core

import (
	"context"
	"errors"
	"fmt"
	"math"
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

// joinOp is the Prop 2.3 layer's operation: the decision Materialize makes
// for a Boolean plan over the rows it built, the compiled join plus witness
// recovery, run again on a prebuilt materialisation. It returns the
// materialisation's tuple count, the rows the join reads.
func joinOp(tb testing.TB, q *query.Query, db *graphdb.DB) func(testing.TB) int {
	ctx := context.Background()
	p, err := Prepare(q, Options{Strategy: Reduction})
	if err != nil {
		tb.Fatal(err)
	}
	mat, err := p.Materialize(ctx, db)
	if err != nil {
		tb.Fatal(err)
	}
	return func(tb testing.TB) int {
		if _, err := p.evalReductionMaterialized(ctx, db, mat); err != nil {
			tb.Fatal(err)
		}
		return mat.Tuples()
	}
}

// BenchmarkCQJoin is the Prop 2.3 layer benchmark over joinCases;
// TestCeilings holds its bytes and allocations per input row.
func BenchmarkCQJoin(b *testing.B) {
	for _, jc := range joinCases() {
		op := joinOp(b, jc.q, jc.db)
		b.Run(jc.name, func(b *testing.B) {
			b.ReportAllocs()
			rows := 0
			for i := 0; i < b.N; i++ {
				rows = op(b)
			}
			b.ReportMetric(float64(rows), "rows/op")
		})
	}
}

// TestCancelMidJoin cancels a Boolean plan's Materialize at every poll it
// makes — in the sweep, then in the join's scans, semijoins and witness
// walk, and in witness recovery: each run returns context.Canceled with no
// materialisation and nothing left charged, until one completes, and the
// decision phase alone polls at least 12 times.
func TestCancelMidJoin(t *testing.T) {
	// Two bags over the pair (y1, y2), 41 472 rows in: each component's
	// four endpoints are distinct variables, so its R' keeps every
	// destination pair.
	a := alphabet.Lower(2)
	h := synchro.HammingAtMost(a, 1)
	jc := struct {
		db *graphdb.DB
		q  *query.Query
	}{joinCases()[3].db, query.NewBuilder(a).
		Reach("x1", "p1", "y1").Reach("x2", "p2", "y2").Rel(h, "p1", "p2").
		Reach("y1", "p3", "z1").Reach("y2", "p4", "z2").Rel(h, "p3", "p4").MustBuild()}
	p, err := Prepare(jc.q, Options{Strategy: Reduction})
	if err != nil {
		t.Fatal(err)
	}
	// The free-variable twin sweeps the same components and decides nothing:
	// its polls are the sweep's.
	fq := *jc.q
	fq.Free = jc.q.NodeVars()[:1]
	twin, err := Prepare(&fq, Options{Strategy: Reduction})
	if err != nil {
		t.Fatal(err)
	}
	counter := &countdownCtx{Context: context.Background()}
	counter.left.Store(math.MaxInt64)
	if _, err := twin.Materialize(counter, jc.db); err != nil {
		t.Fatal(err)
	}
	sweepPolls := int(math.MaxInt64 - counter.left.Load())
	broker := govern.NewBroker(1 << 30)
	for polls := 0; ; polls++ {
		res, err := broker.Reserve(0)
		if err != nil {
			t.Fatal(err)
		}
		ctx := &countdownCtx{Context: govern.NewContext(context.Background(), res)}
		ctx.left.Store(int64(polls))
		mat, err := p.Materialize(ctx, jc.db)
		used, peak := res.Used(), res.Peak()
		res.Release()
		if err == nil {
			if mat.decided == nil || !mat.decided.Sat || used != int64(mat.MemBytes()-512) || peak <= used {
				t.Fatalf("completed run: decided %v, %d bytes charged (MemBytes %d), peak %d", mat.decided, used, mat.MemBytes(), peak)
			}
			if polls-sweepPolls < 12 {
				t.Fatalf("the decision completed after %d polls past the sweep's %d: the join does not poll its rows", polls-sweepPolls, sweepPolls)
			}
			break
		}
		if used != 0 {
			t.Fatalf("cancelled at poll %d (err %v): %d bytes still charged", polls, err, used)
		}
		if !errors.Is(err, context.Canceled) || mat != nil {
			t.Fatalf("cancelled at poll %d: materialisation %v, err %v, want context.Canceled", polls, mat, err)
		}
	}
	if got := broker.Reserved(); got != 0 {
		t.Fatalf("broker holds %d bytes after every reservation was released", got)
	}
}

// TestPreparedJoinLeavesMaterialisationUntouched: a materialisation is
// shared by every request that hits it, so neither deciding the query nor
// computing an answer set over it may add a relation or a tuple to the
// structure, and an evaluation over it says what one over a freshly built
// materialisation says.
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
			fresh, err := p.Materialize(ctx, jc.db)
			if err != nil {
				t.Fatal(err)
			}
			again, err := p.EvaluateContext(ctx, jc.db, fresh)
			if err != nil {
				t.Fatal(err)
			}
			if again.Sat != first.Sat || again.Stats != first.Stats {
				t.Errorf("%s: a fresh materialisation says sat=%v stats=%+v, the first sat=%v stats=%+v", jc.name, again.Sat, again.Stats, first.Sat, first.Stats)
			}
			if after := mat.st.RelationNames(); !slices.Equal(after, names) || mat.st.NumTuples() != tuples {
				t.Errorf("%s: evaluation changed the materialised structure: %v (%d tuples) → %v (%d)", jc.name, names, tuples, after, mat.st.NumTuples())
			}
		}
	}
}
