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
)

// The differential suite of the one answers path (`make spine-gate` runs it
// under -race): every way of asking for an answer set, under every
// strategy, gives the same set, and that set is the brute-force semantics.

// answersQueries are the free-variable shapes of the matrix: between them a
// free variable is a component source, only a component destination, only
// on a free track (so only a __reach atom mentions it), and both ends of
// one path.
func answersQueries(t testing.TB, a *alphabet.Alphabet) map[string]*query.Query {
	t.Helper()
	return map[string]*query.Query{
		"source+free-track": freeTestQuery(t, a),
		"destination-only": query.NewBuilder(a).
			Reach("x", "p1", "y").
			Reach("x", "p2", "y").
			Rel(synchro.EqualLength(a, 2), "p1", "p2").
			Lang("p1", "a(a|b)*").
			Free("y").
			MustBuild(),
		"repeated-endpoint": query.NewBuilder(a).
			Reach("x", "p1", "x").
			Reach("x", "p2", "y").
			Lang("p1", "a(a|b)*").
			Free("x", "y").
			MustBuild(),
	}
}

// TestAnswersStrategiesAgreeProperty is the matrix: {Reduction, Generic,
// Generic with EagerMerge} × {the one-shot Answers, Prepared.Answers twice
// over one materialisation, the drained Enumerate} are equal as sets on
// seeded databases and on the empty one, Answers comes out sorted, and the
// set is what NaiveBounded says candidate by candidate — every tuple it
// admits is an answer, and an answer it misses has only witnesses longer
// than its bound.
func TestAnswersStrategiesAgreeProperty(t *testing.T) {
	const bound = 4
	ctx := context.Background()
	a := alphabet.Lower(2)
	dbs := []*graphdb.DB{graphdb.New(a)}
	for seed := int64(0); seed < 16; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dbs = append(dbs, randomDB(rng, a, 1+rng.Intn(4), 1+rng.Intn(7)))
	}
	cells := []Options{{Strategy: Reduction}, {Strategy: Generic}, {Strategy: Generic, EagerMerge: true}}
	answers := 0
	for di, db := range dbs {
		for name, q := range answersQueries(t, a) {
			at := fmt.Sprintf("db %d (V=%d) %s", di, db.NumVertices(), name)
			ref, err := Answers(db, q, Options{})
			if err != nil {
				t.Fatalf("%s: %v", at, err)
			}
			answers += len(ref)
			checkAgainstNaive(t, at, db, q, ref, bound)
			for _, opts := range cells {
				cell := fmt.Sprintf("%s %v eager=%v", at, opts.Strategy, opts.EagerMerge)
				same := func(how string, got [][]int) {
					t.Helper()
					if !slices.EqualFunc(got, ref, slices.Equal[[]int]) {
						t.Fatalf("%s: %s = %v, want %v", cell, how, got, ref)
					}
				}
				oneShot, err := Answers(db, q, opts)
				if err != nil {
					t.Fatalf("%s: %v", cell, err)
				}
				same("Answers", oneShot)
				p, err := Prepare(q, opts)
				if err != nil {
					t.Fatalf("%s: %v", cell, err)
				}
				var mat *Materialization
				if p.Strategy() == Reduction {
					if mat, err = p.Materialize(ctx, db); err != nil {
						t.Fatalf("%s: %v", cell, err)
					}
				}
				for round := 0; round < 2; round++ {
					got, err := p.Answers(ctx, db, mat)
					if err != nil {
						t.Fatalf("%s: %v", cell, err)
					}
					same(fmt.Sprintf("Prepared.Answers #%d", round+1), got)
				}
				streamed := collectEnumerate(t, p, db)
				sortRows(streamed)
				same("Enumerate (sorted)", streamed)
			}
		}
	}
	if answers < 20 {
		t.Errorf("%d answers over the whole matrix: the generator no longer produces satisfiable cells", answers)
	}
}

// checkAgainstNaive holds a sorted answer set to the brute-force semantics,
// pinning each of the V^|Free| candidate tuples in turn.
func checkAgainstNaive(t *testing.T, at string, db *graphdb.DB, q *query.Query, ans [][]int, bound int) {
	t.Helper()
	if !slices.IsSortedFunc(ans, slices.Compare[[]int]) {
		t.Fatalf("%s: Answers is not sorted: %v", at, ans)
	}
	p, err := Prepare(q, Options{Strategy: Generic})
	if err != nil {
		t.Fatal(err)
	}
	n, f := db.NumVertices(), len(q.Free)
	tuple := make([]int, f)
	pinned := make(map[string]int, f)
	for idx := 0; idx < pow(n, f); idx++ {
		for i, rest := f-1, idx; i >= 0; i-- {
			tuple[i], rest = rest%n, rest/n
			pinned[q.Free[i]] = tuple[i]
		}
		_, isAnswer := slices.BinarySearchFunc(ans, tuple, slices.Compare[[]int])
		naive, err := naiveBounded(db, q, pinned, bound)
		if err != nil {
			t.Fatal(err)
		}
		if naive.Sat && !isAnswer {
			t.Fatalf("%s: NaiveBounded admits %v, the answer set %v does not have it", at, tuple, ans)
		}
		if !isAnswer {
			continue
		}
		res, err := p.evalGeneric(context.Background(), db, pinned, nil)
		if err != nil || !res.Sat {
			t.Fatalf("%s: answer %v has no witness (err %v)", at, tuple, err)
		}
		if err := VerifyWitness(db, q, res); err != nil {
			t.Fatalf("%s: answer %v: %v", at, tuple, err)
		}
		long := false
		for _, path := range res.Paths {
			long = long || path.Len() > bound
		}
		if !naive.Sat && !long {
			t.Fatalf("%s: answer %v has a witness within the bound that NaiveBounded missed", at, tuple)
		}
	}
	if n == 0 && len(ans) != 0 {
		t.Fatalf("%s: %v on the empty database", at, ans)
	}
}

// joinHeavyAnswers is an instance whose join dwarfs its sweep: on a
// 40-cycle every pair is a*-reachable, so each of the triangle's three
// relations keeps 1 600 rows while the one bag {x, y, z} joins them into
// 64 000.
func joinHeavyAnswers(t testing.TB) (*graphdb.DB, *query.Query) {
	t.Helper()
	const n = 40
	a := alphabet.Lower(2)
	db := graphdb.New(a)
	for i := 0; i < n; i++ {
		db.MustAddVertex("")
	}
	for i := 0; i < n; i++ {
		db.MustAddEdge(i, 0, (i+1)%n)
	}
	q := query.NewBuilder(a).
		Reach("x", "p1", "y").Reach("y", "p2", "z").Reach("x", "p3", "z").
		Lang("p1", "a*").Lang("p2", "a*").Lang("p3", "a*").
		Free("x").
		MustBuild()
	return db, q
}

// TestAnswersJoinIsGoverned: the answers join charges its bag tables and
// the rows it keeps to the request's reservation. A budget that covers the
// whole sweep but not the join's tables makes the one-shot AnswersContext
// fail with the ledger's typed exhaustion; and over a prebuilt
// materialisation Prepared.Answers leaves nothing charged behind, whether
// it succeeds, is denied, or is cancelled.
func TestAnswersJoinIsGoverned(t *testing.T) {
	db, q := joinHeavyAnswers(t)
	opts := Options{Strategy: Reduction}
	p, err := Prepare(q, opts)
	if err != nil {
		t.Fatal(err)
	}

	// What the sweep alone needs, measured.
	ample := govern.NewBroker(1 << 30)
	res, err := ample.Reserve(0)
	if err != nil {
		t.Fatal(err)
	}
	mat, err := p.Materialize(govern.NewContext(context.Background(), res), db)
	if err != nil {
		t.Fatal(err)
	}
	sweepPeak := res.Peak()
	res.Release()
	const joinTables = 64000 * 3 * 4 // the one bag's table
	budget := sweepPeak + joinTables/4

	for name, run := range map[string]func(ctx context.Context) ([][]int, error){
		"AnswersContext":   func(ctx context.Context) ([][]int, error) { return AnswersContext(ctx, db, q, opts) },
		"Prepared.Answers": func(ctx context.Context) ([][]int, error) { return p.Answers(ctx, db, nil) },
	} {
		broker := govern.NewBroker(budget)
		res, err := broker.Reserve(0)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := run(govern.NewContext(context.Background(), res))
		if !errors.Is(err, govern.ErrResourceExhausted) {
			t.Errorf("%s under a %d-byte budget (sweep peak %d): %d rows, err %v; want ErrResourceExhausted", name, budget, sweepPeak, len(rows), err)
		}
		res.Release()
		if got := broker.Reserved(); got != 0 {
			t.Errorf("%s: broker holds %d bytes after the denied request released", name, got)
		}
	}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name    string
		budget  int64
		ctx     context.Context
		wantErr error
	}{
		{"success", 1 << 30, context.Background(), nil},
		{"denied", joinTables / 4, context.Background(), govern.ErrResourceExhausted},
		{"cancelled", 1 << 30, cancelled, context.Canceled},
	} {
		broker := govern.NewBroker(tc.budget)
		res, err := broker.Reserve(0)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := p.Answers(govern.NewContext(tc.ctx, res), db, mat)
		if !errors.Is(err, tc.wantErr) || (tc.wantErr == nil && (err != nil || len(rows) != 40)) {
			t.Errorf("%s: %d rows, err %v; want err %v", tc.name, len(rows), err, tc.wantErr)
		}
		if tc.wantErr == nil && res.Peak() < joinTables {
			t.Errorf("%s: peak charge %d, below the %d bytes of the join's table", tc.name, res.Peak(), joinTables)
		}
		if used := res.Used(); used != 0 {
			t.Errorf("%s: %d bytes still charged after Answers returned", tc.name, used)
		}
		res.Release()
		if got := broker.Reserved(); got != 0 {
			t.Errorf("%s: broker holds %d bytes after release", tc.name, got)
		}
	}
}

// TestGenericEnumerationSafetyBound: V^|Free| candidate tuples beyond 2³²
// are refused up front under the Generic strategy, as the sweep refuses
// its source tuples — not answered with the empty set, and not attempted.
func TestGenericEnumerationSafetyBound(t *testing.T) {
	a := alphabet.Lower(2)
	db := graphdb.New(a)
	for i := 0; i < 1626; i++ { // 1626³ > 2³²
		db.MustAddVertex("")
	}
	q := query.NewBuilder(a).
		Reach("x", "p1", "y").Reach("y", "p2", "z").
		Lang("p1", "a").
		Free("x", "y", "z").
		MustBuild()
	opts := Options{Strategy: Generic}
	p, err := Prepare(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if it, err := p.Enumerate(context.Background(), db); err == nil {
		it.Close()
		t.Error("Enumerate over 1626³ candidates: no error")
	}
	if rows, err := Answers(db, q, opts); err == nil {
		t.Errorf("Answers over 1626³ candidates: %d rows and no error", len(rows))
	}
}
