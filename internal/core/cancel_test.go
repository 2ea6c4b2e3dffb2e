package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"ecrpq/internal/alphabet"
	"ecrpq/internal/govern"
	"ecrpq/internal/graphdb"
	"ecrpq/internal/query"
	"ecrpq/internal/synchro"
)

// denseDB builds a dense deterministic database: n vertices, one edge per
// symbol per vertex. Big enough n makes both evaluation strategies take
// hundreds of milliseconds, which is the window the cancellation tests
// need.
func denseDB(t testing.TB, n int, a *alphabet.Alphabet) *graphdb.DB {
	t.Helper()
	db := graphdb.New(a)
	ids := make([]int, n)
	for i := 0; i < n; i++ {
		id, err := db.AddVertex(fmt.Sprintf("v%d", i))
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	for i := 0; i < n; i++ {
		for s := 0; s < a.Size(); s++ {
			if err := db.AddEdge(ids[i], alphabet.Symbol(s), ids[(i*7+s+1)%n]); err != nil {
				t.Fatal(err)
			}
		}
	}
	return db
}

// slowGenericInstance is unsatisfiable (p1 ∈ aa*, p2 ∈ bb*, all three paths
// equal), so the Lemma 4.2 product search must try all n + n² assignments
// at n=40: 1600 checks from 40 source assignments.
func slowGenericInstance(t testing.TB) (*graphdb.DB, *query.Query) {
	a, err := alphabet.New("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	db := denseDB(t, 40, a)
	q := query.NewBuilder(a).
		Reach("x", "p1", "y").
		Reach("x", "p2", "y").
		Reach("x", "p3", "y").
		Rel(synchro.Equality(a, 3), "p1", "p2", "p3").
		Lang("p1", "aa*").
		Lang("p2", "bb*").
		MustBuild()
	return db, q
}

// wideGenericInstance is slowGenericInstance over 17 tracks, chained by
// binary equalities: 17·6 vertex bits alone are past a word, so the product
// is in the wide key regime. denseDB has one successor per vertex and
// letter, which keeps the 17 pointers of a track tuple together.
func wideGenericInstance(t testing.TB) (*graphdb.DB, *query.Query) {
	db, _ := slowGenericInstance(t)
	q := eqFan(db.Alphabet(), 17).Lang("p1", "aa*").Lang("p2", "bb*").MustBuild()
	comps, err := decomposeViews(q)
	if err != nil || len(comps) != 1 || !packProduct(db, &comps[0]).wide {
		t.Fatalf("not one wide component (err %v)", err)
	}
	return db, q
}

// slowReductionInstance makes the Lemma 4.3 materialization sweep the
// dominant cost: a single 2-track equality component over a dense database,
// so R' is materialized over n² source tuples (roughly a second uncancelled
// at n=60).
func slowReductionInstance(t testing.TB) (*graphdb.DB, *query.Query) {
	a, err := alphabet.New("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	db := denseDB(t, 60, a)
	q := query.NewBuilder(a).
		Reach("x", "p1", "y").
		Reach("x", "p2", "y").
		Rel(synchro.Equality(a, 2), "p1", "p2").
		MustBuild()
	return db, q
}

// waitGoroutines asserts the goroutine count settles back to (about) the
// baseline, giving stragglers a grace period to unwind.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d running, baseline %d", runtime.NumGoroutine(), baseline)
		}
		runtime.Gosched()
		time.Sleep(5 * time.Millisecond)
	}
}

// cancelMidway runs eval under a context cancelled shortly after the work
// starts and asserts it aborts with context.Canceled well before the
// uncancelled runtime.
func cancelMidway(t *testing.T, eval func(ctx context.Context) error) {
	t.Helper()
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(15 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	err := eval(ctx)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v after %v, want context.Canceled", err, elapsed)
	}
	// The uncancelled instances run for 400ms+; a cancelled run must stop
	// almost immediately after the cancel lands.
	if elapsed > 300*time.Millisecond {
		t.Errorf("cancellation took %v to propagate", elapsed)
	}
	waitGoroutines(t, baseline)
}

// TestCancelMidGenericSearch cancels the heavy benchmark shape (an
// unsatisfiable 3-track eq fan: V traversals, V² checks that are set probes)
// and its 17-track wide-regime counterpart at every poll the evaluation
// makes, from the traversals and from the assignment loop: each run returns
// context.Canceled with nothing left charged and no goroutine behind, until
// one completes.
func TestCancelMidGenericSearch(t *testing.T) {
	t.Run("narrow", func(t *testing.T) { cancelAtEveryPoll(t, slowGenericInstance) })
	t.Run("wide", func(t *testing.T) { cancelAtEveryPoll(t, wideGenericInstance) })
}

func cancelAtEveryPoll(t *testing.T, instance func(testing.TB) (*graphdb.DB, *query.Query)) {
	db, q := instance(t)
	baseline := runtime.NumGoroutine()
	broker := govern.NewBroker(1 << 30)
	polls := 0
	for ; ; polls++ {
		res, err := broker.Reserve(0)
		if err != nil {
			t.Fatal(err)
		}
		ctx := &countdownCtx{Context: govern.NewContext(context.Background(), res)}
		ctx.left.Store(int64(polls))
		out, err := EvaluateContext(ctx, db, q, Options{Strategy: Generic, MaxProductStates: 1 << 30})
		used := res.Used()
		res.Release()
		if used != 0 {
			t.Fatalf("cancelled at poll %d (err %v): %d bytes still charged", polls, err, used)
		}
		if err == nil {
			n := db.NumVertices()
			if out.Sat || out.Stats.Traversals != n || out.Stats.NodeAssignments != n+n*n {
				t.Fatalf("completed run: sat=%v, %d traversals, %d assignments", out.Sat, out.Stats.Traversals, out.Stats.NodeAssignments)
			}
			// One poll on entry, one per traversal begun, and the
			// assignment loop's own: the V² probes enter no search loop.
			if want := 1 + n + (n+n*n)/cancelCheckInterval; polls != want {
				t.Fatalf("evaluation polled the context %d times, want %d", polls, want)
			}
			break
		}
		if !errors.Is(err, context.Canceled) || out != nil {
			t.Fatalf("cancelled at poll %d: result %v, err %v, want context.Canceled", polls, out, err)
		}
	}
	waitGoroutines(t, baseline)
	if got := broker.Reserved(); got != 0 {
		t.Fatalf("broker holds %d bytes after every reservation was released", got)
	}
}

func TestCancelMidMaterialization(t *testing.T) {
	db, q := slowReductionInstance(t)
	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprintf("parallelism=%d", par), func(t *testing.T) {
			cancelMidway(t, func(ctx context.Context) error {
				_, err := EvaluateContext(ctx, db, q, Options{Strategy: Reduction, Parallelism: par})
				return err
			})
		})
	}
}

func TestCancelPreparedMaterialize(t *testing.T) {
	db, q := slowReductionInstance(t)
	p, err := Prepare(q, Options{Strategy: Reduction, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	cancelMidway(t, func(ctx context.Context) error {
		_, err := p.Materialize(ctx, db)
		return err
	})
}

func TestDeadlineExceeded(t *testing.T) {
	db, q := slowReductionInstance(t)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := EvaluateContext(ctx, db, q, Options{Strategy: Reduction, Parallelism: 2})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 200*time.Millisecond {
		t.Errorf("deadline overshoot: evaluation ran %v past a 20ms budget", elapsed)
	}
}

// TestPreCancelledContext checks the polling paths notice an already-dead
// context on their first check, for both strategies and for answer
// enumeration.
func TestPreCancelledContext(t *testing.T) {
	a, err := alphabet.New("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	db := denseDB(t, 10, a)
	q := query.NewBuilder(a).
		Reach("x", "p1", "y").
		Reach("x", "p2", "y").
		Rel(synchro.Equality(a, 2), "p1", "p2").
		MustBuild()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, strat := range []Strategy{Generic, Reduction} {
		if _, err := EvaluateContext(ctx, db, q, Options{Strategy: strat}); !errors.Is(err, context.Canceled) {
			t.Errorf("%v: got %v, want context.Canceled", strat, err)
		}
	}
	free := query.NewBuilder(a).
		Free("x").
		Reach("x", "p1", "y").
		Reach("x", "p2", "y").
		Rel(synchro.Equality(a, 2), "p1", "p2").
		MustBuild()
	if _, err := AnswersContext(ctx, db, free, Options{}); !errors.Is(err, context.Canceled) {
		t.Errorf("AnswersContext: got %v, want context.Canceled", err)
	}
}
