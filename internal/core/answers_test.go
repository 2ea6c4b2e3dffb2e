package core

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"ecrpq/internal/alphabet"
	"ecrpq/internal/govern"
	"ecrpq/internal/graphdb"
	"ecrpq/internal/query"
	"ecrpq/internal/synchro"
	"ecrpq/internal/trace"
)

// The differential suite of the one answers path (`make race` runs it
// under -race): every way of asking for an answer set, under every
// strategy, gives the same set, and that set is the brute-force semantics.

// answersShape is one free-variable query of the matrix, with the largest
// database and the path bound its brute-force check can afford (NaiveBounded
// tries every combination of paths within the bound).
type answersShape struct {
	name        string
	q           *query.Query
	maxV, bound int
}

// answersShapes are the free-variable shapes of the matrix, chosen by where
// the free variables land in the Lemma 4.3 query's decomposition: a
// component source, only a component destination, only on a free track (so
// only a __reach atom mentions it), both ends of one path; in different bags
// with existential-only bags between them (the non-free-connex chains, with
// and without a 2-track component in the middle); in a bag column extended
// over the domain (each variable of a 5-cycle in turn); and in two trees at
// once beside a Boolean-only tree that is often empty. Then the free-track
// shapes, each twice: as written and with (a|b)* spelled out.
func answersShapes(t testing.TB, a *alphabet.Alphabet) []answersShape {
	t.Helper()
	shapes := []answersShape{
		{"source+free-track", freeTestQuery(t, a), 4, 4},
		{"destination-only", query.NewBuilder(a).
			Reach("x", "p1", "y").
			Reach("x", "p2", "y").
			Rel(synchro.EqualLength(a, 2), "p1", "p2").
			Lang("p1", "a(a|b)*").
			Free("y").
			MustBuild(), 4, 4},
		{"repeated-endpoint", query.NewBuilder(a).
			Reach("x", "p1", "x").
			Reach("x", "p2", "y").
			Lang("p1", "a(a|b)*").
			Free("x", "y").
			MustBuild(), 4, 4},
		{"free-track-only", query.NewBuilder(a).
			Reach("x", "p1", "y").
			Reach("y", "p2", "z").
			Lang("p2", "a").
			Free("x").
			MustBuild(), 4, 4},
		{"chain2-ends", query.NewBuilder(a).
			Reach("x0", "p1", "x1").Reach("x1", "p2", "x2").
			Lang("p1", "(a|b)*a").Lang("p2", "a(a|b)*").
			Free("x0", "x2").
			MustBuild(), 4, 3},
		{"chain3-ends", query.NewBuilder(a).
			Reach("x0", "p1", "x1").Reach("x1", "p2", "x2").Reach("x2", "p3", "x3").
			Lang("p1", "a*").Lang("p2", "b*").Lang("p3", "(a|b)*a").
			Free("x3", "x0").
			MustBuild(), 3, 3},
		{"chain3-pair-ends", query.NewBuilder(a).
			Reach("x0", "p1", "x1").Reach("x1", "p2", "x2").Reach("x2", "p3", "x3").
			Rel(synchro.EqualLength(a, 2), "p1", "p2").Lang("p3", "a(a|b)*").
			Free("x0", "x3").
			MustBuild(), 3, 3},
		{"two-trees+boolean", query.NewBuilder(a).
			Reach("x", "p1", "y").Reach("z", "p2", "w").Reach("u", "p3", "v").
			Lang("p1", "a").Lang("p2", "b").Lang("p3", "bb").
			Free("w", "x").
			MustBuild(), 3, 2},
	}
	for i := 0; i < 5; i++ {
		b := query.NewBuilder(a)
		for k := 0; k < 5; k++ {
			b.Edge(fmt.Sprintf("c%d", k), []string{"a", "b"}[k%2], fmt.Sprintf("c%d", (k+1)%5))
		}
		shapes = append(shapes, answersShape{fmt.Sprintf("cycle5-c%d", i), b.Free(fmt.Sprintf("c%d", i)).MustBuild(), 3, 1})
	}
	return append(append(shapes, freeTrackShapes(a, false)...), freeTrackShapes(a, true)...)
}

// freeTrackShapes are the shapes a path variable in no non-universal atom
// used to have an evaluator of its own for: a free track from a variable to
// itself; two free tracks sharing a variable beside a two-track component; a
// free track whose source the generic order assigns after its destination
// (y is pinned, x comes with y's component, z last); and path variables only
// a universal atom mentions. With explicit, every such variable gets the
// language (a|b)* instead, which is the same query (TestFreeTrackIsSigmaStar).
func freeTrackShapes(a *alphabet.Alphabet, explicit bool) []answersShape {
	build := func(b *query.Builder, unconstrained ...string) *query.Query {
		for _, p := range unconstrained {
			if explicit {
				b.Lang(p, "(a|b)*")
			}
		}
		return b.MustBuild()
	}
	shapes := []answersShape{
		{"free-loop", build(query.NewBuilder(a).
			Reach("x", "p1", "x").Reach("x", "p2", "y").
			Lang("p2", "a(a|b)*").
			Free("x", "y"), "p1"), 5, 3},
		{"pair+two-free-tracks", build(query.NewBuilder(a).
			Reach("x", "p1", "y").Reach("x", "p2", "y").Reach("y", "p3", "z").Reach("y", "p4", "w").
			Rel(synchro.EqualLength(a, 2), "p1", "p2").
			Free("z", "w"), "p3", "p4"), 5, 2},
		{"free-source-after-destination", build(query.NewBuilder(a).
			Reach("x", "p1", "y").Reach("z", "p2", "x").
			Lang("p1", "a(a|b)*").
			Free("y"), "p2"), 5, 3},
		{"universal-atom-only", build(query.NewBuilder(a).
			Reach("x", "p1", "y").Reach("y", "p3", "z").Reach("z", "p4", "w").
			Lang("p1", "a(a|b)*").Rel(synchro.Universal(a, 2), "p3", "p4").
			Free("x", "w"), "p3", "p4"), 5, 2},
	}
	if explicit {
		for i := range shapes {
			shapes[i].name += " as (a|b)*"
		}
	}
	return shapes
}

// answersCell is one (database, query, strategy) cell of the matrix: the
// prepared plan, its materialisation under Reduction, and the reference set.
type answersCell struct {
	at  string
	db  *graphdb.DB
	p   *Prepared
	mat *Materialization
	ref [][]int
}

// ways are the ways of asking the cell's plan for its answer set. Each
// returns it sorted; the paged ones also hold the pages' concatenation to
// the order of the one-shot enumeration.
func (c *answersCell) ways() map[string]func(ctx context.Context) ([][]int, error) {
	enumerate := func(ctx context.Context, offset, limit int) ([][]int, error) {
		it, err := c.p.Enumerate(ctx, c.db)
		if err != nil {
			return nil, err
		}
		defer it.Close()
		return page(it, offset, limit)
	}
	ways := map[string]func(ctx context.Context) ([][]int, error){
		"Answers over the materialisation": func(ctx context.Context) ([][]int, error) { return c.p.Answers(ctx, c.db, c.mat) },
		"Answers with none":                func(ctx context.Context) ([][]int, error) { return c.p.Answers(ctx, c.db, nil) },
		"Enumerate collected": func(ctx context.Context) ([][]int, error) {
			rows, err := enumerate(ctx, 0, math.MaxInt)
			sortRows(rows)
			return rows, err
		},
	}
	for _, size := range []int{1, 7, 50} {
		ways[fmt.Sprintf("Enumerate in pages of %d", size)] = func(ctx context.Context) ([][]int, error) {
			whole, err := enumerate(ctx, 0, math.MaxInt)
			if err != nil {
				return nil, err
			}
			var paged [][]int
			for more := true; more; {
				page, err := enumerate(ctx, len(paged), size)
				if err != nil {
					return nil, err
				}
				paged, more = append(paged, page...), len(page) == size
			}
			if !slices.EqualFunc(paged, whole, slices.Equal[[]int]) {
				return nil, fmt.Errorf("pages of %d concatenate to %v, the one-shot enumeration is %v", size, paged, whole)
			}
			sortRows(paged)
			return paged, nil
		}
	}
	return ways
}

// forEachAnswersCell visits {Reduction, Generic} ×
// every shape × seeded databases small enough for it, the empty one, a
// single vertex and five vertices among them. The reference set is the
// one-shot Answers under Auto, held to NaiveBounded candidate by candidate.
func forEachAnswersCell(t *testing.T, visit func(c *answersCell)) {
	ctx := context.Background()
	a := alphabet.Lower(2)
	dbs := []*graphdb.DB{graphdb.New(a), randomDB(rand.New(rand.NewSource(99)), a, 1, 2), randomDB(rand.New(rand.NewSource(5)), a, 5, 8)}
	for seed := int64(0); seed < 16; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dbs = append(dbs, randomDB(rng, a, 1+rng.Intn(4), 1+rng.Intn(7)))
	}
	answers := 0
	for _, shape := range answersShapes(t, a) {
		for di, db := range dbs {
			if db.NumVertices() > shape.maxV {
				continue
			}
			at := fmt.Sprintf("db %d (V=%d) %s", di, db.NumVertices(), shape.name)
			ref, err := Answers(db, shape.q, Options{})
			if err != nil {
				t.Fatalf("%s: %v", at, err)
			}
			answers += len(ref)
			checkAgainstNaive(t, at, db, shape.q, ref, shape.bound)
			for _, opts := range []Options{{Strategy: Reduction}, {Strategy: Generic}} {
				c := &answersCell{at: fmt.Sprintf("%s %v", at, opts.Strategy), db: db, ref: ref}
				if c.p, err = Prepare(shape.q, opts); err != nil {
					t.Fatalf("%s: %v", c.at, err)
				}
				if c.p.Strategy() == Reduction {
					if c.mat, err = c.p.Materialize(ctx, db); err != nil {
						t.Fatalf("%s: %v", c.at, err)
					}
				}
				visit(c)
			}
		}
	}
	if answers < 100 {
		t.Errorf("%d answers over the whole matrix: the generator no longer produces satisfiable cells", answers)
	}
}

// TestAnswersStrategiesAgreeProperty is the matrix: in every cell the
// one-shot Answers, Prepared.Answers over the materialisation (twice) and
// without one, the drained Enumerate and its pages of 1, 7 and 50 are the
// same set, Answers comes out sorted, and the set is what NaiveBounded says
// candidate by candidate — every tuple it admits is an answer, and an answer
// it misses has only witnesses longer than its bound.
func TestAnswersStrategiesAgreeProperty(t *testing.T) {
	ctx := context.Background()
	forEachAnswersCell(t, func(c *answersCell) {
		same := func(how string, got [][]int, err error) {
			t.Helper()
			if err != nil || !slices.EqualFunc(got, c.ref, slices.Equal[[]int]) {
				t.Fatalf("%s: %s = %v, %v; want %v", c.at, how, got, err, c.ref)
			}
		}
		oneShot, err := Answers(c.db, c.p.q, c.p.opts)
		same("Answers", oneShot, err)
		for how, run := range c.ways() {
			got, err := run(ctx)
			same(how, got, err)
		}
		again, err := c.p.Answers(ctx, c.db, c.mat)
		same("Prepared.Answers a second time", again, err)
	})
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
	hints := &PlanHints{Candidates: make(map[string][]int, f)}
	for idx := 0; idx < pow(n, f); idx++ {
		for i, rest := f-1, idx; i >= 0; i-- {
			tuple[i], rest = rest%n, rest/n
			pinned[q.Free[i]] = tuple[i]
			hints.Candidates[q.Free[i]] = []int{tuple[i]}
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
		res, err := p.EvaluateContextHinted(context.Background(), db, nil, hints)
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
// the rows it keeps to the request's reservation, and so does a Generic
// plan's enumeration — a query of free tracks alone included, whose Generic
// evaluation charges the kernels that decide plain reachability. A budget
// that covers the whole sweep but not the join's tables makes the one-shot
// AnswersContext fail with the ledger's typed exhaustion; and under either
// strategy a call leaves nothing charged behind, whether it succeeds, is
// denied, or is cancelled.
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

	// The Generic arm is the reproducer: its 22 500 rows were collected off
	// an unmetered enumerator, against a peak charge of 180 bytes.
	gdb, gq := cycleReach(t, 150)
	gp, err := Prepare(gq, Options{Strategy: Generic})
	if err != nil {
		t.Fatal(err)
	}
	const rowsBytes = 150 * 150 * (24 + 8*2)

	// Free tracks only: x -p-> y, y -q-> z on 2¹⁶ vertices that all step to
	// vertex 0. The Generic strategy used to decide such a query from
	// reachability sets it cached and charged to nobody; now each track is a
	// component whose kernel charges the tables it holds. Those grow with
	// the states a search meets, so what a call must charge is measured: the
	// peak of a run under an ample reservation.
	const fn = 1 << 16
	fdb := graphdb.New(gdb.Alphabet())
	for i := 0; i < fn; i++ {
		fdb.MustAddVertex("")
	}
	for i := 0; i < fn; i++ {
		fdb.MustAddEdge(i, 0, 0)
	}
	fb := query.NewBuilder(fdb.Alphabet()).Reach("x", "p", "y").Reach("y", "q", "z")
	fBool, err := Prepare(fb.MustBuild(), Options{Strategy: Generic})
	if err != nil {
		t.Fatal(err)
	}
	fAns, err := Prepare(fb.Free("x").MustBuild(), Options{Strategy: Generic})
	if err != nil {
		t.Fatal(err)
	}
	answers := func(p *Prepared, db *graphdb.DB, mat *Materialization) func(context.Context) (int, error) {
		return func(ctx context.Context) (int, error) {
			rows, err := p.Answers(ctx, db, mat)
			return len(rows), err
		}
	}
	evaluate := func(ctx context.Context) (int, error) {
		res, err := fBool.EvaluateContext(ctx, fdb, nil)
		if err != nil || !res.Sat {
			return 0, err
		}
		return 1, nil
	}
	peakOf := func(run func(context.Context) (int, error)) int64 {
		res, err := govern.NewBroker(1 << 30).Reserve(0)
		if err != nil {
			t.Fatal(err)
		}
		defer res.Release()
		if _, err := run(govern.NewContext(context.Background(), res)); err != nil || res.Peak() == 0 {
			t.Fatalf("measuring run: err %v, peak charge %d", err, res.Peak())
		}
		return res.Peak()
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, arm := range []struct {
		name   string
		run    func(ctx context.Context) (rows int, err error)
		rows   int
		charge int64 // what a completed call must have charged at its peak
	}{
		{"reduction", answers(p, db, mat), 40, joinTables},
		{"generic", answers(gp, gdb, nil), 150 * 150, rowsBytes},
		{"generic, free tracks only", answers(fAns, fdb, nil), fn, peakOf(answers(fAns, fdb, nil))},
		{"generic, free tracks only, Evaluate", evaluate, 1, peakOf(evaluate)},
	} {
		for _, tc := range []struct {
			name    string
			budget  int64
			ctx     context.Context
			wantErr error
		}{
			{"success", 1 << 30, context.Background(), nil},
			{"denied", arm.charge / 4, context.Background(), govern.ErrResourceExhausted},
			{"cancelled", 1 << 30, cancelled, context.Canceled},
		} {
			at := arm.name + ", " + tc.name
			broker := govern.NewBroker(tc.budget)
			res, err := broker.Reserve(0)
			if err != nil {
				t.Fatal(err)
			}
			rows, err := arm.run(govern.NewContext(tc.ctx, res))
			if !errors.Is(err, tc.wantErr) || (tc.wantErr == nil && (err != nil || rows != arm.rows)) {
				t.Errorf("%s: %d rows, err %v; want err %v", at, rows, err, tc.wantErr)
			}
			if tc.wantErr == nil && res.Peak() < arm.charge {
				t.Errorf("%s: peak charge %d, below the %d bytes of the join's table, the rows kept or the kernels' tables", at, res.Peak(), arm.charge)
			}
			if used := res.Used(); used != 0 {
				t.Errorf("%s: %d bytes still charged after the call returned", at, used)
			}
			res.Release()
			if got := broker.Reserved(); got != 0 {
				t.Errorf("%s: broker holds %d bytes after release", at, got)
			}
		}
	}
}

// cycleReach is the reproducer of the size regressions: an a-cycle of n
// vertices and x -a*-> y with both ends free, so all n² pairs are answers
// and the materialised relation is the answer set.
func cycleReach(t testing.TB, n int) (*graphdb.DB, *query.Query) {
	t.Helper()
	a := alphabet.Lower(2)
	db := graphdb.New(a)
	for i := 0; i < n; i++ {
		db.MustAddVertex("")
	}
	for i := 0; i < n; i++ {
		db.MustAddEdge(i, 0, (i+1)%n)
	}
	return db, query.NewBuilder(a).Reach("x", "p", "y").Lang("p", "a*").Free("x", "y").MustBuild()
}

// pollCounter counts the Err polls made on it.
type pollCounter struct {
	context.Context
	polls atomic.Int64
}

func (c *pollCounter) Err() error {
	c.polls.Add(1)
	return c.Context.Err()
}

// TestAnswersWork holds the work of an answer set to its size, by what is
// counted rather than timed. Over the reproducer's materialisation a
// Reduction plan polls its context in proportion to the rows it reads and
// keeps (trying all 22 500 candidates against the 22 500-row table polled
// about 146 000 times); and a Generic enumeration opens one product-search
// span and no witness span however many candidates it decides.
func TestAnswersWork(t *testing.T) {
	const n = 150
	db, q := cycleReach(t, n)
	p, err := Prepare(q, Options{Strategy: Reduction})
	if err != nil {
		t.Fatal(err)
	}
	mat, err := p.Materialize(context.Background(), db)
	if err != nil {
		t.Fatal(err)
	}
	ctx := &pollCounter{Context: context.Background()}
	rows, err := p.Answers(ctx, db, mat)
	if err != nil || len(rows) != n*n || !slices.IsSortedFunc(rows, slices.Compare[[]int]) {
		t.Fatalf("%d rows, err %v; want %d sorted rows", len(rows), err, n*n)
	}
	if polls, bound := ctx.polls.Load(), int64(8*(mat.Tuples()+len(rows))/4096); polls > bound {
		t.Errorf("%d context polls for %d table rows and %d answers, want at most %d", polls, mat.Tuples(), len(rows), bound)
	}

	spans := func(n int) map[string]int {
		db, q := cycleReach(t, n)
		p, err := Prepare(q, Options{Strategy: Generic})
		if err != nil {
			t.Fatal(err)
		}
		tr := trace.New("enumerate")
		it, err := p.Enumerate(trace.NewContext(context.Background(), tr), db)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := page(it, 0, math.MaxInt)
		it.Close()
		if err != nil || len(rows) != n*n {
			t.Fatalf("V=%d: %d rows, err %v", n, len(rows), err)
		}
		count := make(map[string]int)
		for _, sp := range tr.Snapshot().Spans {
			count[sp.Name]++
		}
		return count
	}
	few, many := spans(3), spans(12)
	if many["core/witness"] != 0 || many["core/product_search"] != 1 || !maps.Equal(few, many) {
		t.Errorf("a Generic enumeration of 9 candidates records spans %v, of 144 candidates %v; want one core/product_search and no core/witness in both", few, many)
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
