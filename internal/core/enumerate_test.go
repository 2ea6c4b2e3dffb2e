package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"ecrpq/internal/alphabet"
	"ecrpq/internal/cq"
	"ecrpq/internal/govern"
	"ecrpq/internal/graphdb"
	"ecrpq/internal/query"
	"ecrpq/internal/synchro"
)

// freeTestQuery is the free-variable query the answer-agreement property
// tests use: a 2-track equal-length component plus a free track.
func freeTestQuery(t testing.TB, a *alphabet.Alphabet) *query.Query {
	t.Helper()
	return query.NewBuilder(a).
		Reach("x", "p1", "y").
		Reach("x", "p2", "y").
		Reach("y", "p3", "z").
		Rel(synchro.EqualLength(a, 2), "p1", "p2").
		Free("x", "z").
		MustBuild()
}

func collectEnumerate(t testing.TB, p *Prepared, db *graphdb.DB) [][]int {
	t.Helper()
	it, err := p.Enumerate(context.Background(), db)
	if err != nil {
		t.Fatalf("Enumerate: %v", err)
	}
	defer it.Close()
	rows, err := page(it, 0, math.MaxInt)
	if err != nil {
		t.Fatalf("Enumerate: %v", err)
	}
	return rows
}

// page skips offset rows of it, copies up to limit more and reports its
// error: one page of the /v1/enumerate cursor protocol.
func page(it *Enumeration, offset, limit int) ([][]int, error) {
	var rows [][]int
	for skipped := 0; len(rows) < limit; {
		row, ok := it.Next()
		if !ok {
			break
		}
		if skipped < offset {
			skipped++
			continue
		}
		rows = append(rows, slices.Clone(row))
	}
	return rows, it.Err()
}

func sortRows(rows [][]int) {
	sort.Slice(rows, func(i, j int) bool {
		for k := range rows[i] {
			if rows[i][k] != rows[j][k] {
				return rows[i][k] < rows[j][k]
			}
		}
		return false
	})
}

func TestEnumerateBoolean(t *testing.T) {
	db := lineDB(t)
	a := db.Alphabet()
	sat := query.NewBuilder(a).Edge("x", "a", "y").MustBuild()
	// No b-labelled edge in lineDB is followed by another b-edge, so "bb"
	// is unsatisfiable (checked against Evaluate below).
	unsat := query.NewBuilder(a).
		Reach("x", "p1", "y").
		Lang("p1", "bb").
		MustBuild()
	if res, err := Evaluate(db, unsat, Options{}); err != nil || res.Sat {
		t.Fatalf("test premise broken: Evaluate(unsat) = %+v, %v", res, err)
	}
	for _, opts := range []Options{{Strategy: Reduction}, {Strategy: Generic}} {
		p, err := Prepare(sat, opts)
		if err != nil {
			t.Fatal(err)
		}
		if rows := collectEnumerate(t, p, db); len(rows) != 1 || len(rows[0]) != 0 {
			t.Fatalf("%v: sat Boolean query yielded %v, want one empty tuple", opts.Strategy, rows)
		}
		p, err = Prepare(unsat, opts)
		if err != nil {
			t.Fatal(err)
		}
		if rows := collectEnumerate(t, p, db); len(rows) != 0 {
			t.Fatalf("%v: unsat Boolean query yielded %v", opts.Strategy, rows)
		}
	}
}

// TestEnumerateOrderDeterministicAndResumable is the foundation the
// /v1/enumerate cursor stands on: repeated enumerations yield the same
// sequence, and skipping k tuples reproduces the suffix exactly.
func TestEnumerateOrderDeterministicAndResumable(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := alphabet.Lower(2)
	db := randomDB(rng, a, 5, 12)
	q := freeTestQuery(t, a)
	p, err := Prepare(q, Options{Strategy: Reduction})
	if err != nil {
		t.Fatal(err)
	}
	full := collectEnumerate(t, p, db)
	again := collectEnumerate(t, p, db)
	if !reflect.DeepEqual(full, again) {
		t.Fatalf("enumeration order not deterministic: %v vs %v", full, again)
	}
	for k := 0; k <= len(full); k++ {
		it, err := p.Enumerate(context.Background(), db)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := page(it, k, math.MaxInt)
		it.Close()
		if err != nil {
			t.Fatal(err)
		}
		rest := full[k:]
		if len(rows) == 0 && len(rest) == 0 {
			continue
		}
		if !reflect.DeepEqual(rows, rest) {
			t.Fatalf("offset %d resume mismatch: %v vs %v", k, rows, rest)
		}
	}
}

// TestDisjointComponentWaitsForPrefix: a component sharing no node
// variable with the components before it is swept on the first prefix row
// that reaches it. With no b-edge the first component has no row, so the
// a* component over the 30-cycle (900 rows) is never swept: the first
// witness reads no row and the enumeration is empty.
func TestDisjointComponentWaitsForPrefix(t *testing.T) {
	db, _ := cycleReach(t, 30)
	q := query.NewBuilder(db.Alphabet()).
		Reach("x", "p1", "y").Lang("p1", "b").
		Reach("u", "p2", "v").Lang("p2", "a*").
		MustBuild()
	p, err := Prepare(q, Options{Strategy: Reduction})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.EvaluateContext(context.Background(), db, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sat || res.Stats.CQTuples != 0 {
		t.Fatalf("first witness: sat %v after %d R' rows; want false after 0", res.Sat, res.Stats.CQTuples)
	}
	if rows := collectEnumerate(t, p, db); len(rows) != 0 {
		t.Fatalf("Enumerate yielded %v", rows)
	}
}

// TestEvaluateStreamingFirstWitness is the satisfiable fast-path
// regression test: Prepared.EvaluateContext with nil materialization
// must find the first witness without allocating (or charging for) full
// sweep tables.
func TestEvaluateStreamingFirstWitness(t *testing.T) {
	a, err := alphabet.New("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	db := denseDB(t, 25, a)
	q := query.NewBuilder(a).
		Reach("x", "p1", "y").
		Reach("x", "p2", "y").
		Rel(synchro.Equality(a, 2), "p1", "p2").
		MustBuild()
	p, err := Prepare(q, Options{Strategy: Reduction})
	if err != nil {
		t.Fatal(err)
	}

	broker := govern.NewBroker(0) // account-only: track peaks, never deny
	measure := func(f func(ctx context.Context) error) int64 {
		res, err := broker.Reserve(0)
		if err != nil {
			t.Fatal(err)
		}
		defer res.Release()
		if err := f(govern.NewContext(context.Background(), res)); err != nil {
			t.Fatal(err)
		}
		return res.Peak()
	}

	var mat *Materialization
	var matRes *Result
	peakMat := measure(func(ctx context.Context) error {
		m, err := p.Materialize(ctx, db)
		if err != nil {
			return err
		}
		mat = m
		matRes, err = p.EvaluateContext(ctx, db, m)
		return err
	})
	var streamRes *Result
	peakStream := measure(func(ctx context.Context) error {
		r, err := p.EvaluateContext(ctx, db, nil)
		streamRes = r
		return err
	})

	if !matRes.Sat || !streamRes.Sat {
		t.Fatalf("sat mismatch: materialized %v, streaming %v", matRes.Sat, streamRes.Sat)
	}
	if err := VerifyWitness(db, q, streamRes); err != nil {
		t.Fatalf("streaming witness invalid: %v", err)
	}
	if streamRes.Stats.CQTuples*4 > mat.Tuples() {
		t.Fatalf("streaming swept %d rows, materialization has %d — fast path not short-circuiting",
			streamRes.Stats.CQTuples, mat.Tuples())
	}
	if peakStream*4 > peakMat {
		t.Fatalf("streaming peak %d bytes vs materializing peak %d — no memory win", peakStream, peakMat)
	}
	if broker.Reserved() != 0 {
		t.Fatalf("broker still holds %d bytes", broker.Reserved())
	}
}

// TestStreamOpensDistinctSources: a streamed Scan opens one source tuple
// per value of the component's distinct unbound source variables, not one
// per track. On an unsatisfiable 3-track eq fan out of one x at V = 9
// (cFan on a database with no c-edge), the first-witness walk begins at
// most V traversals and polls its context about twice per source (V³ = 729
// of each when every track's source was enumerated on its own); and the
// rows come out in the sweep's order, those of the materialised R' whose
// repeated variables agree.
func TestStreamOpensDistinctSources(t *testing.T) {
	a := alphabet.Lower(3)
	db := abDB(rand.New(rand.NewSource(3)), a, 9, 27)
	n := db.NumVertices()
	fan := func() *query.Builder {
		return query.NewBuilder(a).
			Reach("x", "p1", "y").Reach("x", "p2", "y").Reach("x", "p3", "y").
			Rel(synchro.Equality(a, 3), "p1", "p2", "p3")
	}
	unsat := cFan("x", "y").MustBuild()
	requireUnsatOnKernels(t, db, unsat)
	p, err := Prepare(unsat, Options{Strategy: Reduction})
	if err != nil {
		t.Fatal(err)
	}
	ctx := &pollCounter{Context: context.Background()}
	res, err := p.EvaluateContext(ctx, db, nil)
	if err != nil || res.Sat {
		t.Fatalf("sat=%v err=%v, want unsatisfiable", res != nil && res.Sat, err)
	}
	if tr := res.Stats.Traversals; tr < 1 || tr > n {
		t.Errorf("the walk began %d traversals on V = %d, want 1 to %d", tr, n, n)
	}
	if polls := ctx.polls.Load(); polls > int64(2*n+2) {
		t.Errorf("the walk polled its context %d times on V = %d, want at most %d", polls, n, 2*n+2)
	}

	free, err := Prepare(fan().Free("x", "y").MustBuild(), Options{Strategy: Reduction})
	if err != nil {
		t.Fatal(err)
	}
	mat, err := free.Materialize(context.Background(), db)
	if err != nil {
		t.Fatal(err)
	}
	var want [][]int
	seen := map[[2]int]bool{}
	rel := mat.st.Relation("__comp0")
	for i := 0; i < rel.Len(); i++ {
		r := rel.Row(i)
		key := [2]int{int(r[0]), int(r[1])}
		if r[0] == r[2] && r[2] == r[4] && r[1] == r[3] && r[3] == r[5] && !seen[key] {
			seen[key] = true
			want = append(want, key[:])
		}
	}
	if got := collectEnumerate(t, free, db); len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Errorf("streamed answers %v, the materialised rows' order %v", got, want)
	}
}

// TestWalkQueryMovesFiltersUp: a component whose variables the atoms
// before it all bind — here the free track x -p3-> y, which decompose puts
// last — is walked right after the atom that binds them, and the walk
// yields the same answers in the same order as over the index order.
func TestWalkQueryMovesFiltersUp(t *testing.T) {
	a := alphabet.Lower(2)
	db := randomDB(rand.New(rand.NewSource(9)), a, 6, 14)
	q := query.NewBuilder(a).
		Reach("x", "p1", "y").Reach("z", "p2", "w").Reach("x", "p3", "y").
		Lang("p1", "a(a|b)*").Lang("p2", "b*").
		Free("x", "y", "z", "w").MustBuild()
	p, err := Prepare(q, Options{Strategy: Reduction})
	if err != nil {
		t.Fatal(err)
	}
	var rels []string
	for _, at := range p.cqq.Atoms {
		rels = append(rels, at.Rel)
	}
	if !slices.Equal(rels, []string{"__comp0", "__comp2", "__comp1"}) {
		t.Fatalf("walk order %v, want the free track right after the atom binding x and y", rels)
	}
	indexOrder := &cq.Query{Free: p.cqq.Free, Atoms: []cq.Atom{p.cqq.Atoms[0], p.cqq.Atoms[2], p.cqq.Atoms[1]}}
	var want [][]int
	err = p.sweep(context.Background(), db, nil, false, func(src *sweepSource, charge cq.ChargeFunc) error {
		return cq.StreamAnswers(src, indexOrder, charge, func(row []int) bool {
			want = append(want, slices.Clone(row))
			return true
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := collectEnumerate(t, p, db); len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Errorf("walked in level order: %v; in index order: %v", got, want)
	}
}

func TestEnumerateCancelMidStream(t *testing.T) {
	a, err := alphabet.New("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	db := denseDB(t, 20, a)
	q := freeTestQuery(t, a)
	p, err := Prepare(q, Options{Strategy: Reduction})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	it, err := p.Enumerate(ctx, db)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	if _, ok := it.Next(); !ok {
		t.Fatalf("expected at least one answer before cancel (err %v)", it.Err())
	}
	cancel()
	if _, ok := it.Next(); ok {
		t.Fatal("Next succeeded after cancel")
	}
	if !errors.Is(it.Err(), context.Canceled) {
		t.Fatalf("Err = %v, want context.Canceled", it.Err())
	}
}

func TestEnumerateCloseReleasesReservations(t *testing.T) {
	a, err := alphabet.New("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	db := denseDB(t, 20, a)
	q := freeTestQuery(t, a)
	p, err := Prepare(q, Options{Strategy: Reduction})
	if err != nil {
		t.Fatal(err)
	}
	broker := govern.NewBroker(0)
	res, err := broker.Reserve(0)
	if err != nil {
		t.Fatal(err)
	}
	ctx := govern.NewContext(context.Background(), res)
	it, err := p.Enumerate(ctx, db)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, ok := it.Next(); !ok {
			break
		}
	}
	it.Close() // abandon mid-stream
	if got := res.Used(); got != 0 {
		t.Fatalf("reservation still holds %d bytes after Close", got)
	}
	checkScratchesReturned(t, "after Close")
	res.Release()
	if got := broker.Reserved(); got != 0 {
		t.Fatalf("broker still holds %d bytes after Release", got)
	}
}

// TestEnumerationNextChecksContext: every Next checks ctx before it resumes
// the walk, on either strategy, and the cancellation sticks.
func TestEnumerationNextChecksContext(t *testing.T) {
	a := alphabet.Lower(2)
	db := denseDB(t, 20, a)
	for _, strat := range []Strategy{Reduction, Generic} {
		p, err := Prepare(freeTestQuery(t, a), Options{Strategy: strat})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		it, err := p.Enumerate(ctx, db)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := it.Next(); !ok {
			t.Fatalf("%v: no answer before cancel (err %v)", strat, it.Err())
		}
		cancel()
		for i := 0; i < 2; i++ {
			if _, ok := it.Next(); ok || !errors.Is(it.Err(), context.Canceled) {
				t.Errorf("%v: Next %d after cancel succeeded=%v with Err %v; want false and context.Canceled", strat, i+1, ok, it.Err())
			}
		}
		it.Close()
	}
}

// TestEnumerationCloseIdempotent: Close may be called again, and before any
// Next; after it Next yields nothing, Err stays nil and nothing is charged.
func TestEnumerationCloseIdempotent(t *testing.T) {
	a := alphabet.Lower(2)
	db := denseDB(t, 20, a)
	p, err := Prepare(freeTestQuery(t, a), Options{Strategy: Reduction})
	if err != nil {
		t.Fatal(err)
	}
	broker := govern.NewBroker(0)
	for _, reads := range []int{0, 2} {
		res, err := broker.Reserve(0)
		if err != nil {
			t.Fatal(err)
		}
		it, err := p.Enumerate(govern.NewContext(context.Background(), res), db)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < reads; i++ {
			if _, ok := it.Next(); !ok {
				t.Fatalf("row %d: none (err %v)", i, it.Err())
			}
		}
		it.Close()
		it.Close()
		if _, ok := it.Next(); ok || it.Err() != nil {
			t.Errorf("after %d reads: Next after Close succeeded=%v with Err %v", reads, ok, it.Err())
		}
		if got := res.Used(); got != 0 {
			t.Errorf("after %d reads: %d bytes still charged after Close", reads, got)
		}
		res.Release()
	}
	if got := broker.Reserved(); got != 0 {
		t.Errorf("broker still holds %d bytes", got)
	}
}

// TestSweepSourceMemo: a Scan that pins a source remembers the source's
// destination list, so the nested join's next Scan of the same source is a
// lookup, not a traversal; an unpinned sweep stores nothing; the entries are
// charged and released when the sweep returns; and an entry the reservation refuses
// is not kept and fails nothing — the rows come out the same, one traversal
// per Scan.
func TestSweepSourceMemo(t *testing.T) {
	a := alphabet.Lower(2)
	db := denseDB(t, 20, a)
	p, err := Prepare(freeTestQuery(t, a), Options{Strategy: Reduction})
	if err != nil {
		t.Fatal(err)
	}
	drain := func(s *sweepSource, rel string, bound []int) [][]int {
		t.Helper()
		var rows [][]int
		if err := s.Scan(rel, bound, func(row []int) bool { rows = append(rows, slices.Clone(row)); return true }); err != nil {
			t.Fatal(err)
		}
		return rows
	}
	broker := govern.NewBroker(1 << 30)
	for _, refused := range []bool{false, true} {
		res, err := broker.Reserve(0)
		if err != nil {
			t.Fatal(err)
		}
		err = p.sweep(govern.NewContext(context.Background(), res), db, nil, false, func(s *sweepSource, _ cq.ChargeFunc) error {
			if refused {
				full, err := govern.NewBroker(1).Reserve(0)
				if err != nil {
					t.Fatal(err)
				}
				s.mem = full.NewMeter()
			}
			// Component 1 is the free track y -p3-> z, component 0 the pair.
			for ci, bound := range [][]int{{3, -1, 3, -1}, {3, -1}} {
				rel := fmt.Sprintf("__comp%d", ci)
				first := drain(s, rel, bound)
				if len(first) == 0 {
					t.Fatalf("%s from vertex 3: no rows", rel)
				}
				again := drain(s, rel, bound)
				if !reflect.DeepEqual(first, again) {
					t.Fatalf("refused=%v: %s from vertex 3 a second time: %v, the first time %v", refused, rel, again, first)
				}
				want := 1
				if refused {
					want = 2
				}
				if got := s.fp(ci).traversals; got != want {
					t.Errorf("refused=%v: two Scans of %s with its source pinned began %d traversals, want %d", refused, rel, got, want)
				}
			}
			if charged := s.mem.Charged(); (charged > 0) == refused {
				t.Errorf("refused=%v: the memo holds %d bytes", refused, charged)
			}
			before := len(s.lists[1])
			all := drain(s, "__comp1", []int{-1, -1})
			if len(s.lists[1]) != before || len(all) < 20 {
				t.Errorf("refused=%v: an unpinned sweep of %d rows took the memo from %d entries to %d", refused, len(all), before, len(s.lists[1]))
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if used := res.Used(); used != 0 {
			t.Errorf("refused=%v: %d bytes still charged after the sweep", refused, used)
		}
		res.Release()
	}
}

// scanMetered drains component 1 (the free track y -p3-> z) of
// freeTestQuery's R' on a dense V = 20 database, its rows charged to a
// reservation of budget, and reports the rows yielded, the reservation's
// use at the first row of the first three 64-row chunks, what it still
// holds once the Scan returns and the Scan's error.
func scanMetered(t *testing.T, budget int64) (rows int, used []int64, left int64, err error) {
	t.Helper()
	a := alphabet.Lower(2)
	db := denseDB(t, 20, a)
	p, err := Prepare(freeTestQuery(t, a), Options{Strategy: Reduction})
	if err != nil {
		t.Fatal(err)
	}
	// The Scan's rows are charged to their own reservation, the kernel's
	// tables to the context's.
	rowRes, err := govern.NewBroker(budget).Reserve(0)
	if err != nil {
		t.Fatal(err)
	}
	defer rowRes.Release()
	err = p.sweep(context.Background(), db, nil, false, func(s *sweepSource, _ cq.ChargeFunc) error {
		s.res = rowRes
		return s.Scan("__comp1", []int{-1, -1}, func([]int) bool {
			if rows++; rows%64 == 1 && rows < 130 {
				used = append(used, rowRes.Used())
			}
			return true
		})
	})
	return rows, used, rowRes.Used(), err
}

// TestSweepScanMeterChargesAndReleases: a Scan charges its rows 24 + 16t
// bytes each, a chunk of 64 at a time once yield asks for more, and
// releases them when it returns.
func TestSweepScanMeterChargesAndReleases(t *testing.T) {
	const chunk = 64 * (24 + 16)
	rows, used, left, err := scanMetered(t, 0) // account-only
	if err != nil || rows <= 129 || !slices.Equal(used, []int64{0, chunk, 2 * chunk}) {
		t.Errorf("%d rows, %v charged at rows 1, 65 and 129 (err %v); want more than 129 rows, [0 %d %d]", rows, used, err, chunk, 2*chunk)
	}
	if left != 0 {
		t.Errorf("%d bytes still charged after the Scan", left)
	}
}

// TestSweepScanMeterDenial: a chunk the reservation refuses ends the Scan
// with the refusal and nothing left charged.
func TestSweepScanMeterDenial(t *testing.T) {
	rows, _, left, err := scanMetered(t, 1024) // less than a chunk
	if !errors.Is(err, govern.ErrResourceExhausted) || rows != 64 {
		t.Errorf("%d rows, err %v; want the refusal after 64", rows, err)
	}
	if left != 0 {
		t.Errorf("%d bytes still charged after the Scan", left)
	}
}

// firstWitnessOp is the streaming layer's operation: the first answer of a
// 2-track equality on a dense V = 20 database, read off the pipelined join
// without materialising the sweep's tables.
func firstWitnessOp(tb testing.TB) func(testing.TB) int {
	a, err := alphabet.New("a", "b")
	if err != nil {
		tb.Fatal(err)
	}
	db := denseDB(tb, 20, a)
	q := query.NewBuilder(a).
		Reach("x", "p1", "y").
		Reach("x", "p2", "y").
		Rel(synchro.Equality(a, 2), "p1", "p2").
		MustBuild()
	p, err := Prepare(q, Options{Strategy: Reduction})
	if err != nil {
		tb.Fatal(err)
	}
	return func(tb testing.TB) int {
		it, err := p.Enumerate(context.Background(), db)
		if err != nil {
			tb.Fatal(err)
		}
		if _, ok := it.Next(); !ok {
			tb.Fatal("no witness")
		}
		it.Close()
		return 1
	}
}

func BenchmarkEnumerateFirstWitness(b *testing.B) {
	op := firstWitnessOp(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op(b)
	}
}
