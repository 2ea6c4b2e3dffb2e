package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"ecrpq/internal/alphabet"
	"ecrpq/internal/govern"
	"ecrpq/internal/graphdb"
	"ecrpq/internal/query"
	"ecrpq/internal/stream"
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
	rows, err := stream.Collect(it)
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	return rows
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
		rows, err := stream.Collect(stream.Offset(it, k))
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
	res.Release()
	if got := broker.Reserved(); got != 0 {
		t.Fatalf("broker still holds %d bytes after Release", got)
	}
}

// TestSweepSourceMemo: an Open that pins a source remembers the source's
// destination list, so the nested join's next Open of the same source is a
// lookup, not a traversal; an unpinned sweep stores nothing; the entries are
// charged and released with the source; and an entry the reservation refuses
// is not kept and fails nothing — the rows come out the same, one traversal
// per Open.
func TestSweepSourceMemo(t *testing.T) {
	a := alphabet.Lower(2)
	db := denseDB(t, 20, a)
	p, err := Prepare(freeTestQuery(t, a), Options{Strategy: Reduction})
	if err != nil {
		t.Fatal(err)
	}
	drain := func(s *sweepSource, rel string, bound []int) [][]int {
		t.Helper()
		it, err := s.Open(rel, bound)
		if err != nil {
			t.Fatal(err)
		}
		defer it.Close()
		rows, err := stream.Collect(it)
		if err != nil {
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
		s := newSweepSource(govern.NewContext(context.Background(), res), db, p.merged, p.opts)
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
				t.Errorf("refused=%v: two Opens of %s with its source pinned began %d traversals, want %d", refused, rel, got, want)
			}
		}
		if charged := s.mem.Charged(); (charged > 0) == refused {
			t.Errorf("refused=%v: the memo holds %d bytes", refused, charged)
		}
		before := len(s.memo[1])
		all := drain(s, "__comp1", []int{-1, -1})
		if len(s.memo[1]) != before || len(all) < 20 {
			t.Errorf("refused=%v: an unpinned sweep of %d rows took the memo from %d entries to %d", refused, len(all), before, len(s.memo[1]))
		}
		s.release()
		if used := res.Used(); used != 0 {
			t.Errorf("refused=%v: %d bytes still charged after release", refused, used)
		}
		res.Release()
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
