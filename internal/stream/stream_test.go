package stream

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"ecrpq/internal/govern"
)

func rows(rs ...[]int) [][]int { return rs }

func mustCollect(t *testing.T, s Tuples) [][]int {
	t.Helper()
	defer s.Close()
	out, err := Collect(s)
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	return out
}

func TestFromRowsLimitOffset(t *testing.T) {
	src := rows([]int{0}, []int{1}, []int{2}, []int{3}, []int{4})
	got := mustCollect(t, Limit(Offset(FromRows(src), 1), 2))
	want := rows([]int{1}, []int{2})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
	if n := len(mustCollect(t, Offset(FromRows(src), 99))); n != 0 {
		t.Fatalf("offset past end yielded %d rows", n)
	}
	if n := len(mustCollect(t, Limit(FromRows(src), 0))); n != 0 {
		t.Fatalf("limit 0 yielded %d rows", n)
	}
}

func TestFilterProjectDedup(t *testing.T) {
	src := rows([]int{1, 10}, []int{2, 20}, []int{1, 30}, []int{3, 10})
	got := mustCollect(t, Dedup(Project(FromRows(src), []int{0}), nil))
	want := rows([]int{1}, []int{2}, []int{3})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("dedup-project got %v want %v", got, want)
	}
	got = mustCollect(t, Filter(FromRows(src), func(r []int) bool { return r[1] == 10 }))
	want = rows([]int{1, 10}, []int{3, 10})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("filter got %v want %v", got, want)
	}
}

func TestDedupChargeDenial(t *testing.T) {
	boom := errors.New("denied")
	n := 0
	charge := func(int64) error {
		n++
		if n > 1 {
			return boom
		}
		return nil
	}
	s := Dedup(FromRows(rows([]int{1}, []int{2})), charge)
	defer s.Close()
	if _, ok := s.Next(); !ok {
		t.Fatal("first row should pass")
	}
	if _, ok := s.Next(); ok {
		t.Fatal("second row should be denied")
	}
	if !errors.Is(s.Err(), boom) {
		t.Fatalf("Err = %v, want denial", s.Err())
	}
}

func TestWithContextCancels(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	s := WithContext(ctx, FromRows(rows([]int{1}, []int{2})))
	defer s.Close()
	if _, ok := s.Next(); !ok {
		t.Fatal("first Next should succeed")
	}
	cancel()
	if _, ok := s.Next(); ok {
		t.Fatal("Next after cancel should fail")
	}
	if !errors.Is(s.Err(), context.Canceled) {
		t.Fatalf("Err = %v, want context.Canceled", s.Err())
	}
}

func TestOnCloseRunsOnce(t *testing.T) {
	n := 0
	s := OnClose(Empty(), func() { n++ })
	s.Close()
	s.Close()
	if n != 1 {
		t.Fatalf("close hook ran %d times, want 1", n)
	}
}

func TestMeteredChargesAndReleases(t *testing.T) {
	broker := govern.NewBroker(0) // account-only
	res, err := broker.Reserve(0)
	if err != nil {
		t.Fatalf("Reserve: %v", err)
	}
	defer res.Release()

	src := make([][]int, 3*meteredChunkRows)
	for i := range src {
		src[i] = []int{i}
	}
	s := Metered(FromRows(src), res.NewMeter(), 10)
	if _, err := Collect(s); err != nil {
		t.Fatalf("Collect: %v", err)
	}
	// Chunked accounting lags by up to one chunk, but at least the first
	// two full chunks must have been charged by the time the third is in
	// flight.
	if got := res.Used(); got < 2*meteredChunkRows*10 {
		t.Fatalf("mid-stream charge = %d, want >= %d", got, 2*meteredChunkRows*10)
	}
	s.Close()
	if got := res.Used(); got != 0 {
		t.Fatalf("after Close reservation holds %d bytes, want 0", got)
	}
}

func TestMeteredDenialMidNext(t *testing.T) {
	broker := govern.NewBroker(1024) // tiny hard budget
	res, err := broker.Reserve(0)
	if err != nil {
		t.Fatalf("Reserve: %v", err)
	}
	defer res.Release()

	src := make([][]int, 10*meteredChunkRows)
	for i := range src {
		src[i] = []int{i}
	}
	s := Metered(FromRows(src), res.NewMeter(), 1<<20)
	_, cerr := Collect(s)
	if !errors.Is(cerr, govern.ErrResourceExhausted) {
		t.Fatalf("Collect err = %v, want ErrResourceExhausted", cerr)
	}
	if !errors.Is(s.Err(), govern.ErrResourceExhausted) {
		t.Fatalf("Err = %v, want ErrResourceExhausted", s.Err())
	}
	s.Close()
	if got := broker.Reserved(); got != 0 {
		t.Fatalf("broker holds %d bytes after Close, want 0", got)
	}
}

func TestNestedLoopPushdown(t *testing.T) {
	outer := FromRows(rows([]int{1}, []int{2}, []int{3}))
	opened := 0
	s := NestedLoop(outer, func(o []int) (Tuples, error) {
		opened++
		if o[0] == 2 {
			return Empty(), nil // no matches for this binding
		}
		return FromRows(rows([]int{o[0], o[0] * 10}, []int{o[0], o[0] * 100})), nil
	})
	got := mustCollect(t, s)
	want := rows([]int{1, 10}, []int{1, 100}, []int{3, 30}, []int{3, 300})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
	if opened != 3 {
		t.Fatalf("opened %d inner streams, want 3", opened)
	}
}

func TestNestedLoopEarlyCloseClosesInner(t *testing.T) {
	innerClosed := 0
	s := NestedLoop(FromRows(rows([]int{1})), func([]int) (Tuples, error) {
		return OnClose(FromRows(rows([]int{1}, []int{2})), func() { innerClosed++ }), nil
	})
	if _, ok := s.Next(); !ok {
		t.Fatal("expected a row")
	}
	s.Close() // abandons mid-inner
	if innerClosed != 1 {
		t.Fatalf("inner closed %d times, want 1", innerClosed)
	}
}

func TestNestedLoopOpenError(t *testing.T) {
	boom := errors.New("open failed")
	s := NestedLoop(FromRows(rows([]int{1})), func([]int) (Tuples, error) { return nil, boom })
	defer s.Close()
	if _, ok := s.Next(); ok {
		t.Fatal("expected failure")
	}
	if !errors.Is(s.Err(), boom) {
		t.Fatalf("Err = %v", s.Err())
	}
}

func TestHashJoinKeyed(t *testing.T) {
	probe := FromRows(rows([]int{1, 7}, []int{2, 8}, []int{1, 9}))
	build := FromRows(rows([]int{10, 1}, []int{20, 1}, []int{30, 2}))
	// join on probe[0] == build[1]
	s := HashJoin(probe, build, []int{0}, []int{1}, nil)
	got := mustCollect(t, s)
	want := rows(
		[]int{1, 7, 10, 1}, []int{1, 7, 20, 1},
		[]int{2, 8, 30, 2},
		[]int{1, 9, 10, 1}, []int{1, 9, 20, 1},
	)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestHashJoinCrossProduct(t *testing.T) {
	s := HashJoin(FromRows(rows([]int{1}, []int{2})), FromRows(rows([]int{10}, []int{20})), nil, nil, nil)
	got := mustCollect(t, s)
	want := rows([]int{1, 10}, []int{1, 20}, []int{2, 10}, []int{2, 20})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestHashJoinChargeDenial(t *testing.T) {
	boom := errors.New("denied")
	s := HashJoin(FromRows(rows([]int{1})), FromRows(rows([]int{1})), []int{0}, []int{0},
		func(int64) error { return boom })
	defer s.Close()
	if _, ok := s.Next(); ok {
		t.Fatal("expected denial before first row")
	}
	if !errors.Is(s.Err(), boom) {
		t.Fatalf("Err = %v", s.Err())
	}
}

func TestHashJoinEarlyTermination(t *testing.T) {
	pulled := 0
	probe := Filter(FromRows(rows([]int{1}, []int{1}, []int{1})), func([]int) bool { pulled++; return true })
	s := Limit(HashJoin(probe, FromRows(rows([]int{1})), []int{0}, []int{0}, nil), 1)
	got := mustCollect(t, s)
	if len(got) != 1 {
		t.Fatalf("got %d rows, want 1", len(got))
	}
	if pulled != 1 {
		t.Fatalf("probe side pulled %d times, want 1", pulled)
	}
}
