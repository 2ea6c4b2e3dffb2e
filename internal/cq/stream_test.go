package cq

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"ecrpq/internal/stream"
)

// collectAnswers drains a StreamAnswers iterator and returns its rows
// lex-sorted for comparison against AllAnswers.
func collectAnswers(t *testing.T, s *Structure, q *Query) [][]int {
	t.Helper()
	it, err := StreamAnswers(NewStructSource(s), q, nil)
	if err != nil {
		t.Fatalf("StreamAnswers: %v", err)
	}
	defer it.Close()
	rows, err := stream.Collect(it)
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	sort.Slice(rows, func(i, j int) bool {
		for k := range rows[i] {
			if rows[i][k] != rows[j][k] {
				return rows[i][k] < rows[j][k]
			}
		}
		return false
	})
	return rows
}

func TestStreamAnswersMatchesAllAnswersRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		dom := 2 + rng.Intn(4)
		s := NewStructure(dom)
		if err := s.AddRelation("E", 2); err != nil {
			t.Fatal(err)
		}
		if err := s.AddRelation("U", 1); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2+rng.Intn(2*dom*dom); i++ {
			s.MustAddTuple("E", rng.Intn(dom), rng.Intn(dom))
		}
		for i := 0; i < 1+rng.Intn(dom); i++ {
			s.MustAddTuple("U", rng.Intn(dom))
		}
		q := &Query{
			Atoms: []Atom{
				{Rel: "E", Args: []string{"x", "y"}},
				{Rel: "E", Args: []string{"y", "z"}},
				{Rel: "U", Args: []string{"x"}},
			},
			Free: []string{"x", "z"},
		}
		want, err := AllAnswers(context.Background(), s, q)
		if err != nil {
			t.Fatalf("trial %d: AllAnswers: %v", trial, err)
		}
		got := collectAnswers(t, s, q)
		if len(got) == 0 && len(want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: stream %v, materialized %v", trial, got, want)
		}
	}
}

func TestStreamAnswersRepeatedVarInAtom(t *testing.T) {
	s := NewStructure(3)
	if err := s.AddRelation("E", 2); err != nil {
		t.Fatal(err)
	}
	s.MustAddTuple("E", 0, 1)
	s.MustAddTuple("E", 1, 1)
	s.MustAddTuple("E", 2, 2)
	q := &Query{Atoms: []Atom{{Rel: "E", Args: []string{"x", "x"}}}, Free: []string{"x"}}
	got := collectAnswers(t, s, q)
	want := [][]int{{1}, {2}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestStreamAnswersDisjointAtoms(t *testing.T) {
	// Two atoms sharing no variables exercise the buffered hash-join level.
	s := NewStructure(4)
	if err := s.AddRelation("A", 1); err != nil {
		t.Fatal(err)
	}
	if err := s.AddRelation("B", 1); err != nil {
		t.Fatal(err)
	}
	s.MustAddTuple("A", 0)
	s.MustAddTuple("A", 1)
	s.MustAddTuple("B", 2)
	s.MustAddTuple("B", 3)
	q := &Query{
		Atoms: []Atom{{Rel: "A", Args: []string{"x"}}, {Rel: "B", Args: []string{"y"}}},
		Free:  []string{"x", "y"},
	}
	got := collectAnswers(t, s, q)
	want := [][]int{{0, 2}, {0, 3}, {1, 2}, {1, 3}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestStreamAnswersBoolean(t *testing.T) {
	s := NewStructure(2)
	if err := s.AddRelation("E", 2); err != nil {
		t.Fatal(err)
	}
	q := &Query{Atoms: []Atom{{Rel: "E", Args: []string{"x", "y"}}}}

	got := collectAnswers(t, s, q) // no tuples: unsatisfiable
	if len(got) != 0 {
		t.Fatalf("unsat Boolean query yielded %v", got)
	}
	s.MustAddTuple("E", 0, 1)
	s.MustAddTuple("E", 1, 0)
	got = collectAnswers(t, s, q) // sat: exactly one empty tuple despite 2 derivations
	if len(got) != 1 || len(got[0]) != 0 {
		t.Fatalf("sat Boolean query yielded %v, want one empty tuple", got)
	}
}

func TestStreamAnswersUnconstrainedFree(t *testing.T) {
	s := NewStructure(2)
	if err := s.AddRelation("E", 2); err != nil {
		t.Fatal(err)
	}
	q := &Query{Atoms: []Atom{{Rel: "E", Args: []string{"x", "y"}}}, Free: []string{"w"}}
	_, err := StreamAnswers(NewStructSource(s), q, nil)
	if !errors.Is(err, ErrUnconstrained) {
		t.Fatalf("err = %v, want ErrUnconstrained", err)
	}
}

func TestStreamAssignmentsFirstWitnessIsLazy(t *testing.T) {
	// The first assignment must not force a full scan of the first atom:
	// count tuples pulled through the source.
	s := NewStructure(100)
	if err := s.AddRelation("E", 2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 99; i++ {
		s.MustAddTuple("E", i, i+1)
	}
	q := &Query{Atoms: []Atom{
		{Rel: "E", Args: []string{"x", "y"}},
		{Rel: "E", Args: []string{"y", "z"}},
	}}
	src := &countingSource{inner: NewStructSource(s)}
	asg, _, err := StreamAssignments(src, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer asg.Close()
	if _, ok := asg.Next(); !ok {
		t.Fatal("expected a witness")
	}
	if src.pulled > 10 {
		t.Fatalf("first witness pulled %d source tuples, want a handful", src.pulled)
	}
}

type countingSource struct {
	inner  AtomSource
	pulled int
}

func (c *countingSource) Open(rel string, bound []int) (stream.Tuples, error) {
	ts, err := c.inner.Open(rel, bound)
	if err != nil {
		return nil, err
	}
	return stream.Filter(ts, func([]int) bool { c.pulled++; return true }), nil
}
