package synchro

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"ecrpq/internal/alphabet"
	"ecrpq/internal/invariant"
	"ecrpq/internal/rex"
)

// tableAccepts runs the table on the convolution of words.
func tableAccepts(t *Table, words ...alphabet.Word) bool {
	cur := slices.Clone(t.Starts)
	for _, letter := range alphabet.Convolve(words...) {
		var next []int
		for _, q := range cur {
			for _, tr := range t.Trans[q] {
				if slices.Equal(tr.Tuple, letter) && !slices.Contains(next, tr.To) {
					next = append(next, tr.To)
				}
			}
		}
		cur = next
	}
	return slices.ContainsFunc(cur, func(q int) bool { return t.Accept[q] })
}

// TestMergeOracle is Lemma 4.1 read off its definition: on seeded random
// sets of one to four relations mapped onto at most three tracks, the merged
// table accepts a tuple of words exactly when every relation contains its
// projection, for every tuple of words of length at most 3 over {a, b};
// Join's relation agrees with the table, and the table is sorted as the
// kernels expect.
func TestMergeOracle(t *testing.T) {
	a := alphabet.Lower(2)
	binary := []*Relation{Equality(a, 2), EqualLength(a, 2), PrefixOf(a), HammingAtMost(a, 1),
		invariant.Must(EditDistanceAtMost(a, 1)), Universal(a, 2)}
	var unary []*Relation
	for _, re := range []string{"a(a|b)*", "(ab)*", "b*", "(a|b)*a", "aa(a|b)*"} {
		nfa, err := rex.CompileString(a, re)
		if err != nil {
			t.Fatal(err)
		}
		unary = append(unary, Lift(a, nfa))
	}
	unary = append(unary, Universal(a, 1))
	words := allWords(a, 3)
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		arity := 1 + rng.Intn(3)
		var rels []*Relation
		var vars [][]int
		for n := 1 + rng.Intn(4); len(rels) < n; {
			perm := rng.Perm(arity)
			if arity > 1 && rng.Intn(2) == 0 {
				rels, vars = append(rels, binary[rng.Intn(len(binary))]), append(vars, perm[:2])
			} else {
				rels, vars = append(rels, unary[rng.Intn(len(unary))]), append(vars, perm[:1])
			}
		}
		tab, err := Merge(context.Background(), a, arity, rels, vars, nil)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		joined, err := Join(a, arity, rels, vars)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, trs := range tab.Trans {
			if !slices.IsSortedFunc(trs, compareTransitions) {
				t.Fatalf("seed %d: transitions out of (tuple, target) order: %v", seed, trs)
			}
		}
		tuple := make([]alphabet.Word, arity)
		var check func(k int)
		check = func(k int) {
			if k < arity {
				for _, w := range words {
					tuple[k] = w
					check(k + 1)
				}
				return
			}
			want := true
			for i, r := range rels {
				proj := make([]alphabet.Word, len(vars[i]))
				for j, v := range vars[i] {
					proj[j] = tuple[v]
				}
				want = want && r.MustContain(proj...)
			}
			if got, viaJoin := tableAccepts(tab, tuple...), joined.MustContain(tuple...); got != want || viaJoin != want {
				t.Fatalf("seed %d: %v over %v: table %v, Join %v, relations %v", seed, tuple, vars, got, viaJoin, want)
			}
		}
		check(0)
	}
}

// TestMergeCancelAndGrow: a merge polls its context and reports the states
// it discovers as it grows, so a cancelled context or a refused charge ends
// it before the product is complete.
func TestMergeCancelAndGrow(t *testing.T) {
	a := alphabet.Lower(2)
	var rels []*Relation
	var vars [][]int
	for _, m := range []int{2, 3, 5, 7, 11, 13} {
		nfa, err := rex.CompileString(a, "("+strings.Repeat("(a|b)", m)+")*")
		if err != nil {
			t.Fatal(err)
		}
		rels, vars = append(rels, Lift(a, nfa)), append(vars, []int{0})
	}
	full := 0
	if _, err := Merge(context.Background(), a, 1, rels, vars, func(n int) error { full += n; return nil }); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Merge(ctx, a, 1, rels, vars, nil); err != context.Canceled {
		t.Errorf("cancelled merge: %v, want %v", err, context.Canceled)
	}
	grown, refused := 0, errors.New("refused")
	_, err := Merge(context.Background(), a, 1, rels, vars, func(n int) error {
		if grown += n; grown > full/2 {
			return refused
		}
		return nil
	})
	if err != refused || grown >= full {
		t.Errorf("refused merge: %v after %d of %d states", err, grown, full)
	}
}
