package synchro

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math/bits"
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
// kernels expect. A last case merges PrefixOf with eight relations of some
// 260 states each, whose product state takes more than 64 bits to pack.
// The merged tables, state numbering included, hash to mergeDigest.
func TestMergeOracle(t *testing.T) {
	h := sha256.New()
	a := alphabet.Lower(2)
	binary := []*Relation{Equality(a, 2), EqualLength(a, 2), PrefixOf(a), HammingAtMost(a, 1),
		invariant.Must(EditDistanceAtMost(a, 1)), Universal(a, 2)}
	var unary []*Relation
	for _, re := range []string{"a(a|b)*", "(ab)*", "b*", "(a|b)*a", "aa(a|b)*"} {
		unary = append(unary, lift(t, a, re))
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
		mergeOracle(t, h, fmt.Sprintf("seed %d", seed), a, arity, rels, vars, words)
	}
	cycle := "(" + strings.Repeat("(a|b)", 130) + ")*"
	rels, vars, packed := []*Relation{PrefixOf(a)}, [][]int{{0, 1}}, 0
	for i, tail := range []string{"", "a", "a?", "(a|b)", "(a|b)?", "a(a|b)?", "b?", "(a|b)(a|b)?"} {
		rels, vars = append(rels, lift(t, a, cycle+tail)), append(vars, []int{i % 2})
	}
	for _, r := range rels {
		packed += bits.Len(uint(r.Table().NumStates() - 1))
	}
	if packed <= 64 {
		t.Fatalf("the wide case's product state packs into %d bits, want more than 64", packed)
	}
	mergeOracle(t, h, "wide", a, 2, rels, vars, words)
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != mergeDigest {
		t.Errorf("merged tables hash to %s, want %s: the merge numbers its states differently", got, mergeDigest)
	}
}

// mergeDigest is TestMergeOracle's hash of its merged tables, taken when a
// map numbered the product states: a state's number is its rank of first
// sight, whatever table interns it.
const mergeDigest = "8d23855935e3e6d43e61d73da51b3a5612685fd48e85ab81e20a50d1f245db14"

func lift(t *testing.T, a *alphabet.Alphabet, re string) *Relation {
	nfa, err := rex.CompileString(a, re)
	if err != nil {
		t.Fatal(err)
	}
	return Lift(a, nfa)
}

// mergeOracle checks Merge and Join on one set of relations against every
// tuple of words, and writes the merged table to h.
func mergeOracle(t *testing.T, h io.Writer, name string, a *alphabet.Alphabet, arity int, rels []*Relation, vars [][]int, words []alphabet.Word) {
	t.Helper()
	tab, err := Merge(context.Background(), a, arity, rels, vars, nil)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	fmt.Fprintln(h, tab.Starts, tab.Accept, tab.Trans)
	joined, err := Join(a, arity, rels, vars)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for _, trs := range tab.Trans {
		if !slices.IsSortedFunc(trs, compareTransitions) {
			t.Fatalf("%s: transitions out of (tuple, target) order: %v", name, trs)
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
			t.Fatalf("%s: %v over %v: table %v, Join %v, relations %v", name, tuple, vars, got, viaJoin, want)
		}
	}
	check(0)
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
