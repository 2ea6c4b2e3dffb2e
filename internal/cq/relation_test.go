package cq

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// TestRelationOneRepresentation: a relation is the same relation whichever
// way it was made. Over arities 1–6 and domains 1–9, one random tuple set
// bulk-loaded under a random column order and built tuple by tuple (shuffled,
// with duplicates) has equal Len and equal Row sets; Contains on either is a
// linear scan's answer for every one of the Domain^arity tuples; and a query
// whose atoms repeat variables (scan's eq filter) gets the reference
// evaluator's decision and the brute-force answer set from the compiled plan
// on both.
func TestRelationOneRepresentation(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	ctx := context.Background()
	sats, unsats := 0, 0
	for arity := 1; arity <= 6; arity++ {
		for domain := 1; domain <= 9; domain++ {
			at := fmt.Sprintf("arity %d, domain %d", arity, domain)
			total := 1
			for i := 0; i < arity; i++ {
				total *= domain
			}
			decode := func(idx int) []int {
				tup := make([]int, arity)
				for k := arity - 1; k >= 0; k-- {
					tup[k], idx = idx%domain, idx/domain
				}
				return tup
			}
			// Two atoms over three variables: from arity 2 on some variable
			// repeats inside an atom more often than not, from arity 4 always.
			vars := []string{"x", "y", "z"}
			q := &Query{}
			for i := 0; i < 2; i++ {
				args := make([]string, arity)
				for k := range args {
					args[k] = vars[rng.Intn(len(vars))]
				}
				q.Atoms = append(q.Atoms, Atom{Rel: "R", Args: args})
			}
			q.Free = []string{q.Atoms[0].Args[0]}
			if last := q.Atoms[1].Args[arity-1]; last != q.Free[0] && rng.Intn(2) == 0 {
				q.Free = append(q.Free, last)
			}
			// A random subset, sparse every other time, plus (one time in two)
			// the tuples an assignment of the variables induces, so that the eq
			// filter passes on a sparse one too.
			in := make(map[int]bool)
			most := min(total, 300)
			if rng.Intn(2) == 0 {
				most = min(total/8, 20)
			}
			for n := rng.Intn(most + 1); len(in) < n; {
				in[rng.Intn(total)] = true
			}
			if rng.Intn(2) == 0 {
				val := map[string]int{"x": rng.Intn(domain), "y": rng.Intn(domain), "z": rng.Intn(domain)}
				for _, atom := range q.Atoms {
					idx := 0
					for _, v := range atom.Args {
						idx = idx*domain + val[v]
					}
					in[idx] = true
				}
			}
			var rows [][]int
			for idx := range in {
				rows = append(rows, decode(idx))
			}
			order := rng.Perm(arity)
			slices.SortFunc(rows, func(a, b []int) int {
				for _, c := range order {
					if a[c] != b[c] {
						return a[c] - b[c]
					}
				}
				return 0
			})
			loaded, built := NewStructure(domain), NewStructure(domain)
			if err := loaded.LoadSorted("R", arity, rows32(slices.Concat(rows...)), order); err != nil {
				t.Fatalf("%s: LoadSorted under order %v: %v", at, order, err)
			}
			if err := built.AddRelation("R", arity); err != nil {
				t.Fatal(err)
			}
			for _, i := range rng.Perm(len(rows)) {
				built.MustAddTuple("R", rows[i]...)
				built.MustAddTuple("R", rows[rng.Intn(len(rows))]...) // a duplicate, now or later
			}

			rowSet := func(s *Structure) map[string]bool {
				r := s.Relation("R")
				set := make(map[string]bool)
				for i := 0; i < r.Len(); i++ {
					if len(r.Row(i)) != arity {
						t.Fatalf("%s: row %d has %d values", at, i, len(r.Row(i)))
					}
					set[fmt.Sprint(r.Row(i))] = true
				}
				if len(set) != r.Len() || s.NumTuples() != r.Len() || s.RowBytes() != 4*arity*r.Len() {
					t.Fatalf("%s: Len %d, %d distinct rows, NumTuples %d, RowBytes %d", at, r.Len(), len(set), s.NumTuples(), s.RowBytes())
				}
				return set
			}
			ls, bs := rowSet(loaded), rowSet(built)
			if len(ls) != len(in) || len(bs) != len(in) {
				t.Fatalf("%s: %d tuples went in; loaded holds %d rows, built %d", at, len(in), len(ls), len(bs))
			}
			for row := range ls {
				if !bs[row] {
					t.Fatalf("%s: row %s is in the loaded relation only", at, row)
				}
			}
			for idx := 0; idx < total; idx++ {
				tup := decode(idx)
				if l, b := loaded.Contains("R", tup...), built.Contains("R", tup...); l != in[idx] || b != in[idx] {
					t.Fatalf("%s: Contains(%v): loaded (order %v) %v, built %v, want %v", at, tup, order, l, b, in[idx])
				}
			}

			p, err := Compile(q)
			if err != nil {
				t.Fatal(err)
			}
			want := bruteAnswers(loaded, q)
			for name, s := range map[string]*Structure{"loaded": loaded, "built": built} {
				_, ref, err := EvalBacktrack(ctx, s, q)
				if err != nil {
					t.Fatal(err)
				}
				asg, sat, _, err := p.Eval(ctx, s, nil)
				if err != nil || sat != ref || sat != (len(want) > 0) {
					t.Fatalf("%s, %s, %v: Eval = %v (err %v), EvalBacktrack = %v, %d brute-force answers", at, name, q.Atoms, sat, err, ref, len(want))
				}
				if sat {
					checkAssignment(t, s, q, asg)
				}
				got, err := p.Answers(ctx, s, nil)
				if err != nil || !slices.EqualFunc(got, want, slices.Equal[[]int]) {
					t.Fatalf("%s, %s, %v free %v: Answers = %v (err %v), want %v", at, name, q.Atoms, q.Free, got, err, want)
				}
			}
			if len(want) > 0 {
				sats++
			} else {
				unsats++
			}
		}
	}
	if sats < 15 || unsats < 15 {
		t.Errorf("%d satisfiable and %d unsatisfiable instances: the matrix no longer sees both", sats, unsats)
	}
}

// TestLoadSortedAllocs: a bulk load allocates the relation's fixed parts and
// nothing per row — the same small count at ten rows and at a hundred
// thousand.
func TestLoadSortedAllocs(t *testing.T) {
	order := []int{0, 1}
	var counts []float64
	for _, n := range []int{10, 100000} {
		flat := make([]int32, 0, 2*n)
		for i := 0; i < n; i++ {
			flat = append(flat, int32(i), int32(i%7))
		}
		s := NewStructure(n)
		next := 0
		names := make([]string, 64)
		for i := range names {
			names[i] = fmt.Sprintf("R%d", i)
		}
		counts = append(counts, testing.AllocsPerRun(len(names)-1, func() {
			if err := s.LoadSorted(names[next], 2, flat, order); err != nil {
				t.Fatal(err)
			}
			next++
		}))
	}
	if counts[0] != counts[1] || counts[0] > 3 {
		t.Errorf("LoadSorted allocates %v times for 10 rows and %v for 100 000; want one constant, at most 3", counts[0], counts[1])
	}
}

// TestAddTupleBeyondInt32: rows hold int32, so a value that does not fit is
// refused where it would be stored rather than truncated, and a domain that
// wide is refused by the join with its own message.
func TestAddTupleBeyondInt32(t *testing.T) {
	s := NewStructure(1 << 33)
	if err := s.AddRelation("R", 2); err != nil {
		t.Fatal(err)
	}
	s.MustAddTuple("R", 1<<31-1, 0)
	if err := s.AddTuple("R", 1<<31, 0); err == nil || s.Relation("R").Len() != 1 || s.Contains("R", 1<<31, 0) {
		t.Fatalf("AddTuple of 2^31: err %v, %d rows", err, s.Relation("R").Len())
	}
	_, _, err := EvalTreeDecomp(s, &Query{Atoms: []Atom{{Rel: "R", Args: []string{"x", "y"}}}})
	if err == nil || err.Error() != fmt.Sprintf("cq: domain %d exceeds the join kernel's 32-bit values", 1<<33) {
		t.Fatalf("Eval over a 2^33 domain: err = %v", err)
	}
}
