package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"ecrpq/internal/alphabet"
	"ecrpq/internal/graphdb"
	"ecrpq/internal/query"
	"ecrpq/internal/stream"
	"ecrpq/internal/workload"
)

// TestFreeTrackIsSigmaStar is the metamorphic relation behind the one-track
// Σ* component ("adding a universal atom", ROADMAP item 1): writing the
// language (a|b)* on a path variable no atom constrained changes nothing an
// evaluation reports — not Sat, not the sorted answer set, not the order
// Enumerate yields it in (whole, and as pages of 1, 7 and 50 concatenated),
// not the rows the reduction materialises. TestChaosAnswersMatrix runs both
// spellings under fault injection. And the witness of a free track is a
// shortest path: its length is the breadth-first distance.
func TestFreeTrackIsSigmaStar(t *testing.T) {
	ctx := context.Background()
	a := alphabet.Lower(2)
	dbs := []*graphdb.DB{graphdb.New(a), randomDB(rand.New(rand.NewSource(99)), a, 1, 2)}
	for seed := int64(0); seed < 8; seed++ {
		dbs = append(dbs, randomDB(rand.New(rand.NewSource(seed)), a, 5, 4+int(seed)))
	}
	enumerate := func(at string, p *Prepared, db *graphdb.DB, size int) [][]int {
		var rows [][]int
		for more := true; more; {
			it, err := p.Enumerate(ctx, db)
			if err != nil {
				t.Fatalf("%s: %v", at, err)
			}
			page, err := stream.Collect(stream.Limit(stream.Offset(it, len(rows)), size))
			it.Close()
			if err != nil {
				t.Fatalf("%s: %v", at, err)
			}
			rows, more = append(rows, page...), len(page) == size
		}
		return rows
	}
	plain, explicit := freeTrackShapes(a, false), freeTrackShapes(a, true)
	sat := 0
	for si := range plain {
		for di, db := range dbs {
			for _, opts := range []Options{{Strategy: Reduction}, {Strategy: Generic}, {Strategy: Generic, EagerMerge: true}} {
				at := fmt.Sprintf("%s, db %d, %v eager=%v", plain[si].name, di, opts.Strategy, opts.EagerMerge)
				var res [2]*Result
				var ans, whole [2][][]int
				for i, q := range []*query.Query{plain[si].q, explicit[si].q} {
					var err error
					if res[i], err = Evaluate(db, q, opts); err != nil {
						t.Fatalf("%s: %v", at, err)
					}
					if ans[i], err = Answers(db, q, opts); err != nil {
						t.Fatalf("%s: %v", at, err)
					}
				}
				if res[0].Sat != res[1].Sat || res[0].Stats.CQTuples != res[1].Stats.CQTuples {
					t.Fatalf("%s: Sat %v with %d CQ tuples, as (a|b)* Sat %v with %d", at,
						res[0].Sat, res[0].Stats.CQTuples, res[1].Sat, res[1].Stats.CQTuples)
				}
				if !slices.EqualFunc(ans[0], ans[1], slices.Equal[[]int]) {
					t.Fatalf("%s: answers %v, as (a|b)* %v", at, ans[0], ans[1])
				}
				for i, q := range []*query.Query{plain[si].q, explicit[si].q} {
					p, err := Prepare(q, opts)
					if err != nil {
						t.Fatalf("%s: %v", at, err)
					}
					whole[i] = enumerate(at, p, db, math.MaxInt)
					for _, size := range []int{1, 7, 50} {
						if rows := enumerate(at, p, db, size); !slices.EqualFunc(rows, whole[i], slices.Equal[[]int]) {
							t.Fatalf("%s: pages of %d concatenate to %v, the enumeration is %v", at, size, rows, whole[i])
						}
					}
				}
				if !slices.EqualFunc(whole[0], whole[1], slices.Equal[[]int]) {
					t.Fatalf("%s: enumerated %v, as (a|b)* %v", at, whole[0], whole[1])
				}
				if !res[0].Sat {
					continue
				}
				sat++
				if err := VerifyWitness(db, plain[si].q, res[0]); err != nil {
					t.Fatalf("%s: %v", at, err)
				}
				plan, err := Explain(plain[si].q, opts)
				if err != nil || len(plan.FreeTracks) == 0 || len(plan.FreeTracks) != res[0].Stats.FreeTracks || res[1].Stats.FreeTracks != 0 {
					t.Fatalf("%s: Explain reports the free tracks %v (err %v), Evaluate %d and as (a|b)* %d", at,
						plan.FreeTracks, err, res[0].Stats.FreeTracks, res[1].Stats.FreeTracks)
				}
				for _, pv := range plan.FreeTracks {
					path := res[0].Paths[pv]
					if want := bfsDist(db, path.Start)[path.End()]; path.Len() != want {
						t.Fatalf("%s: free track %s has the witness %s of %d edges, the distance is %d", at, pv, path.Format(db), path.Len(), want)
					}
				}
			}
		}
	}
	if sat < 50 {
		t.Errorf("%d satisfiable cells: the generator no longer produces them", sat)
	}
}

// BenchmarkFreeTrack is the cost of an unconstrained path variable on every
// path that meets one, so that the numbers of CHANGES.md can be re-read. The
// first five rows run the equal-length pair with a free third track
// (freeTestQuery) on a 40-vertex random graph. The last two are exhaustive
// Generic searches on 30 vertices whose free track is decided once per
// (y, z): with its source y bound before z one traversal answers for every
// z, with its source z innermost every decision begins a traversal — the
// "destination bound before source" debt of ROADMAP, paid by every
// component alike.
func BenchmarkFreeTrack(b *testing.B) {
	a := alphabet.Lower(2)
	db40 := workload.RandomDB(rand.New(rand.NewSource(40)), a, 40, 120)
	db30 := workload.RandomDB(rand.New(rand.NewSource(30)), a, 30, 90)
	ctx := context.Background()
	prep := func(q *query.Query, s Strategy) *Prepared {
		p, err := Prepare(q, Options{Strategy: s})
		if err != nil {
			b.Fatal(err)
		}
		return p
	}
	red, gen := prep(freeTestQuery(b, a), Reduction), prep(freeTestQuery(b, a), Generic)
	// x -a…-> y, the free track between y and z, and z -p3-> w under two
	// languages no word satisfies: unsatisfiable, but only after the free
	// track has been decided for every (y, z) under every x -a…-> y.
	unsat := func(src, dst string) *Prepared {
		return prep(query.NewBuilder(a).
			Reach("x", "p1", "y").Reach(src, "p2", dst).Reach("z", "p3", "w").
			Lang("p1", "a(a|b)*").Lang("p3", "a").Lang("p3", "b").
			MustBuild(), Generic)
	}
	outer, inner := unsat("y", "z"), unsat("z", "y")
	for _, bc := range []struct {
		name string
		run  func() (rows int, err error)
	}{
		{"materialize", func() (int, error) {
			mat, err := red.Materialize(ctx, db40)
			if err != nil {
				return 0, err
			}
			return mat.Tuples(), nil
		}},
		{"first-witness", func() (int, error) {
			res, err := red.EvaluateContext(ctx, db40, nil)
			if err == nil && !res.Sat {
				b.Fatal("unsatisfiable")
			}
			return 1, err
		}},
		{"answers-reduction", func() (int, error) {
			rows, err := red.Answers(ctx, db40, nil)
			return len(rows), err
		}},
		{"answers-generic", func() (int, error) {
			rows, err := gen.Answers(ctx, db40, nil)
			return len(rows), err
		}},
		{"enumerate-drain", func() (int, error) {
			it, err := red.Enumerate(ctx, db40)
			if err != nil {
				return 0, err
			}
			defer it.Close()
			rows, err := stream.Collect(it)
			return len(rows), err
		}},
		{"generic-unsat", func() (int, error) {
			res, err := outer.EvaluateContext(ctx, db30, nil)
			if err == nil && res.Sat {
				b.Fatal("satisfiable")
			}
			return 0, err
		}},
		{"generic-unsat-source-inner", func() (int, error) {
			res, err := inner.EvaluateContext(ctx, db30, nil)
			if err == nil && res.Sat {
				b.Fatal("satisfiable")
			}
			return 0, err
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			rows := 0
			for i := 0; i < b.N; i++ {
				var err error
				if rows, err = bc.run(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(rows), "rows/op")
		})
	}
}
