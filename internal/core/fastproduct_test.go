package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"ecrpq/internal/alphabet"
	"ecrpq/internal/graphdb"
	"ecrpq/internal/query"
	"ecrpq/internal/synchro"
)

// randomComponent builds a random database plus a component over it.
func randomComponentInstance(rng *rand.Rand, a *alphabet.Alphabet) (*graphdb.DB, *component, []int, []int) {
	n := 2 + rng.Intn(4)
	db := graphdb.New(a)
	for i := 0; i < n; i++ {
		db.MustAddVertex("")
	}
	for i := 0; i < 2*n; i++ {
		db.MustAddEdge(rng.Intn(n), alphabet.Symbol(rng.Intn(a.Size())), rng.Intn(n))
	}
	rels := []*synchro.Relation{
		synchro.Equality(a, 2), synchro.EqualLength(a, 2),
		synchro.PrefixOf(a), synchro.HammingAtMost(a, 1),
	}
	t := 2 + rng.Intn(2) // 2 or 3 tracks
	c := &component{}
	for i := 0; i < t; i++ {
		c.tracks = append(c.tracks, track{
			pathVar: string(rune('p' + i)), srcVar: "s", dstVar: "d",
		})
	}
	nr := 1 + rng.Intn(2)
	for i := 0; i < nr; i++ {
		r := rels[rng.Intn(len(rels))]
		i1 := rng.Intn(t)
		i2 := rng.Intn(t)
		for i2 == i1 {
			i2 = rng.Intn(t)
		}
		c.rels = append(c.rels, r)
		c.relTracks = append(c.relTracks, []int{i1, i2})
	}
	// Ensure all tracks covered by some relation (decompose guarantees this
	// in real use).
	covered := make([]bool, t)
	for _, rt := range c.relTracks {
		for _, x := range rt {
			covered[x] = true
		}
	}
	for i, cov := range covered {
		if !cov {
			other := (i + 1) % t
			c.rels = append(c.rels, synchro.EqualLength(a, 2))
			c.relTracks = append(c.relTracks, []int{i, other})
		}
	}
	srcs := make([]int, t)
	dsts := make([]int, t)
	for i := 0; i < t; i++ {
		srcs[i] = rng.Intn(n)
		dsts[i] = rng.Intn(n)
	}
	return db, c, srcs, dsts
}

// TestFastProductAgreesWithGeneral cross-validates the packed bitset/map
// search against the recording search on random component instances.
func TestFastProductAgreesWithGeneral(t *testing.T) {
	a := alphabet.Lower(2)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		db, c, srcs, dsts := randomComponentInstance(rng, a)
		fp := newFastProduct(db, c)
		if fp == nil {
			t.Log("fast product unexpectedly unavailable")
			return false
		}
		fastFound, err := fp.reach(context.Background(), srcs, dsts, 0)
		if err != nil {
			return false
		}
		goal, _, _, err := productSearch(context.Background(), db, c, srcs, matchDsts(dsts), 0)
		if err != nil {
			return false
		}
		if fastFound != (goal >= 0) {
			t.Logf("seed %d: fast=%v general=%v", seed, fastFound, goal >= 0)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestFastProductReuseAcrossRuns checks the incremental bitset clearing:
// repeated Run calls from different sources give the same results as fresh
// instances.
func TestFastProductReuseAcrossRuns(t *testing.T) {
	a := alphabet.Lower(2)
	rng := rand.New(rand.NewSource(42))
	db, c, _, _ := randomComponentInstance(rng, a)
	fp := newFastProduct(db, c)
	if fp == nil {
		t.Skip("fast product unavailable")
	}
	n := db.NumVertices()
	tn := len(c.tracks)
	collect := func(f *fastProduct, srcs []int) map[string]bool {
		out := make(map[string]bool)
		if err := f.Run(context.Background(), srcs, 0); err != nil {
			t.Fatal(err)
		}
		verts := make([]int, tn)
		for _, key := range f.dests {
			f.unpackDest(key, verts)
			out[fmt.Sprint(verts)] = true
		}
		return out
	}
	for trial := 0; trial < 20; trial++ {
		srcs := make([]int, tn)
		for i := range srcs {
			srcs[i] = rng.Intn(n)
		}
		reused := collect(fp, srcs)
		fresh := collect(newFastProduct(db, c), srcs)
		if len(reused) != len(fresh) {
			t.Fatalf("trial %d: reuse %d results, fresh %d", trial, len(reused), len(fresh))
		}
		for k := range fresh {
			if !reused[k] {
				t.Fatalf("trial %d: missing result after reuse", trial)
			}
		}
	}
}

// TestFastProductUnavailableFallback: components too large to pack must make
// newFastProduct return nil rather than misbehave.
func TestFastProductUnavailableFallback(t *testing.T) {
	a := alphabet.Lower(2)
	db := graphdb.New(a)
	db.MustAddVertex("v")
	db.MustAddEdge(0, 0, 0)
	db.MustAddEdge(0, 1, 0)
	// 17 tracks exceeds the 16-track limit.
	c := &component{}
	for i := 0; i < 17; i++ {
		c.tracks = append(c.tracks, track{pathVar: "p", srcVar: "s", dstVar: "d"})
	}
	if newFastProduct(db, c) != nil {
		t.Error("17-track component should not use the fast product")
	}
	// Empty component.
	if newFastProduct(db, &component{}) != nil {
		t.Error("0-track component should not use the fast product")
	}
}

// TestCheckComponentBudgetViaFastPath ensures the state budget error also
// surfaces through the fast path.
func TestCheckComponentBudgetViaFastPath(t *testing.T) {
	db := lineDB(t)
	a := db.Alphabet()
	q := query.NewBuilder(a).
		Reach("x", "p1", "y").
		Reach("x", "p2", "y").
		Rel(synchro.EqualLength(a, 2), "p1", "p2").
		Lang("p1", "a+b").
		MustBuild()
	comps, _, err := decompose(q)
	if err != nil || len(comps) != 1 {
		t.Fatalf("decompose: %v %d", err, len(comps))
	}
	u, _ := db.Lookup("u")
	z, _ := db.Lookup("z")
	if _, _, err := checkComponent(context.Background(), db, &comps[0], []int{u, u}, []int{z, z}, 1); err == nil {
		t.Error("budget 1 should error")
	}
}
