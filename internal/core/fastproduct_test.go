package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"ecrpq/internal/alphabet"
	"ecrpq/internal/graphdb"
	"ecrpq/internal/query"
	"ecrpq/internal/synchro"
)

// randomComponentInstance builds a random database and a query of one
// component over it, every track with endpoint variables of its own (u<k>,
// v<k>), plus an endpoint tuple to ask about.
func randomComponentInstance(t testing.TB, rng *rand.Rand, a *alphabet.Alphabet) (*graphdb.DB, *query.Query, *component, []int, []int) {
	t.Helper()
	n := 2 + rng.Intn(4)
	db := randomDB(rng, a, n, 2*n)
	rels := []*synchro.Relation{
		synchro.Equality(a, 2), synchro.EqualLength(a, 2),
		synchro.PrefixOf(a), synchro.HammingAtMost(a, 1),
	}
	tracks := 2 + rng.Intn(2) // 2 or 3 tracks
	path := func(k int) string { return fmt.Sprintf("p%d", k) }
	b := query.NewBuilder(a)
	for k := 0; k < tracks; k++ {
		b.Reach(fmt.Sprintf("u%d", k), path(k), fmt.Sprintf("v%d", k))
	}
	covered := make([]bool, tracks)
	for i, nr := 0, 1+rng.Intn(2); i < nr; i++ {
		i1 := rng.Intn(tracks)
		i2 := rng.Intn(tracks)
		for i2 == i1 {
			i2 = rng.Intn(tracks)
		}
		b.Rel(rels[rng.Intn(len(rels))], path(i1), path(i2))
		covered[i1], covered[i2] = true, true
	}
	// Relate every track, so that the query is one component.
	for k, cov := range covered {
		if !cov {
			b.Rel(synchro.EqualLength(a, 2), path(k), path((k+1)%tracks))
		}
	}
	q := b.MustBuild()
	comps, err := decomposeViews(q)
	if err != nil || len(comps) != 1 || len(comps[0].tracks) != tracks {
		t.Fatalf("decompose: %v, %d components", err, len(comps))
	}
	srcs := make([]int, tracks)
	dsts := make([]int, tracks)
	for k := range srcs {
		srcs[k] = rng.Intn(n)
		dsts[k] = rng.Intn(n)
	}
	return db, q, &comps[0], srcs, dsts
}

// TestFastProductAgreesWithGeneral cross-validates the kernel against the
// brute-force semantics on random component instances, in both directions:
// an endpoint tuple NaiveBounded admits is reached, and a reached one has a
// witness that verifies — which NaiveBounded can only have missed because a
// path is longer than its bound.
func TestFastProductAgreesWithGeneral(t *testing.T) {
	const bound = 3
	a := alphabet.Lower(2)
	ctx := context.Background()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		db, q, c, srcs, dsts := randomComponentInstance(t, rng, a)
		fp := newFastProduct(db, c)
		found, err := fp.reach(ctx, srcs, dsts, 0)
		if err != nil {
			return false
		}
		res := &Result{Sat: true, Nodes: map[string]int{}, Paths: map[string]graphdb.Path{}}
		for k, tr := range c.tracks {
			res.Nodes[tr.srcVar], res.Nodes[tr.dstVar] = srcs[k], dsts[k]
		}
		naive, err := naiveBounded(db, q, res.Nodes, bound)
		if err != nil {
			return false
		}
		if naive.Sat && !found {
			t.Logf("seed %d: NaiveBounded admits %v→%v, the kernel does not reach it", seed, srcs, dsts)
			return false
		}
		if !found {
			return true
		}
		paths, ok, err := fp.witness(ctx, srcs, dsts, 0)
		if err != nil || !ok {
			t.Logf("seed %d: reached %v→%v has no witness (err %v)", seed, srcs, dsts, err)
			return false
		}
		long := false
		for k, tr := range c.tracks {
			res.Paths[tr.pathVar] = paths[k]
			long = long || paths[k].Len() > bound
		}
		if err := VerifyWitness(db, q, res); err != nil {
			t.Logf("seed %d: witness: %v", seed, err)
			return false
		}
		if !naive.Sat && !long {
			t.Logf("seed %d: a witness within the bound that NaiveBounded missed", seed)
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
	db, _, c, _, _ := randomComponentInstance(t, rng, a)
	fp := newFastProduct(db, c)
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

// TestFastProductUnavailableFallback: a shape newFastProduct used to refuse
// (more than 16 tracks; TestGenericWideComponent has the other, automata
// sizes past 2^30) gets a kernel, in the wide key regime, that serves every
// entry point. On a database with one successor per vertex and letter, 17
// tracks reading one word from v all end where that word leads, so the
// reach set of (v, …, v) is the diagonal over the vertices reachable from
// v, in ascending — lexicographic — order.
func TestFastProductUnavailableFallback(t *testing.T) {
	a := alphabet.Lower(2)
	db := functionalDB(rand.New(rand.NewSource(16)), a, 6)
	comps, err := decomposeViews(eqFan(a, 17).MustBuild())
	if err != nil || len(comps) != 1 {
		t.Fatalf("decompose: %v, %d components", err, len(comps))
	}
	fp := newFastProduct(db, &comps[0])
	if !fp.wide {
		t.Fatal("a 17-track state over 6 vertices packs into a word")
	}
	ctx := context.Background()
	srcs, dsts := make([]int, 17), make([]int, 17)
	for v := 0; v < db.NumVertices(); v++ {
		var want []int
		for d, dist := range bfsDist(db, v) {
			for k := 0; dist >= 0 && k < 17; k++ {
				want = append(want, d)
			}
		}
		for k := range srcs {
			srcs[k] = v
		}
		got, err := componentReachSet(ctx, fp, srcs, 0, nil)
		if err != nil || !slices.Equal(got, want) {
			t.Fatalf("reach set of %d^17: %v (err %v), want the diagonal %v", v, got, err, want)
		}
		copy(dsts, want[len(want)-17:])
		paths, ok, err := fp.witness(ctx, srcs, dsts, 0)
		if err != nil || !ok {
			t.Fatalf("no witness %d^17 → %d^17 (err %v)", v, dsts[0], err)
		}
		for k, p := range paths {
			if !p.Valid(db) || p.Start != v || p.End() != dsts[0] || !slices.Equal(p.Label(), paths[0].Label()) {
				t.Fatalf("track %d: path %s is not track 0's word from %d to %d", k, p.Format(db), v, dsts[0])
			}
		}
	}
}

// bfsDist is the reference the kernels are held to for plain reachability:
// the any-label distance from u to every vertex, -1 where there is no path,
// by a breadth-first search over db.Out that shares nothing with the product
// kernel or the CSR layout it walks.
func bfsDist(db *graphdb.DB, u int) []int {
	dist := make([]int, db.NumVertices())
	for v := range dist {
		dist[v] = -1
	}
	dist[u] = 0
	for queue := []int{u}; len(queue) > 0; queue = queue[1:] {
		for _, e := range db.Out(queue[0]) {
			if dist[e.To] < 0 {
				dist[e.To] = dist[queue[0]] + 1
				queue = append(queue, e.To)
			}
		}
	}
	return dist
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
	comps, err := decomposeViews(q)
	if err != nil || len(comps) != 1 {
		t.Fatalf("decompose: %v %d", err, len(comps))
	}
	u, _ := db.Lookup("u")
	z, _ := db.Lookup("z")
	if _, _, err := checkComponent(context.Background(), db, &comps[0], []int{u, u}, []int{z, z}, 1); err == nil {
		t.Error("budget 1 should error")
	}
}
