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
	comps := mergedComponents(t, q)
	if len(comps) != 1 || len(comps[0].tracks) != tracks {
		t.Fatalf("%d components", len(comps))
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
		for _, key := range f.dests.s {
			unpackDest(&f.productStep, key, verts)
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
// (more than 16 tracks) gets a kernel, in the wide key regime, that serves
// every entry point. On a database with one successor per vertex and letter, 17
// tracks reading one word from v all end where that word leads, so the
// reach set of (v, …, v) is the diagonal over the vertices reachable from
// v, in ascending — lexicographic — order.
func TestFastProductUnavailableFallback(t *testing.T) {
	a := alphabet.Lower(2)
	db := functionalDB(rand.New(rand.NewSource(16)), a, 6)
	comps := mergedComponents(t, eqFan(a, 17).MustBuild())
	if len(comps) != 1 {
		t.Fatalf("%d components", len(comps))
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

// checkComponent is a witness for one pair of endpoint tuples, on a kernel
// of its own.
func checkComponent(ctx context.Context, db *graphdb.DB, c *component, srcs, dsts []int, maxStates int) ([]graphdb.Path, bool, error) {
	fp := newFastProduct(db, c)
	defer fp.releaseMem()
	return fp.witness(ctx, srcs, dsts, maxStates)
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
	comps := mergedComponents(t, q)
	if len(comps) != 1 {
		t.Fatalf("%d components", len(comps))
	}
	u, _ := db.Lookup("u")
	z, _ := db.Lookup("z")
	if _, _, err := checkComponent(context.Background(), db, &comps[0], []int{u, u}, []int{z, z}, 1); err == nil {
		t.Error("budget 1 should error")
	}
}

// TestRankTableAgainstMap holds the open-addressing table the key sets and
// the word tables share to map[uint64]int: every key gets the rank of its
// first sight, dense from 0, through growth and after a reset. The keys are
// the ones the encoding could get wrong — 0, whose slot word is 1, beside
// an empty slot; 2^63-1, the widest packed key, whose slot word is 2^63 —
// then runs congruent modulo every table size (what packed keys of one
// relation state look like), keys picked to share a home slot, and a
// million random operations over a key space small enough to repeat.
func TestRankTableAgainstMap(t *testing.T) {
	var tab rankTable
	ref := map[uint64]int{}
	add := func(key uint64) {
		t.Helper()
		want, seen := ref[key]
		if !seen {
			want = len(ref)
			ref[key] = want
		}
		if tab.has(key) != seen {
			t.Fatalf("has(%d) = %v before the add", key, !seen)
		}
		if rank, fresh := tab.add(key); rank != want || fresh == seen {
			t.Fatalf("add(%d) = rank %d, fresh %v; want rank %d, fresh %v", key, rank, fresh, want, !seen)
		}
		if !tab.has(key) || tab.n != len(ref) || 2*tab.n > len(tab.keys.s) {
			t.Fatalf("after add(%d): has %v; %d keys in %d slots, want %d at most half full", key, tab.has(key), tab.n, len(tab.keys.s), len(ref))
		}
	}
	reset := func() {
		tab.reset()
		clear(ref)
		if tab.has(0) || tab.has(1<<63-1) {
			t.Fatal("a reset table has a key")
		}
	}
	if tab.has(0) || tab.bytes() != 0 {
		t.Fatal("the zero table is not empty")
	}
	edge := []uint64{0, 1<<63 - 1, 1, 1<<63 - 2, 0, 1<<63 - 1}
	for _, key := range edge {
		add(key)
	}
	for shift := uint(4); shift <= 20; shift += 4 {
		for i := uint64(0); i < 40; i++ {
			add(i << shift)
			add(i<<shift | 3)
		}
	}
	if len(tab.keys.s) < 16<<3 {
		t.Fatalf("%d slots after %d keys: the table has not doubled three times", len(tab.keys.s), tab.n)
	}
	grown := len(tab.keys.s)
	reset()
	for _, key := range edge {
		add(key) // ranks are dense from 0 again
	}
	// Keys that share a home slot in the table as it is now: one probe chain.
	const home = 7
	for key, found := uint64(2), 0; found < grown/4; key++ {
		if int(key*0x9E3779B97F4A7C15>>32)&(grown-1) == home {
			add(key)
			found++
		}
	}
	if len(tab.keys.s) != grown {
		t.Fatalf("a reset table of %d slots has %d after fewer keys than before", grown, len(tab.keys.s))
	}
	rng := rand.New(rand.NewSource(63))
	for op := 0; op < 1000000; op++ {
		switch r := rng.Intn(200000); {
		case r == 0:
			reset()
		case r%2 == 0:
			add(uint64(rng.Intn(30000)))
		default:
			add(rng.Uint64() >> 1)
		}
	}
}

// TestKeyTablesAgainstMap drives keySet and wordTable in each of their
// regimes — direct over a small key space, direct and growing with the
// wide regime's row ids (width 0), hashed past denseSetBits and past
// denseTableWords (at the strides of one lane word and of eight) — against
// a map, through the reset-and-reuse cycle the kernels put them through;
// a direct table handed back and taken again is all zero.
func TestKeyTablesAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	for _, stride := range []int{2, 16} {
		for _, width := range []uint{0, 10, denseSetBits, denseSetBits + 1, 17, 18, 20, 21, 63} {
			set, words := newKeySet(width), newWordTable(width, stride)
			if hashed := set.table != nil; hashed != (width > denseSetBits) {
				t.Fatalf("width %d: key set hashed = %v", width, hashed)
			}
			if hashed := words.index != nil; hashed != (width > 21 || uint64(stride)<<width > denseTableWords) {
				t.Fatalf("width %d stride %d: word table hashed = %v", width, stride, hashed)
			}
			space := uint64(1)<<width - 1
			if width == 0 {
				space = 5000 // row ids: however many rows a search has interned
			}
			mask := make([]uint64, stride/2)
			for round := 0; round < 4; round++ {
				ref := map[uint64][]uint64{}
				var members []uint64
				for op := 0; op < 3000; op++ {
					key := rng.Uint64() & space
					if width == 0 {
						key = uint64(rng.Intn(int(space)))
					}
					_, seen := ref[key]
					if set.has(key) != seen {
						t.Fatalf("width %d: has(%d) = %v", width, key, !seen)
					}
					if set.add(key) == seen {
						t.Fatalf("width %d: add(%d) reports new = %v", width, key, seen)
					}
					if !seen {
						members = append(members, key)
						ref[key] = make([]uint64, stride)
					}
					clear(mask)
					j := rng.Intn(len(mask))
					mask[j] = uint64(1) << uint(rng.Intn(64))
					words.or(key, mask)
					words.at(key)[len(mask)+j] += mask[j]
					ref[key][j] |= mask[j]
					ref[key][len(mask)+j] += mask[j]
				}
				if !slices.Equal(words.keys.s, members) {
					t.Fatalf("width %d stride %d: touched keys are not the members in order of first touch", width, stride)
				}
				for key, want := range ref {
					if got := words.at(key); !slices.Equal(got, want) {
						t.Fatalf("width %d stride %d: slot of %d is %x, want %x", width, stride, key, got, want)
					}
				}
				set.clear(members)
				words.reset()
				for _, key := range members {
					if set.has(key) || slices.Max(words.at(key)) != 0 {
						t.Fatalf("width %d stride %d: key %d survives the reset", width, stride, key)
					}
				}
				words.reset() // the probes above claimed slots in the hashed regime
			}
			set.release()
			words.or(space/2, mask) // handed back dirty, release must clear it
			words.release()
			if again := newWordTable(width, stride); len(again.words.s) > 0 && slices.Max(again.words.s) != 0 {
				t.Fatalf("width %d stride %d: a table taken after a release is not all zero", width, stride)
			} else {
				again.release()
			}
		}
	}
}
