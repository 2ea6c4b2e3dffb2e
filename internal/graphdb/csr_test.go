package graphdb

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"ecrpq/internal/alphabet"
	"ecrpq/internal/rex"
)

func randomTestDB(rng *rand.Rand, a *alphabet.Alphabet, n, e int) *DB {
	db := New(a)
	for i := 0; i < n; i++ {
		db.MustAddVertex("")
	}
	for i := 0; i < e; i++ {
		db.MustAddEdge(rng.Intn(n), alphabet.Symbol(rng.Intn(a.Size())), rng.Intn(n))
	}
	return db
}

// checkForward holds the layout to its definition: the successors of
// (v, label) are Out(v) filtered by label, in order.
func checkForward(t *testing.T, name string, db *DB) {
	t.Helper()
	fwd := db.Forward()
	edges := 0
	for v := 0; v < db.NumVertices(); v++ {
		for s := 0; s < db.Alphabet().Size(); s++ {
			var want []int32
			for _, e := range db.Out(v) {
				if e.Label == alphabet.Symbol(s) {
					want = append(want, int32(e.To))
				}
			}
			got := fwd.Succ(v, alphabet.Symbol(s))
			if !slices.Equal(got, want) {
				t.Fatalf("%s: Succ(%d, %d) = %v, the Out filter gives %v", name, v, s, got, want)
			}
			edges += len(got)
		}
	}
	if edges != db.NumEdges() {
		t.Fatalf("%s: the layout holds %d edges, the database %d", name, edges, db.NumEdges())
	}
}

func TestForwardMatchesOut(t *testing.T) {
	rng := rand.New(rand.NewSource(20221001))
	for _, syms := range []int{1, 2, 3} {
		a := alphabet.Lower(syms)
		checkForward(t, "empty", New(a))
		checkForward(t, "single vertex", randomTestDB(rng, a, 1, 0))
		checkForward(t, "single vertex with loops", randomTestDB(rng, a, 1, 4))
		checkForward(t, "no edges", randomTestDB(rng, a, 5, 0))
		for n := 2; n <= 12; n++ {
			checkForward(t, "random", randomTestDB(rng, a, n, rng.Intn(4*n)))
		}
	}
}

// TestForwardInvalidation: every mutation drops the layout, the next use
// rebuilds it, and without a mutation in between Forward builds nothing.
func TestForwardInvalidation(t *testing.T) {
	a := alphabet.Lower(2)
	rng := rand.New(rand.NewSource(7))
	db := randomTestDB(rng, a, 4, 0)
	db.MustAddEdge(0, 0, 1)
	first := db.Forward()
	if db.Forward() != first {
		t.Fatal("a second Forward on an unchanged database rebuilt the layout")
	}
	if allocs := testing.AllocsPerRun(10, func() { db.Forward() }); allocs != 0 {
		t.Fatalf("Forward on a built layout allocates %.0f times", allocs)
	}
	db.MustAddEdge(0, 0, 2)
	if got := db.Forward().Succ(0, 0); !slices.Equal(got, []int32{1, 2}) {
		t.Fatalf("after AddEdge the layout says 0 -a-> %v, want [1 2]", got)
	}
	checkForward(t, "after AddEdge", db)
	v := db.MustAddVertex("late")
	checkForward(t, "after AddVertex", db)
	db.MustAddEdge(v, 1, 0)
	if got := db.Forward().Succ(v, 1); !slices.Equal(got, []int32{0}) {
		t.Fatalf("the new vertex's edge is missing from the layout: %v", got)
	}
	before := db.Forward()
	if _, err := db.DisjointUnion(randomTestDB(rng, a, 3, 6)); err != nil {
		t.Fatal(err)
	}
	if db.Forward() == before {
		t.Fatal("DisjointUnion kept the stale layout")
	}
	checkForward(t, "after DisjointUnion", db)
}

// TestForwardConcurrentFirstUse: any number of first users get one layout
// (run under -race).
func TestForwardConcurrentFirstUse(t *testing.T) {
	db := randomTestDB(rand.New(rand.NewSource(3)), alphabet.Lower(2), 50, 200)
	got := make([]*CSR, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = db.Forward()
		}(i)
	}
	wg.Wait()
	for i, c := range got {
		if c != got[0] {
			t.Fatalf("goroutine %d built a layout of its own", i)
		}
	}
	checkForward(t, "concurrent", db)
}

// TestRPQAgainstNaiveProperty walks the layout the way its consumers do —
// a product of an automaton with the database, successors read label by
// label through Succ — and holds the vertices reached to the brute-force
// path enumeration over Out: every vertex naiveReach certifies within its
// length bound is reached, and nothing is reached that plain reachability
// does not allow.
func TestRPQAgainstNaiveProperty(t *testing.T) {
	a := alphabet.Lower(2)
	exprs := []string{"a*", "ab", "(a|b)*a", "b+", "a?b?"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5)
		db := randomTestDB(rng, a, n, 2*n)
		nfa := rex.MustCompileString(a, exprs[rng.Intn(len(exprs))])
		src := rng.Intn(n)

		fwd, nQ := db.Forward(), nfa.NumStates()
		seen := make([]bool, n*nQ)
		got := make(map[int]bool)
		var queue []int
		for _, q := range nfa.StartStates() {
			seen[src*nQ+q] = true
			queue = append(queue, src*nQ+q)
		}
		for i := 0; i < len(queue); i++ {
			v, q := queue[i]/nQ, queue[i]%nQ
			if nfa.IsAccept(q) {
				got[v] = true
			}
			for s := 0; s < a.Size(); s++ {
				for _, q2 := range nfa.Successors(q, alphabet.Symbol(s)) {
					for _, to := range fwd.Succ(v, alphabet.Symbol(s)) {
						if id := int(to)*nQ + q2; !seen[id] {
							seen[id] = true
							queue = append(queue, id)
						}
					}
				}
			}
		}
		for v := range naiveReach(db, func(w alphabet.Word) bool { return nfa.Accepts(w) }, src, n+3) {
			if !got[v] {
				return false
			}
		}
		reachable := naiveReach(db, func(alphabet.Word) bool { return true }, src, n)
		for v := range got {
			if !reachable[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
