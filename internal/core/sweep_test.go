package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"ecrpq/internal/alphabet"
	"ecrpq/internal/cq"
	"ecrpq/internal/govern"
	"ecrpq/internal/graphdb"
	"ecrpq/internal/query"
	"ecrpq/internal/synchro"
)

// sweepRelations are the binary relations the differential test draws
// component atoms from.
func sweepRelations(t testing.TB, a *alphabet.Alphabet) map[string]*synchro.Relation {
	t.Helper()
	edit, err := synchro.EditDistanceAtMost(a, 1)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*synchro.Relation{
		"eq":         synchro.Equality(a, 2),
		"eqlen":      synchro.EqualLength(a, 2),
		"prefix":     synchro.PrefixOf(a),
		"hamming<=1": synchro.HammingAtMost(a, 1),
		"edit<=1":    edit,
	}
}

// sweepInstance is one merged component over a database, with the query it
// came from (every track has its own endpoint variables, so a row of R' is
// exactly one assignment of the query's node variables).
type sweepInstance struct {
	name   string
	db     *graphdb.DB
	q      *query.Query
	merged *component
}

// newSweepInstance builds a t-track component: t = 1 is a lone language
// atom, t ≥ 2 chains rels[i](p_i, p_i+1); lang additionally constrains p1.
func newSweepInstance(t testing.TB, name string, db *graphdb.DB, tracks int, rels []*synchro.Relation, lang string) sweepInstance {
	t.Helper()
	b := query.NewBuilder(db.Alphabet())
	for k := 1; k <= tracks; k++ {
		b.Reach(fmt.Sprintf("u%d", k), fmt.Sprintf("p%d", k), fmt.Sprintf("v%d", k))
	}
	for k, r := range rels {
		b.Rel(r, fmt.Sprintf("p%d", k+1), fmt.Sprintf("p%d", k+2))
	}
	if lang != "" {
		b.Lang("p1", lang)
	}
	q := b.MustBuild()
	p, err := Prepare(q, Options{Strategy: Reduction})
	if err != nil {
		t.Fatalf("%s: Prepare: %v", name, err)
	}
	if len(p.merged) != 1 || len(p.merged[0].tracks) != tracks {
		t.Fatalf("%s: want one %d-track component, got %d components", name, tracks, len(p.merged))
	}
	return sweepInstance{name: name, db: db, q: q, merged: &p.merged[0]}
}

func (in sweepInstance) sweep(ctx context.Context, opts Options) ([]int32, error) {
	return sweepComponent(ctx, in.db, in.merged, opts)
}

// distinctPattern is the pattern of a t-track atom whose 2t endpoints are
// distinct variables: its sources are every t-tuple, track 0 fastest.
func distinctPattern(t int) *atomPattern {
	ends := make([]int, 0, 2*t)
	for k := 0; k < t; k++ {
		ends = append(ends, k, t+k)
	}
	p := newAtomPattern(ends)
	return &p
}

// inWideRegime runs f with every product shape it builds forced into the
// wide regime, whatever its width.
func inWideRegime(f func()) {
	old := packedBits
	packedBits = 0
	defer func() { packedBits = old }()
	f()
}

// comboOverflowLangs adds seven language atoms of ≥ 24 states each over p1
// and p2: 24^7 > 2^30 combinations of their states, of which the Lemma 4.1
// merge keeps the few the automata reach in lockstep. The tests force its
// product into the wide regime through packedBits.
func comboOverflowLangs(b *query.Builder, p1, p2 string) *query.Builder {
	for k := 0; k < 7; k++ {
		b.Lang([]string{p1, p2}[k%2], strings.Repeat("(a|b)", 24+k)+"*")
	}
	return b
}

// reference concatenates per-source componentReachSet results in sweep
// order: the rows the per-source loop of the previous sweep produced.
func (in sweepInstance) reference(t testing.TB, maxStates int) ([]int32, error) {
	t.Helper()
	tr, n := len(in.merged.tracks), in.db.NumVertices()
	fp := newFastProduct(in.db, in.merged)
	total := pow(n, tr)
	srcs := make([]int, tr)
	var rows []int32
	var dsts []int
	for idx := 0; idx < total; idx++ {
		decodeSource(distinctPattern(tr), idx, n, srcs)
		var err error
		if dsts, err = componentReachSet(context.Background(), fp, srcs, maxStates, dsts[:0]); err != nil {
			return nil, err
		}
		for d := 0; d < len(dsts); d += tr {
			for k := 0; k < tr; k++ {
				rows = append(rows, int32(srcs[k]), int32(dsts[d+k]))
			}
		}
	}
	return rows, nil
}

// sweepInstances enumerates the differential matrix: V ∈ 1…9 × t ∈ {1,2}
// and V ∈ {1…5, 8} × t = 3 (the per-source reference is what costs) × the
// five relations × with and without a language atom, so V^t lands below 64
// (most), on it (8², 4³), on a multiple (8³) and off one (9², 5³); and, as
// far as V^t permits, a 17-track eq chain (V = 1: at V = 2 its 2^17
// per-source searches take a minute) and the merge of eight automata
// (V ≤ 4); every instance is swept again forced into the wide regime.
func sweepInstances(t testing.TB, rng *rand.Rand) []sweepInstance {
	a := alphabet.Lower(2)
	rels := sweepRelations(t, a)
	names := make([]string, 0, len(rels))
	for name := range rels {
		names = append(names, name)
	}
	slices.Sort(names)
	var out []sweepInstance
	for v := 1; v <= 9; v++ {
		db := randomDB(rng, a, v, v+rng.Intn(2*v+1))
		for _, lang := range []string{"a(a|b)*", "(a|b)*b"} {
			out = append(out, newSweepInstance(t, fmt.Sprintf("V%d/t1/lang=%s", v, lang), db, 1, nil, lang))
		}
		for _, lang := range []string{"", "a(a|b)*"} {
			for _, name := range names {
				out = append(out, newSweepInstance(t, fmt.Sprintf("V%d/t2/%s/lang=%s", v, name, lang),
					db, 2, []*synchro.Relation{rels[name]}, lang))
			}
			if v > 5 && v != 8 {
				continue
			}
			// Three tracks: two relations drawn per instance.
			r1, r2 := names[rng.Intn(len(names))], names[rng.Intn(len(names))]
			out = append(out, newSweepInstance(t, fmt.Sprintf("V%d/t3/%s+%s/lang=%s", v, r1, r2, lang),
				db, 3, []*synchro.Relation{rels[r1], rels[r2]}, lang))
		}
		if v == 1 {
			chain := make([]*synchro.Relation, 16)
			for k := range chain {
				chain[k] = rels["eq"]
			}
			out = append(out, newSweepInstance(t, fmt.Sprintf("V%d/t17/eq", v), db, 17, chain, ""))
		}
		if v <= 4 {
			q := comboOverflowLangs(query.NewBuilder(a).Reach("u1", "p1", "v1").Reach("u2", "p2", "v2").
				Rel(rels["eqlen"], "p1", "p2"), "p1", "p2").MustBuild()
			comps := mergedComponents(t, q)
			if len(comps) != 1 {
				t.Fatalf("V%d/t2/combo-overflow: %d components", v, len(comps))
			}
			out = append(out, sweepInstance{name: fmt.Sprintf("V%d/t2/combo-overflow", v), db: db, q: q, merged: &comps[0]})
		}
	}
	return out
}

// TestSweepKernelDifferential holds the batched sweep to the per-source
// loop it replaced, row for row and in order, under every parallelism and
// in both key regimes (every instance is swept again forced wide, against
// the rows its own regime gave); and the bulk-loaded relation's Contains to
// plain membership.
func TestSweepKernelDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(20220612))
	ctx := context.Background()
	for _, in := range sweepInstances(t, rng) {
		tr, n := len(in.merged.tracks), in.db.NumVertices()
		want, err := in.reference(t, 0)
		if err != nil {
			t.Fatalf("%s: reference: %v", in.name, err)
		}
		sweeps := func(regime string) {
			for _, par := range []int{0, 2, 5} {
				got, err := in.sweep(ctx, Options{Parallelism: par, MaxProductStates: -1})
				if err != nil {
					t.Fatalf("%s %s par=%d: %v", in.name, regime, par, err)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%s %s par=%d: %d row values, reference has %d (first difference at row %d)",
						in.name, regime, par, len(got), len(want), firstDiff(got, want)/(2*tr))
				}
			}
		}
		sweeps("own regime")
		inWideRegime(func() {
			sweeps("forced wide")
			if got, err := in.reference(t, 0); err != nil || !slices.Equal(got, want) {
				t.Fatalf("%s: the per-source loop forced wide differs from its own regime's rows (err %v)", in.name, err)
			}
		})

		st := cq.NewStructure(n)
		if err := st.LoadSorted("r", 2*tr, want, sweepColumnOrder(tr)); err != nil {
			t.Fatalf("%s: LoadSorted: %v", in.name, err)
		}
		member := make(map[string]bool)
		probe := make([]int, 2*tr)
		for i, r := 0, st.Relation("r"); i < r.Len(); i++ {
			row := r.Row(i)
			for k, v := range row {
				probe[k] = int(v)
			}
			member[fmt.Sprint(row)] = true
			if !st.Contains("r", probe...) {
				t.Fatalf("%s: Contains misses row %v", in.name, row)
			}
		}
		for i := 0; i < 1000; i++ {
			for k := range probe {
				probe[k] = rng.Intn(n)
			}
			if got := st.Contains("r", probe...); got != member[fmt.Sprint(probe)] {
				t.Fatalf("%s: Contains(%v) = %v, membership says %v", in.name, probe, got, !got)
			}
		}
	}
}

func firstDiff(a, b []int32) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// TestSweepKernelAgainstNaive compares the swept relation, as a set, with
// the brute-force semantics on instances small enough to enumerate: every
// candidate row NaiveBounded admits is in R', and every row of R' has a
// witness VerifyWitness accepts — which NaiveBounded may only have missed
// because a witness path is longer than its bound.
func TestSweepKernelAgainstNaive(t *testing.T) {
	const bound = 4
	rng := rand.New(rand.NewSource(43))
	a := alphabet.Lower(2)
	rels := sweepRelations(t, a)
	ctx := context.Background()
	for trial := 0; trial < 6; trial++ {
		n := 1 + trial%3
		db := randomDB(rng, a, n, n+rng.Intn(2*n+1))
		var ins []sweepInstance
		ins = append(ins, newSweepInstance(t, "t1", db, 1, nil, "a(a|b)*"))
		for name, r := range rels {
			ins = append(ins, newSweepInstance(t, "t2/"+name, db, 2, []*synchro.Relation{r}, []string{"", "a(a|b)*"}[trial%2]))
		}
		if n <= 2 {
			ins = append(ins, newSweepInstance(t, "t3", db, 3, []*synchro.Relation{rels["eqlen"], rels["hamming<=1"]}, ""))
		}
		for _, in := range ins {
			tr := len(in.merged.tracks)
			rows, err := in.sweep(ctx, Options{Parallelism: 2})
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, in.name, err)
			}
			inRel := make(map[string]bool)
			for r := 0; r < len(rows); r += 2 * tr {
				inRel[fmt.Sprint(rows[r:r+2*tr])] = true
			}
			row := make([]int, 2*tr)
			pinned := make(map[string]int, 2*tr)
			for idx := 0; idx < pow(n, 2*tr); idx++ {
				decodeSource(distinctPattern(2*tr), idx, n, row)
				for k := 0; k < tr; k++ {
					pinned[fmt.Sprintf("u%d", k+1)] = row[2*k]
					pinned[fmt.Sprintf("v%d", k+1)] = row[2*k+1]
				}
				naive, err := naiveBounded(in.db, in.q, pinned, bound)
				if err != nil {
					t.Fatal(err)
				}
				if naive.Sat && !inRel[fmt.Sprint(row)] {
					t.Fatalf("trial %d %s: NaiveBounded admits row %v, the sweep does not have it", trial, in.name, row)
				}
				if !inRel[fmt.Sprint(row)] {
					continue
				}
				srcs, dsts := make([]int, tr), make([]int, tr)
				res := &Result{Sat: true, Nodes: map[string]int{}, Paths: map[string]graphdb.Path{}}
				for k := 0; k < tr; k++ {
					srcs[k], dsts[k] = row[2*k], row[2*k+1]
				}
				for v, d := range pinned {
					res.Nodes[v] = d
				}
				paths, ok, err := checkComponent(ctx, in.db, in.merged, srcs, dsts, 0)
				if err != nil || !ok {
					t.Fatalf("trial %d %s: swept row %v has no witness (err %v)", trial, in.name, row, err)
				}
				long := false
				for k, p := range paths {
					res.Paths[fmt.Sprintf("p%d", k+1)] = p
					long = long || p.Len() > bound
				}
				if err := VerifyWitness(in.db, in.q, res); err != nil {
					t.Fatalf("trial %d %s: swept row %v: %v", trial, in.name, row, err)
				}
				if !naive.Sat && !long {
					t.Fatalf("trial %d %s: row %v has a witness within the bound that NaiveBounded missed", trial, in.name, row)
				}
			}
		}
	}
}

func pow(n, e int) int {
	out := 1
	for i := 0; i < e; i++ {
		out *= n
	}
	return out
}

// TestSweepKernelMapTable forces the hashed regime of the word table (a
// packed state wider than denseTableBits, indexed through the rank table it
// shares with the key sets) and holds it to the per-source reference.
func TestSweepKernelMapTable(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := alphabet.Lower(2)
	const n = 260
	db := randomDB(rng, a, n, n)
	in := newSweepInstance(t, "V260/hamming<=1", db, 2, []*synchro.Relation{synchro.HammingAtMost(a, 1)}, "a(a|b)*")
	f := packProduct(db, in.merged)
	if f.wide || f.bits <= denseTableBits {
		t.Fatalf("instance packs into %d bits: it does not reach the map regime", f.bits)
	}
	if k, err := newSweepKernel(f, nil); err != nil || k.states.index == nil {
		t.Fatalf("state table is dense for a %d-bit state (err %v)", f.bits, err)
	}
	want, err := in.reference(t, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{0, 2} {
		got, err := in.sweep(context.Background(), Options{Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("par=%d: map-regime sweep differs from the reference at row %d", par, firstDiff(got, want)/4)
		}
	}
}

// TestSweepKernelBudget: the state budget is per source, as it was for the
// per-source loop. The smallest budget under which every single-source
// search fits must still sweep (batches that overflow it are split), with
// the same rows; a budget below that is the budget error and never a short
// relation.
func TestSweepKernelBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := alphabet.Lower(2)
	db := randomDB(rng, a, 9, 27)
	in := newSweepInstance(t, "V9/eqlen", db, 2, []*synchro.Relation{synchro.EqualLength(a, 2)}, "")
	want, err := in.reference(t, 0)
	if err != nil {
		t.Fatal(err)
	}
	fits := 1
	for ; ; fits++ {
		if _, err := in.reference(t, fits); err == nil {
			break
		}
	}
	if fits < 8 {
		t.Fatalf("instance too small to exercise splitting: every source fits in %d states", fits)
	}
	for _, par := range []int{0, 2} {
		got, err := in.sweep(context.Background(), Options{MaxProductStates: fits, Parallelism: par})
		if err != nil {
			t.Fatalf("par=%d: budget %d fits every source but the sweep failed: %v", par, fits, err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("par=%d: split batches changed the relation", par)
		}
		for _, budget := range []int{1, fits - 1} {
			got, err := in.sweep(context.Background(), Options{MaxProductStates: budget, Parallelism: par})
			if err == nil || !strings.Contains(err.Error(), "state budget") {
				t.Fatalf("par=%d budget %d: err = %v, want the state budget error", par, budget, err)
			}
			if got != nil {
				t.Fatalf("par=%d budget %d: %d row values returned beside the error", par, budget, len(got))
			}
		}
	}
}

// countdownCtx reports cancellation from its n-th Err poll on, so a test
// can cancel a sweep at an exact point without timing.
type countdownCtx struct {
	context.Context
	left atomic.Int64
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestSweepKernelCancelReleases: a sweep cancelled at any poll returns
// ctx.Err() and leaves nothing charged; one that completes keeps exactly
// its rows charged — in both key regimes.
func TestSweepKernelCancelReleases(t *testing.T) {
	t.Run("narrow", sweepCancelReleases)
	t.Run("wide", func(t *testing.T) { inWideRegime(func() { sweepCancelReleases(t) }) })
}

func sweepCancelReleases(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := alphabet.Lower(2)
	db := randomDB(rng, a, 12, 36)
	in := newSweepInstance(t, "V12/hamming<=1", db, 2, []*synchro.Relation{synchro.HammingAtMost(a, 1)}, "")
	broker := govern.NewBroker(1 << 30)
	for _, par := range []int{0, 2} {
		polls := 0
		for ; ; polls++ {
			res, err := broker.Reserve(0)
			if err != nil {
				t.Fatal(err)
			}
			ctx := &countdownCtx{Context: govern.NewContext(context.Background(), res)}
			ctx.left.Store(int64(polls))
			rows, err := in.sweep(ctx, Options{Parallelism: par})
			used := res.Used()
			res.Release()
			if err == nil {
				if want := int64(4 * len(rows)); used != want {
					t.Fatalf("par=%d: completed sweep leaves %d bytes charged, want %d: the size of its %d-value array", par, used, want, len(rows))
				}
				break
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("par=%d cancelled at poll %d: err = %v, want context.Canceled", par, polls, err)
			}
			if rows != nil || used != 0 {
				t.Fatalf("par=%d cancelled at poll %d: %d row values returned, %d bytes still charged", par, polls, len(rows), used)
			}
		}
		if polls < 3 {
			t.Fatalf("par=%d: sweep polled the context only %d times", par, polls)
		}
	}
	if got := broker.Reserved(); got != 0 {
		t.Fatalf("broker holds %d bytes after every reservation was released", got)
	}
}

// sweepCases are the Lemma 4.3 layer's operations: sweep one component
// over V = 18 and bulk-load the rows, at the default parallelism. The
// shapes: chain2, the cold-sweep heavy op's (x0 → x1 → x2: V² sources, and
// R' keeps the rows whose first destination is the second source); split2,
// two tracks with four distinct endpoints (V² sources, every row); fan3,
// three tracks out of one x (V sources instead of V³, every row). Each op
// returns the rows it loaded.
func sweepCases(tb testing.TB) []layerOp {
	a := alphabet.Lower(2)
	db := randomDB(rand.New(rand.NewSource(18)), a, 18, 54)
	eqlen, hamming1 := synchro.EqualLength(a, 2), synchro.HammingAtMost(a, 1)
	var cases []layerOp
	for _, bc := range []struct {
		name string
		q    *query.Query
	}{
		{"chain2-eqlen", query.NewBuilder(a).Reach("x0", "p1", "x1").Reach("x1", "p2", "x2").Rel(eqlen, "p1", "p2").MustBuild()},
		{"chain2-hamming1", query.NewBuilder(a).Reach("x0", "p1", "x1").Reach("x1", "p2", "x2").Rel(hamming1, "p1", "p2").MustBuild()},
		{"split2-eqlen", query.NewBuilder(a).Reach("x1", "p1", "y1").Reach("x2", "p2", "y2").Rel(eqlen, "p1", "p2").MustBuild()},
		{"fan3-eqlen", query.NewBuilder(a).Reach("x", "p1", "y1").Reach("x", "p2", "y2").Reach("x", "p3", "y3").
			Rel(synchro.EqualLength(a, 3), "p1", "p2", "p3").MustBuild()},
	} {
		p, err := Prepare(bc.q, Options{Strategy: Reduction})
		if err != nil {
			tb.Fatal(err)
		}
		t := len(p.merged[0].tracks)
		cases = append(cases, layerOp{bc.name, func(tb testing.TB) int {
			flat, err := sweepComponent(context.Background(), db, &p.merged[0], p.opts)
			if err != nil {
				tb.Fatal(err)
			}
			st := cq.NewStructure(db.NumVertices())
			if err := st.LoadSorted("r", 2*t, flat, sweepColumnOrder(t)); err != nil {
				tb.Fatal(err)
			}
			return st.Relation("r").Len()
		}})
	}
	return cases
}

// BenchmarkSweepComponent is the Lemma 4.3 layer benchmark over sweepCases;
// TestCeilings holds its bytes and allocations per row.
func BenchmarkSweepComponent(b *testing.B) {
	for _, sc := range sweepCases(b) {
		b.Run(sc.name, func(b *testing.B) {
			b.ReportAllocs()
			rows := 0
			for i := 0; i < b.N; i++ {
				rows = sc.op(b)
			}
			b.ReportMetric(float64(rows), "rows/op")
		})
	}
}
