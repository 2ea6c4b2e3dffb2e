package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"ecrpq/internal/alphabet"
	"ecrpq/internal/cq"
	"ecrpq/internal/graphdb"
	"ecrpq/internal/query"
	"ecrpq/internal/synchro"
)

// patternInstance is one component whose endpoints may repeat variables:
// track k runs from vars[ends[2k]] to vars[ends[2k+1]].
type patternInstance struct {
	name string
	db   *graphdb.DB
	q    *query.Query
	p    *Prepared
}

// newPatternInstance builds the component of t = len(ends)/2 tracks over
// the endpoint variables ends names, chained by rels[k](p_k+1, p_k+2); a
// one-track component gets lang instead.
func newPatternInstance(tb testing.TB, name string, db *graphdb.DB, ends []int, rels []*synchro.Relation, lang string) patternInstance {
	tb.Helper()
	b := query.NewBuilder(db.Alphabet())
	for k := 0; k < len(ends)/2; k++ {
		b.Reach(fmt.Sprintf("v%d", ends[2*k]), fmt.Sprintf("p%d", k+1), fmt.Sprintf("v%d", ends[2*k+1]))
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
		tb.Fatalf("%s: Prepare: %v", name, err)
	}
	if len(p.merged) != 1 || len(p.merged[0].tracks) != len(ends)/2 {
		tb.Fatalf("%s: want one %d-track component, got %d components", name, len(ends)/2, len(p.merged))
	}
	return patternInstance{name: name, db: db, q: q, p: p}
}

// patternInstances: the named shapes — fan, 2-chain, self-loop, a
// repeated destination, a self-loop beside a fan — and random patterns of
// up to four tracks over fewer variables than endpoints, each over a few
// small random databases.
func patternInstances(tb testing.TB, rng *rand.Rand) []patternInstance {
	a := alphabet.Lower(2)
	rels := sweepRelations(tb, a)
	names := make([]string, 0, len(rels))
	for name := range rels {
		names = append(names, name)
	}
	slices.Sort(names)
	shapes := []struct {
		name string
		ends []int
	}{
		{"fan2", []int{0, 1, 0, 1}},
		{"fan3", []int{0, 1, 0, 1, 0, 1}},
		{"chain2", []int{0, 1, 1, 2}},
		{"chain3", []int{0, 1, 1, 2, 2, 3}},
		{"self-loop", []int{0, 0}},
		{"self-loop+track", []int{0, 0, 0, 1}},
		{"repeated-destination", []int{0, 2, 1, 2}},
		{"loop-back", []int{0, 1, 1, 0}},
		{"fan+loop", []int{0, 1, 0, 1, 1, 1}},
	}
	for i := 0; i < 10; i++ {
		t := 1 + rng.Intn(4)
		ends := make([]int, 2*t)
		for e := range ends {
			ends[e] = rng.Intn(1 + rng.Intn(2*t))
		}
		shapes = append(shapes, struct {
			name string
			ends []int
		}{fmt.Sprintf("random%v", ends), ends})
	}
	var out []patternInstance
	for _, sh := range shapes {
		t := len(sh.ends) / 2
		for _, v := range []int{2, 3, 5} {
			if t == 4 && v > 3 {
				continue
			}
			db := randomDB(rng, a, v, v+rng.Intn(2*v+1))
			var chain []*synchro.Relation
			for k := 0; k+1 < t; k++ {
				chain = append(chain, rels[names[rng.Intn(len(names))]])
			}
			lang := ""
			if t == 1 || rng.Intn(2) == 0 {
				lang = []string{"a(a|b)*", "(a|b)*b", "(ab)*"}[rng.Intn(3)]
			}
			out = append(out, newPatternInstance(tb, fmt.Sprintf("%s/V%d", sh.name, v), db, sh.ends, chain, lang))
		}
	}
	// V = 12: 144 sources, three lane words, so the equalities cut lanes
	// past the first word; V = 17: 289 sources, three traversals at two lane
	// words, so a later traversal cuts lanes past the first word too.
	for _, v := range []int{12, 17} {
		db := randomDB(rng, a, v, v+rng.Intn(v))
		out = append(out, newPatternInstance(tb, fmt.Sprintf("%s/V%d", shapes[2].name, v), db, shapes[2].ends, []*synchro.Relation{rels["eqlen"]}, "a(a|b)*"))
	}
	for _, sh := range shapes[7:8] {
		db := randomDB(rng, a, 12, 12+rng.Intn(12))
		out = append(out, newPatternInstance(tb, sh.name+"/V12", db, sh.ends, []*synchro.Relation{rels["hamming<=1"]}, ""))
	}
	return out
}

// filtered keeps the rows of the all-distinct sweep whose endpoints agree
// wherever the atom repeats a variable, in their order.
func filtered(rows []int32, ends []int) []int32 {
	var out []int32
next:
	for r := 0; r < len(rows); r += len(ends) {
		row := rows[r : r+len(ends)]
		for i := range ends {
			for j := i + 1; j < len(ends); j++ {
				if ends[i] == ends[j] && row[i] != row[j] {
					continue next
				}
			}
		}
		out = append(out, row...)
	}
	return out
}

// TestSweepPatternEqualsFiltered holds the sweep over the atom's own
// variables to the sweep over all V^t source tuples, filtered by the
// atom's equalities: row for row and in order, under every parallelism, at
// every lane cap, in both key regimes and under a state budget that splits
// batches. The
// materialised Evaluate and Answers of each instance are the brute-force
// semantics. The lazy reader of R', sweepSource.Scan, yields the same rows
// in the same order, and the streamed Answers are the materialised ones.
func TestSweepPatternEqualsFiltered(t *testing.T) {
	const bound = 3
	rng := rand.New(rand.NewSource(4043))
	ctx := context.Background()
	split := 0
	for _, in := range patternInstances(t, rng) {
		c := &in.p.merged[0]
		tr := len(c.tracks)
		all := *c
		all.pat = *distinctPattern(tr)
		full, err := sweepComponent(ctx, in.db, &all, Options{MaxProductStates: -1}, nil)
		if err != nil {
			t.Fatalf("%s: all-distinct sweep: %v", in.name, err)
		}
		want := filtered(full, c.ends)
		sweeps := func(regime string) {
			for _, words := range laneCaps {
				atLaneCap(words, func() {
					got, err := sweepComponent(ctx, in.db, c, Options{MaxProductStates: -1}, nil)
					if err != nil {
						t.Fatalf("%s %s words=%d: %v", in.name, regime, words, err)
					}
					if !slices.Equal(got, want) {
						t.Fatalf("%s %s words=%d: %d row values, the filtered sweep has %d (first difference at row %d)",
							in.name, regime, words, len(got), len(want), firstDiff(got, want)/(2*tr))
					}
				})
			}
		}
		sweeps("own regime")
		inWideRegime(func() { sweeps("forced wide") })

		// The lazy reader, sweepSource.Scan with nothing bound, yields the
		// same rows in the same order.
		var lazy []int32
		unbound := make([]int, 2*tr)
		for i := range unbound {
			unbound[i] = -1
		}
		err = in.p.sweep(ctx, in.db, nil, false, func(s *sweepSource, _ cq.ChargeFunc) error {
			return s.Scan("__comp0", unbound, func(row []int) bool {
				for _, v := range row {
					lazy = append(lazy, int32(v))
				}
				return true
			})
		})
		if err != nil || !slices.Equal(lazy, want) {
			t.Fatalf("%s: the unbound Scan yields %d row values (err %v), the filtered sweep has %d (first difference at row %d)",
				in.name, len(lazy), err, len(want), firstDiff(lazy, want)/(2*tr))
		}

		// The budget: the most states one source's search meets.
		n := in.db.NumVertices()
		sources := pow(n, len(c.pat.digits))
		k, err := newSweepKernel(packProduct(in.db, c), &c.pat, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		lanes := make([]int32, 64*tr)
		fits, batch := 1, 0
		for idx := 0; idx < sources; idx++ {
			decodeSource(&c.pat, idx, n, lanes[:tr])
			if err := k.Run(ctx, lanes, 0, 1, -1); err != nil {
				t.Fatal(err)
			}
			fits = max(fits, k.ids.count())
		}
		for i := 0; i < min(64, sources); i++ {
			decodeSource(&c.pat, i, n, lanes[i*tr:(i+1)*tr])
		}
		if err := k.Run(ctx, lanes, 0, min(64, sources), -1); err != nil {
			t.Fatal(err)
		}
		if batch = k.ids.count(); batch > fits {
			split++
		}
		k.release(true)
		got, err := sweepComponent(ctx, in.db, c, Options{MaxProductStates: fits}, nil)
		if err != nil || !slices.Equal(got, want) {
			t.Fatalf("%s: budget %d fits every source (a batch meets %d) but the sweep gave %d row values, %v",
				in.name, fits, batch, len(got), err)
		}
		if fits > 1 {
			if _, err := sweepComponent(ctx, in.db, c, Options{MaxProductStates: fits - 1}, nil); err == nil || !strings.Contains(err.Error(), "state budget") {
				t.Fatalf("%s budget %d: err = %v, want the state budget error", in.name, fits-1, err)
			}
		}

		res, err := Evaluate(in.db, in.q, Options{Strategy: Reduction})
		if err != nil {
			t.Fatalf("%s: Evaluate: %v", in.name, err)
		}
		naive, err := NaiveBounded(in.db, in.q, bound)
		if err != nil {
			t.Fatal(err)
		}
		if naive.Sat && !res.Sat {
			t.Fatalf("%s: NaiveBounded finds a witness, the reduction none", in.name)
		}
		if res.Sat {
			if err := VerifyWitness(in.db, in.q, res); err != nil {
				t.Fatalf("%s: %v", in.name, err)
			}
		}
		vars := in.q.NodeVars()
		if pow(n, len(vars)) > 250 {
			continue
		}
		fq := *in.q
		fq.Free = vars
		fp, err := Prepare(&fq, Options{Strategy: Reduction})
		if err != nil {
			t.Fatal(err)
		}
		mat, err := fp.Materialize(ctx, in.db)
		if err != nil {
			t.Fatal(err)
		}
		ans, err := fp.Answers(ctx, in.db, mat)
		if err != nil {
			t.Fatalf("%s: Answers: %v", in.name, err)
		}
		checkAgainstNaive(t, in.name, in.db, &fq, ans, bound)
		if lazy, err := fp.Answers(ctx, in.db, nil); err != nil || !slices.EqualFunc(lazy, ans, slices.Equal[[]int]) {
			t.Fatalf("%s: Answers without the materialisation = %v, %v; with it %v", in.name, lazy, err, ans)
		}
	}
	if split == 0 {
		t.Fatal("no instance has a batch that meets more states than its largest source: the budget never splits")
	}
}
