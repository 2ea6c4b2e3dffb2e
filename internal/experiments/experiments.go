// Package experiments implements the reproduction experiment suite: one
// experiment per case of the characterization theorems (Theorems 3.1 and
// 3.2) and per lemma-level construction, as indexed in DESIGN.md. The paper
// is a theory paper without measured tables, so each experiment
// demonstrates the predicted complexity regime empirically: which parameter
// drives growth, and whether growth is polynomial or exponential.
//
// All experiments are deterministic (fixed seeds) and sized to finish in
// seconds.
package experiments

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"ecrpq/internal/alphabet"
	"ecrpq/internal/core"
	"ecrpq/internal/cq"
	"ecrpq/internal/graphdb"
	"ecrpq/internal/invariant"
	"ecrpq/internal/query"
	"ecrpq/internal/reductions"
	"ecrpq/internal/synchro"
	"ecrpq/internal/trace"
	"ecrpq/internal/twolevel"
	"ecrpq/internal/workload"
)

// Table is one experiment's result: a titled grid of rows.
type Table struct {
	ID      string
	Title   string
	Claim   string // the paper result being demonstrated
	Headers []string
	Rows    [][]string
	Notes   []string
}

// Markdown renders the table as GitHub-flavoured markdown.
func (t *Table) Markdown() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "### %s — %s\n\n", t.ID, t.Title)
	fmt.Fprintf(&sb, "*Paper claim:* %s\n\n", t.Claim)
	sb.WriteString("| " + strings.Join(t.Headers, " | ") + " |\n")
	sb.WriteString("|" + strings.Repeat("---|", len(t.Headers)) + "\n")
	for _, r := range t.Rows {
		sb.WriteString("| " + strings.Join(r, " | ") + " |\n")
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "\n%s\n", n)
	}
	sb.WriteString("\n")
	return sb.String()
}

// timeIt measures fn's wall-clock time.
func timeIt(fn func()) time.Duration {
	start := time.Now()
	fn()
	return time.Since(start)
}

func ms(d time.Duration) string {
	return fmt.Sprintf("%.3f", float64(d.Microseconds())/1000.0)
}

// slope fits log(y) against log(x) by least squares (the growth exponent).
func slope(xs, ys []float64) float64 {
	var sx, sy, sxx, sxy float64
	n := float64(len(xs))
	for i := range xs {
		lx, ly := math.Log(xs[i]), math.Log(math.Max(ys[i], 1e-9))
		sx += lx
		sy += ly
		sxx += lx * lx
		sxy += lx * ly
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0
	}
	return (n*sxy - sx*sy) / den
}

func mustEval(db *graphdb.DB, q *query.Query, opts core.Options) *core.Result {
	res, err := core.Evaluate(db, q, opts)
	invariant.NoError(err, "experiments: evaluation failed")
	return res
}

// E1 — Theorem 3.2(3): bounded cc_vertex, cc_hedge, treewidth ⇒ polynomial
// time. Fixed pair-chain query family, database-size sweep; the fitted
// growth exponent should be a small constant.
func E1(seed int64) *Table {
	a := alphabet.Lower(2)
	q := workload.PairChainQuery(a, 4)
	m := twolevel.QueryMeasures(q)
	t := &Table{
		ID:      "E1",
		Title:   "Tractable regime: bounded measures, database sweep",
		Claim:   "Thm 3.2(3): cc_vertex, cc_hedge, tw all bounded ⇒ eval in PTIME",
		Headers: []string{"|V|", "|E|", "sat", "time (ms)", "CQ tuples"},
	}
	var xs, ys []float64
	for _, n := range []int{8, 12, 18, 27, 40} {
		rng := rand.New(rand.NewSource(seed))
		db := workload.RandomDB(rng, a, n, 3*n)
		var res *core.Result
		d := timeIt(func() { res = mustEval(db, q, core.Options{Strategy: core.Reduction}) })
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n), fmt.Sprint(db.NumEdges()), fmt.Sprint(res.Sat), ms(d), fmt.Sprint(res.Stats.CQTuples),
		})
		xs = append(xs, float64(n))
		ys = append(ys, float64(d.Microseconds()))
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"Query: pair-chain, k=4 path variables; measures cc_vertex=%d cc_hedge=%d tw≤%d. Fitted time exponent in |V|: **%.2f** (expected ≈ 3, the three variables of each pair's atom x_i → x_i+1 → x_i+2, which R' ranges over; ≤ 2·cc_vertex = 4; polynomial, as predicted).",
		m.CCVertex, m.CCHedge, m.TreewidthUpper, slope(xs, ys)))
	return t
}

// E1b — same regime, query-size sweep at fixed database: still polynomial.
func E1b(seed int64) *Table {
	a := alphabet.Lower(2)
	rng := rand.New(rand.NewSource(seed))
	db := workload.RandomDB(rng, a, 18, 54)
	t := &Table{
		ID:      "E1b",
		Title:   "Tractable regime: bounded measures, query-size sweep",
		Claim:   "Thm 3.2(3): combined complexity is polynomial (query and data)",
		Headers: []string{"k (path vars)", "sat", "time (ms)"},
	}
	var xs, ys []float64
	for _, k := range []int{2, 4, 8, 12} {
		q := workload.PairChainQuery(a, k)
		var res *core.Result
		d := timeIt(func() { res = mustEval(db, q, core.Options{Strategy: core.Reduction}) })
		t.Rows = append(t.Rows, []string{fmt.Sprint(k), fmt.Sprint(res.Sat), ms(d)})
		xs = append(xs, float64(k))
		ys = append(ys, float64(d.Microseconds()))
	}
	t.Notes = append(t.Notes, fmt.Sprintf("Fitted time exponent in k: **%.2f** (polynomial).", slope(xs, ys)))
	return t
}

// E2 — Theorem 3.2(2): bounded cc, unbounded treewidth ⇒ NP (not PTIME).
// Clique-query family: polynomial in the database, super-polynomial in the
// clique size k (treewidth k−1).
func E2(seed int64) *Table {
	a := alphabet.Lower(2)
	t := &Table{
		ID:      "E2",
		Title:   "NP regime: clique queries (unbounded treewidth)",
		Claim:   "Thm 3.2(2): bounded cc, unbounded tw ⇒ eval in NP, not PTIME (unless W[1]=FPT)",
		Headers: []string{"k (clique)", "tw(query)", "|V|", "sat", "time (ms)"},
	}
	n := 16
	for _, k := range []int{2, 3, 4, 5} {
		rng := rand.New(rand.NewSource(seed))
		db := buildCliqueDB(rng, a, n, k)
		q := workload.CliqueQuery(a, k)
		m := twolevel.QueryMeasures(q)
		var res *core.Result
		d := timeIt(func() { res = mustEval(db, q, core.Options{Strategy: core.Reduction}) })
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(k), fmt.Sprint(m.TreewidthUpper), fmt.Sprint(n), fmt.Sprint(res.Sat), ms(d),
		})
	}
	t.Notes = append(t.Notes,
		"Growth is driven by query treewidth k−1 (the CQ DP is |V|^{O(tw)}), matching the NP lower bound family of Thm 3.2(2); data growth at fixed k stays polynomial (see E4).")
	return t
}

// buildCliqueDB builds a random graph over symbol 0 with a planted k-clique
// (including self-loops not required; clique edges in both directions).
func buildCliqueDB(rng *rand.Rand, a *alphabet.Alphabet, n, k int) *graphdb.DB {
	db := graphdb.New(a)
	for i := 0; i < n; i++ {
		db.MustAddVertex("")
	}
	for i := 0; i < n; i++ {
		db.MustAddEdge(rng.Intn(n), 0, rng.Intn(n))
	}
	verts := rng.Perm(n)[:k]
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			if i != j {
				db.MustAddEdge(verts[i], 0, verts[j])
			}
		}
	}
	return db
}

// E3 — Theorem 3.2(1): unbounded cc ⇒ PSPACE. Lemma 5.1 case-1 instances:
// the product-state count explored by the generic evaluator grows
// exponentially with the number of languages (component size).
func E3(seed int64) *Table {
	a := alphabet.Lower(2)
	t := &Table{
		ID:      "E3",
		Title:   "PSPACE regime: one big component (INE instances)",
		Claim:   "Thm 3.2(1) via Lemma 5.1: unbounded cc_vertex ⇒ PSPACE-complete",
		Headers: []string{"n (languages)", "cc_vertex", "sat", "time (ms)", "merged NFA states"},
	}
	for _, n := range []int{2, 3, 4, 5, 6} {
		rng := rand.New(rand.NewSource(seed))
		in := workload.PlantedINE(rng, a, n, 3, true)
		db, q, err := reductions.BigHyperedge(in)
		invariant.NoError(err, "experiments: E3 BigHyperedge reduction")
		m := twolevel.QueryMeasures(q)
		var res *core.Result
		d := timeIt(func() {
			res = mustEval(db, q, core.Options{Strategy: core.Generic})
		})
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n), fmt.Sprint(m.CCVertex), fmt.Sprint(res.Sat), ms(d),
			fmt.Sprint(res.Stats.MergedStatesTotal),
		})
	}
	t.Notes = append(t.Notes,
		"cc_vertex equals the number of intersected languages; the component product (and hence time) grows exponentially in it — the PSPACE-hardness source (regular-language intersection non-emptiness).")
	return t
}

// E4 — Theorem 3.1(3): FPT. At each fixed query size, the database-size
// growth exponent is (the same) small constant — time f(k)·|D|^c.
func E4(seed int64) *Table {
	a := alphabet.Lower(2)
	t := &Table{
		ID:      "E4",
		Title:   "FPT regime: data exponent independent of query size",
		Claim:   "Thm 3.1(3): cc_vertex and tw bounded ⇒ p-eval is FPT (time f(k)·|D|^c)",
		Headers: []string{"k", "fitted |V| exponent"},
	}
	for _, k := range []int{2, 4, 6} {
		q := workload.PairChainQuery(a, k)
		var xs, ys []float64
		for _, n := range []int{8, 12, 18, 27} {
			rng := rand.New(rand.NewSource(seed))
			db := workload.RandomDB(rng, a, n, 3*n)
			d := timeIt(func() { mustEval(db, q, core.Options{Strategy: core.Reduction}) })
			xs = append(xs, float64(n))
			ys = append(ys, float64(d.Microseconds()))
		}
		t.Rows = append(t.Rows, []string{fmt.Sprint(k), fmt.Sprintf("%.2f", slope(xs, ys))})
	}
	t.Notes = append(t.Notes,
		"The data exponent c stays (roughly) constant as k grows — the defining property of fixed-parameter tractability.")
	return t
}

// E5 — Theorem 3.1(2): W[1]. For clique queries the data exponent grows
// with k (the hallmark of W[1]-hardness: no f(k)·|D|^c algorithm expected).
func E5(seed int64) *Table {
	a := alphabet.Lower(2)
	t := &Table{
		ID:      "E5",
		Title:   "W[1] regime: data exponent grows with the parameter",
		Claim:   "Thm 3.1(2): bounded cc, unbounded tw ⇒ p-eval is W[1]-complete",
		Headers: []string{"k (clique)", "fitted |V| exponent"},
	}
	for _, k := range []int{2, 3, 4, 5} {
		q := workload.CliqueQuery(a, k)
		var xs, ys []float64
		for _, n := range []int{8, 12, 18, 26} {
			rng := rand.New(rand.NewSource(seed))
			db := buildCliqueDB(rng, a, n, k)
			d := timeIt(func() { mustEval(db, q, core.Options{Strategy: core.Reduction}) })
			xs = append(xs, float64(n))
			ys = append(ys, float64(d.Microseconds()))
		}
		t.Rows = append(t.Rows, []string{fmt.Sprint(k), fmt.Sprintf("%.2f", slope(xs, ys))})
	}
	t.Notes = append(t.Notes,
		"Contrast with E4: here the |V| exponent climbs with k (clique queries have treewidth k−1), separating W[1] from FPT empirically.")
	return t
}

// E6 — Theorem 3.1(1): XNL. Lemma 5.4(a)'s long-chain instances:
// parameterized intersection non-emptiness, time exponential in the number
// of automata even with tiny automata.
func E6(seed int64) *Table {
	a := alphabet.Lower(2)
	t := &Table{
		ID:      "E6",
		Title:   "XNL regime: chain-encoded p-IE",
		Claim:   "Thm 3.1(1) via Lemma 5.4(a): unbounded cc_vertex ⇒ p-eval is XNL-complete",
		Headers: []string{"k (DFAs)", "sat", "ECRPQ time (ms)", "direct product time (ms)"},
	}
	for _, k := range []int{2, 4, 6, 8} {
		rng := rand.New(rand.NewSource(seed))
		in := workload.PlantedINE(rng, a, k, 4, true)
		db, q, err := reductions.Chain(in)
		invariant.NoError(err, "experiments: E6 Chain reduction")
		var res *core.Result
		d := timeIt(func() { res = mustEval(db, q, core.Options{Strategy: core.Generic}) })
		var direct time.Duration
		var ok bool
		direct = timeIt(func() { _, ok = in.Solve() })
		invariant.Assert(ok == res.Sat, "experiments: E6 reduction disagrees with direct INE")
		t.Rows = append(t.Rows, []string{fmt.Sprint(k), fmt.Sprint(res.Sat), ms(d), ms(direct)})
	}
	t.Notes = append(t.Notes,
		"Both routes are exponential in k (as XNL-completeness predicts: p-IE is the canonical complete problem); the ECRPQ route tracks the direct automaton product within a polynomial factor.")
	return t
}

// E7 — Lemma 4.1: the merged component relation's NFA is the product of its
// members; states multiply with component size.
func E7() *Table {
	a := alphabet.Lower(2)
	t := &Table{
		ID:      "E7",
		Title:   "Lemma 4.1 merge: product-state growth",
		Claim:   "Lemma 4.1: component merge builds the product NFA (states multiply; PSPACE in general, PTIME for fixed cc)",
		Headers: []string{"ℓ (relations in component)", "member states", "merged states", "merged transitions"},
	}
	h := synchro.HammingAtMost(a, 2) // 3 states each
	for _, l := range []int{1, 2, 3, 4, 5} {
		rels := make([]*synchro.Relation, l)
		vars := make([][]int, l)
		for i := 0; i < l; i++ {
			rels[i] = h
			vars[i] = []int{i, i + 1}
		}
		j, err := synchro.Join(a, l+1, rels, vars)
		invariant.NoError(err, "experiments: consistency join setup")
		st, tr := j.Size()
		t.Rows = append(t.Rows, []string{fmt.Sprint(l), "3", fmt.Sprint(st), fmt.Sprint(tr)})
	}
	t.Notes = append(t.Notes,
		"Merged state count is bounded by 3^ℓ (trimming removes unreachable combinations), matching the construction in the proof of Lemma 4.1.")
	return t
}

// E8 — Lemma 4.3: materializing R' costs O(|V|^{|vars(C)|}) ≤ O(|V|^{2t});
// the measured tuple counts and time grow with exponent ~2t in |V| when
// the component's 2t endpoints are distinct variables, and stay flat when
// its tracks share them.
func E8(seed int64) *Table {
	a := alphabet.Lower(2)
	t := &Table{
		ID:      "E8",
		Title:   "Lemma 4.3 reduction cost: |V| exponent tracks cc_vertex",
		Claim:   "Lemma 4.3: D' materialization is O(|D|^{|vars(C)|}) ≤ O(|D|^{2·cc_vertex}) — polynomial only for bounded components",
		Headers: []string{"shape", "t (component tracks)", "fitted |V| exponent of CQ tuples", "fitted |V| exponent of time"},
	}
	for _, shape := range []struct {
		name  string
		query func(*alphabet.Alphabet, int) *query.Query
	}{{"split fan", workload.SplitFanQuery}, {"fan", workload.FanQuery}} {
		for _, tr := range []int{1, 2, 3} {
			q := shape.query(a, tr)
			var xs, ysTuples, ysTime []float64
			for _, n := range []int{5, 8, 12, 17} {
				rng := rand.New(rand.NewSource(seed))
				db := workload.RandomDB(rng, a, n, 2*n)
				var res *core.Result
				d := timeIt(func() {
					res = mustEval(db, q, core.Options{Strategy: core.Reduction})
				})
				xs = append(xs, float64(n))
				ysTuples = append(ysTuples, float64(res.Stats.CQTuples)+1)
				ysTime = append(ysTime, float64(d.Microseconds()))
			}
			t.Rows = append(t.Rows, []string{
				shape.name, fmt.Sprint(tr), fmt.Sprintf("%.2f", slope(xs, ysTuples)), fmt.Sprintf("%.2f", slope(xs, ysTime)),
			})
		}
	}
	t.Notes = append(t.Notes,
		"Split fan: t tracks x_i → y_i under one t-ary eqlen atom, 2t distinct node variables. Its exponent climbs with the component's track count t = cc_vertex, as the R' sweep ranges over V^t source tuples and keeps every destination tuple; for bounded t this is the paper's polynomial upper bound, for unbounded t it is the PSPACE-ness source. Fan (contrast): the same t tracks all x → y. R' is the atom over its own variables, so the sweep opens V sources and keeps only rows whose destinations agree: two variables whatever t.")
	return t
}

// E9 — Lemma 5.1 / Claim 5.1: both INE encodings agree with the direct
// product decision on random planted/unplanted instances.
func E9(seed int64) *Table {
	a := alphabet.Lower(2)
	t := &Table{
		ID:      "E9",
		Title:   "Lemma 5.1 correctness: INE ↔ ECRPQ round trip",
		Claim:   "Claim 5.1: D ⊨ q iff L1 ∩ ... ∩ Ln ≠ ∅ (both encodings)",
		Headers: []string{"instances", "agreements (case 1)", "agreements (case 2)", "sat instances"},
	}
	rng := rand.New(rand.NewSource(seed))
	total, agree1, agree2, sat := 0, 0, 0, 0
	for i := 0; i < 30; i++ {
		k := 1 + rng.Intn(3)
		in := workload.PlantedINE(rng, a, k, 3, rng.Intn(2) == 0)
		_, want := in.Solve()
		total++
		if want {
			sat++
		}
		db1, q1, err := reductions.BigHyperedge(in)
		invariant.NoError(err, "experiments: BigHyperedge reduction")
		if mustEval(db1, q1, core.Options{Strategy: core.Generic}).Sat == want {
			agree1++
		}
		db2, q2, err := reductions.SharedVariable(in)
		invariant.NoError(err, "experiments: SharedVariable reduction")
		if mustEval(db2, q2, core.Options{Strategy: core.Generic}).Sat == want {
			agree2++
		}
	}
	t.Rows = append(t.Rows, []string{
		fmt.Sprint(total), fmt.Sprintf("%d/%d", agree1, total),
		fmt.Sprintf("%d/%d", agree2, total), fmt.Sprint(sat),
	})
	return t
}

// E10 — Lemma 5.3 / Claim 5.2: CQ evaluation round-trips through the ECRPQ
// encoding, and the binary-counter database blowup is polynomial.
func E10(seed int64) *Table {
	t := &Table{
		ID:      "E10",
		Title:   "Lemma 5.3 correctness and cost: CQ ↔ ECRPQ round trip",
		Claim:   "Claim 5.2: D̂ ⊨ q_G iff D ⊨ q; D̂ is polynomial in |D| and independent of q",
		Headers: []string{"|dom D|", "k (clique)", "CQ sat", "ECRPQ sat", "|V(D̂)|", "CQ time (ms)", "ECRPQ time (ms)"},
	}
	rng := rand.New(rand.NewSource(seed))
	for _, n := range []int{4, 6} {
		for _, k := range []int{2, 3} {
			st, q := workload.CliqueCQ(rng, k, n, n, true)
			var cqSat bool
			dCQ := timeIt(func() {
				p, err := cq.Compile(q)
				invariant.NoError(err, "experiments: E10 query compilation")
				_, s, _, err := p.Eval(context.Background(), st, nil)
				invariant.NoError(err, "experiments: E10 tree-decomposition evaluation")
				cqSat = s
			})
			sub, comps, err := reductions.SubdivideCQ(st, q)
			invariant.NoError(err, "experiments: E10 CQ subdivision")
			db, eq, err := reductions.CQToECRPQ(sub, comps)
			invariant.NoError(err, "experiments: E10 CQ-to-ECRPQ reduction")
			var res *core.Result
			dE := timeIt(func() { res = mustEval(db, eq, core.Options{Strategy: core.Generic}) })
			invariant.Assert(res.Sat == cqSat, "experiments: E10 reduction disagrees with CQ evaluation")
			t.Rows = append(t.Rows, []string{
				fmt.Sprint(n), fmt.Sprint(k), fmt.Sprint(cqSat), fmt.Sprint(res.Sat),
				fmt.Sprint(db.NumVertices()), ms(dCQ), ms(dE),
			})
		}
	}
	return t
}

// E11 — data complexity: for a fixed query, evaluation time grows
// polynomially (low degree) in the database, for every strategy (the paper:
// data complexity is NL-complete for RPQ, CRPQ and ECRPQ alike).
func E11(seed int64) *Table {
	a := alphabet.Lower(2)
	// An unsatisfiable fixed query (requires a b-labelled step on an all-a
	// cycle), so every strategy must do its full data-dependent work rather
	// than stopping at the first witness.
	qb := query.NewBuilder(a)
	qb.Reach("x", "p1", "y").Reach("x", "p2", "y")
	qb.Rel(synchro.EqualLength(a, 2), "p1", "p2")
	qb.Lang("p1", "a*")
	qb.Lang("p2", "a*b")
	q := qb.MustBuild()
	t := &Table{
		ID:      "E11",
		Title:   "Data complexity: fixed query, database sweep",
		Claim:   "§3: data complexity of ECRPQ is NL-complete (polynomial, low degree)",
		Headers: []string{"strategy", "fitted |V| exponent"},
	}
	for _, s := range []core.Options{{Strategy: core.Generic}, {Strategy: core.Reduction}} {
		var xs, ys []float64
		for _, n := range []int{6, 9, 13, 19} {
			db := graphdb.New(a)
			for i := 0; i < n; i++ {
				db.MustAddVertex("")
			}
			for i := 0; i < n; i++ {
				db.MustAddEdge(i, 0, (i+1)%n)
			}
			d := timeIt(func() { mustEval(db, q, s) })
			xs = append(xs, float64(n))
			ys = append(ys, float64(d.Microseconds()))
		}
		t.Rows = append(t.Rows, []string{s.Strategy.String(), fmt.Sprintf("%.2f", slope(xs, ys))})
	}
	return t
}

// E12 — Corollary 2.4: CRPQ with bounded treewidth evaluates in polynomial
// time via the R_L reduction (RPQ product reachability per atom).
func E12(seed int64) *Table {
	a := alphabet.Lower(2)
	t := &Table{
		ID:      "E12",
		Title:   "CRPQ special case (Corollary 2.4)",
		Claim:   "Cor 2.4: tw-bounded CRPQ evaluation is PTIME via the R_L per-atom reachability reduction",
		Headers: []string{"k (atoms)", "|V|", "sat", "time (ms)"},
	}
	for _, k := range []int{2, 4, 8} {
		for _, n := range []int{16, 48} {
			rng := rand.New(rand.NewSource(seed))
			db := workload.RandomDB(rng, a, n, 3*n)
			q := workload.CRPQPathQuery(a, k)
			var res *core.Result
			d := timeIt(func() { res = mustEval(db, q, core.Options{Strategy: core.Reduction}) })
			t.Rows = append(t.Rows, []string{fmt.Sprint(k), fmt.Sprint(n), fmt.Sprint(res.Sat), ms(d)})
		}
	}
	return t
}

// AblationStrategies compares the two strategies on the same instances, on
// both satisfiable and unsatisfiable variants: the generic product search is
// output-sensitive (a witness can be found
// immediately), while the reduction always pays the full V^2t
// materialization — but on unsatisfiable instances the generic search must
// exhaust all |V|^{#nodevars} assignments and the reduction wins.
func AblationStrategies(seed int64) *Table {
	a := alphabet.Lower(2)
	t := &Table{
		ID:      "A1",
		Title:   "Ablation: generic vs reduction strategy",
		Claim:   "design choice: generic search is output-sensitive; the Lemma 4.3 route is exhaustive but polynomial for bounded components",
		Headers: []string{"instance", "generic (ms)", "reduction (ms)"},
	}
	rng := rand.New(rand.NewSource(seed))
	db := workload.RandomDB(rng, a, 10, 30)
	// All-'a' cycle: queries demanding a 'b' label are unsatisfiable.
	unsatDB := graphdb.New(a)
	for i := 0; i < 10; i++ {
		unsatDB.MustAddVertex("")
	}
	for i := 0; i < 10; i++ {
		unsatDB.MustAddEdge(i, 0, (i+1)%10)
	}
	// Unsat variants: same shapes plus a b+ language on every path variable.
	unsatPair := func(k int) *query.Query {
		b := query.NewBuilder(a)
		for i := 1; i <= k; i++ {
			pv := fmt.Sprintf("p%d", i)
			b.Reach(fmt.Sprintf("x%d", i-1), pv, fmt.Sprintf("x%d", i))
			b.Lang(pv, "b+")
		}
		for i := 1; i+1 <= k; i += 2 {
			b.Rel(synchro.EqualLength(a, 2), fmt.Sprintf("p%d", i), fmt.Sprintf("p%d", i+1))
		}
		return b.MustBuild()
	}
	type inst struct {
		name string
		db   *graphdb.DB
		q    *query.Query
	}
	for _, in := range []inst{
		{"pair-chain k=4 (sat)", db, workload.PairChainQuery(a, 4)},
		{"fan k=3 (sat)", db, workload.FanQuery(a, 3)},
		{"eq-chain k=3 (sat)", db, workload.EqChainQuery(a, 3)},
		{"crpq k=4 (sat)", db, workload.CRPQPathQuery(a, 4)},
		{"pair-chain k=4 (unsat)", unsatDB, unsatPair(4)},
		{"pair-chain k=6 (unsat)", unsatDB, unsatPair(6)},
	} {
		d1 := timeIt(func() { mustEval(in.db, in.q, core.Options{Strategy: core.Generic}) })
		d2 := timeIt(func() {
			mustEval(in.db, in.q, core.Options{Strategy: core.Reduction})
		})
		t.Rows = append(t.Rows, []string{in.name, ms(d1), ms(d2)})
	}
	t.Notes = append(t.Notes,
		"On satisfiable instances the generic search finds a witness almost immediately (often via empty paths); on unsatisfiable ones it exhausts |V|^{#nodevars} assignments while the reduction's Lemma 4.3 sweep stays polynomial — motivating the Auto strategy's component-size dispatch.")
	return t
}

// AblationCQEval compares the naive backtracking CQ evaluator with the
// tree-decomposition dynamic program on clique-query instances.
func AblationCQEval(seed int64) *Table {
	t := &Table{
		ID:      "A2",
		Title:   "Ablation: CQ backtracking vs tree-decomposition DP",
		Claim:   "design choice: Prop 2.3's DP is the PTIME upper-bound engine; backtracking degrades exponentially on adversarial families",
		Headers: []string{"k", "|dom|", "backtrack (ms)", "tree-decomp (ms)", "agree"},
	}
	rng := rand.New(rand.NewSource(seed))
	for _, k := range []int{3, 4} {
		for _, n := range []int{12, 20} {
			st, q := workload.CliqueCQ(rng, k, n, 3*n, false)
			var s1, s2 bool
			d1 := timeIt(func() { _, s1, _ = cq.EvalBacktrack(context.Background(), st, q) })
			d2 := timeIt(func() {
				p, err := cq.Compile(q)
				invariant.NoError(err, "experiments: A2 query compilation")
				_, s2, _, _ = p.Eval(context.Background(), st, nil)
			})
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("clique k=%d", k), fmt.Sprint(n), ms(d1), ms(d2), fmt.Sprint(s1 == s2),
			})
			invariant.Assert(s1 == s2, "experiments: CQ evaluators disagree")
		}
	}
	// Adversarial family: chain query one step longer than a binary tree's
	// depth — unsatisfiable, and backtracking explores every root-to-leaf
	// path while the DP's semijoins stay linear.
	for _, depth := range []int{6, 7} {
		st, q := chainOnBinaryTree(depth)
		var s1, s2 bool
		d1 := timeIt(func() { _, s1, _ = cq.EvalBacktrack(context.Background(), st, q) })
		d2 := timeIt(func() {
			p, err := cq.Compile(q)
			invariant.NoError(err, "experiments: A2 query compilation")
			_, s2, _, _ = p.Eval(context.Background(), st, nil)
		})
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("tree-chain d=%d", depth), fmt.Sprint(st.Domain), ms(d1), ms(d2), fmt.Sprint(s1 == s2),
		})
		invariant.Assert(!s1 && !s2, "experiments: tree-chain instance should be unsatisfiable")
	}
	return t
}

// chainOnBinaryTree builds a complete binary tree structure of the given
// depth and a chain query one atom longer than the depth (unsatisfiable).
func chainOnBinaryTree(depth int) (*cq.Structure, *cq.Query) {
	n := 1<<(depth+1) - 1
	st := cq.NewStructure(n)
	invariant.NoError(st.AddRelation("E", 2), "experiments: tree-chain relation setup")
	for v := 0; 2*v+2 < n; v++ {
		st.MustAddTuple("E", v, 2*v+1)
		st.MustAddTuple("E", v, 2*v+2)
	}
	q := &cq.Query{}
	for i := 1; i <= depth+1; i++ {
		q.Atoms = append(q.Atoms, cq.Atom{Rel: "E", Args: []string{
			fmt.Sprintf("v%d", i), fmt.Sprintf("v%d", i+1)}})
	}
	return st, q
}

// AblationTreewidth compares exact and heuristic treewidth on the query
// families' node graphs.
func AblationTreewidth() *Table {
	a := alphabet.Lower(2)
	t := &Table{
		ID:      "A3",
		Title:   "Ablation: exact vs min-fill treewidth",
		Claim:   "design choice: exact subset-DP for ≤20 vertices, min-fill beyond; heuristic is near-exact on these families",
		Headers: []string{"family", "exact tw", "min-fill width"},
	}
	type fam struct {
		name string
		q    *query.Query
	}
	for _, f := range []fam{
		{"pair-chain k=6", workload.PairChainQuery(a, 6)},
		{"clique k=5", workload.CliqueQuery(a, 5)},
		{"fan k=4", workload.FanQuery(a, 4)},
		{"eq-chain k=5", workload.EqChainQuery(a, 5)},
	} {
		g, _, _ := twolevel.Abstraction(f.q.Normalize())
		ng := g.NodeGraph()
		lo, _, _ := ng.Treewidth()
		td := ng.Decompose()
		t.Rows = append(t.Rows, []string{f.name, fmt.Sprint(lo), fmt.Sprint(td.Width())})
	}
	return t
}

// All runs the full suite in order.
func All(seed int64) []*Table {
	return []*Table{
		E1(seed), E1b(seed), E2(seed), E3(seed), E4(seed), E5(seed), E6(seed),
		E7(), E8(seed), E9(seed), E10(seed), E11(seed), E12(seed),
		AblationStrategies(seed), AblationCQEval(seed), AblationTreewidth(), AblationBaseline(seed),
		StageAttribution(seed), Overload(seed), StreamingEnumeration(seed),
		PlannerAblation(seed),
	}
}

// stageBuckets groups span names into the pipeline stages reported by A8.
// Order is the report's column order.
var stageBuckets = []struct {
	label string
	spans []string
}{
	{"prepare+merge", []string{"core/prepare", "core/decompose", "core/merge"}},
	{"product", []string{"core/product_search"}},
	{"sweep", []string{"core/sweep", "core/materialize"}},
	{"cq join", []string{"core/cq_join"}},
	{"witness", []string{"core/witness"}},
}

// tracedEval evaluates q under a fresh trace and returns the per-stage
// share of wall time (same order as stageBuckets, plus a trailing
// "other" share) and the traced total duration.
func tracedEval(db *graphdb.DB, q *query.Query, opts core.Options) ([]float64, float64) {
	tr := trace.New("experiment")
	ctx := trace.NewContext(context.Background(), tr)
	_, err := core.EvaluateContext(ctx, db, q, opts)
	invariant.NoError(err, "experiments: traced evaluation failed")
	tr.Finish()
	data := tr.Snapshot()

	selfByName := make(map[string]float64)
	for _, st := range data.Breakdown() {
		selfByName[st.Name] = st.SelfUs
	}
	totalUs := data.DurMs * 1000
	shares := make([]float64, 0, len(stageBuckets)+1)
	accounted := 0.0
	for _, b := range stageBuckets {
		var us float64
		for _, name := range b.spans {
			us += selfByName[name]
		}
		accounted += us
		if totalUs > 0 {
			shares = append(shares, 100*us/totalUs)
		} else {
			shares = append(shares, 0)
		}
	}
	other := 0.0
	if totalUs > 0 {
		other = math.Max(0, 100*(totalUs-accounted)/totalUs)
	}
	shares = append(shares, other)
	return shares, data.DurMs
}

// StageAttribution — A8: trace one representative instance from the E1,
// E3 and E8 families and attribute wall time to pipeline stages via span
// self-times. The regime predicts the dominant stage: E1 (tractable
// reduction) spends its time in the Lemma 4.3 sweep and CQ join; E3
// (PSPACE family, one big component) in the component merge + product
// search; E8 (fan queries, t tracks) in the V^t sweep.
func StageAttribution(seed int64) *Table {
	a := alphabet.Lower(2)
	t := &Table{
		ID:      "A8",
		Title:   "Per-stage cost attribution (traced evaluation)",
		Claim:   "the complexity driver predicted per regime is where the wall time actually goes",
		Headers: []string{"instance", "strategy", "total (ms)"},
	}
	for _, b := range stageBuckets {
		t.Headers = append(t.Headers, b.label+" %")
	}
	t.Headers = append(t.Headers, "other %")

	type instance struct {
		name  string
		build func() (*graphdb.DB, *query.Query)
		opts  core.Options
	}
	instances := []instance{
		{"E1 pair-chain k=4, |V|=18", func() (*graphdb.DB, *query.Query) {
			rng := rand.New(rand.NewSource(seed))
			return workload.RandomDB(rng, a, 18, 54), workload.PairChainQuery(a, 4)
		}, core.Options{Strategy: core.Reduction}},
		{"E3 INE n=5 (big component)", func() (*graphdb.DB, *query.Query) {
			rng := rand.New(rand.NewSource(seed))
			in := workload.PlantedINE(rng, a, 5, 3, true)
			db, q, err := reductions.BigHyperedge(in)
			invariant.NoError(err, "experiments: A8 BigHyperedge reduction")
			return db, q
		}, core.Options{Strategy: core.Generic}},
		{"E8 fan t=3, |V|=12", func() (*graphdb.DB, *query.Query) {
			rng := rand.New(rand.NewSource(seed))
			return workload.RandomDB(rng, a, 12, 24), workload.FanQuery(a, 3)
		}, core.Options{Strategy: core.Reduction}},
	}
	for _, in := range instances {
		db, q := in.build()
		shares, totalMs := tracedEval(db, q, in.opts)
		row := []string{in.name, in.opts.Strategy.String(), fmt.Sprintf("%.3f", totalMs)}
		for _, s := range shares {
			row = append(row, fmt.Sprintf("%.1f", s))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"Shares are span self-times (duration minus child spans) from internal/trace, so columns sum to ≤100%; \"other\" is untraced glue. The dominant column per row matches the regime's predicted cost driver: E3's time concentrates in prepare+merge + product + witness (the exponential language product: under the generic strategy the witness stage is the winning product traversal re-run with parent links recorded), E1/E8 in sweep + cq join (the Lemma 4.3 pipeline).")
	return t
}

// AblationBaseline compares the engine against the brute-force baseline
// (bounded path enumeration): the baseline's time explodes with database
// size and path bound while the engine stays polynomial in the tractable
// regime.
func AblationBaseline(seed int64) *Table {
	a := alphabet.Lower(2)
	t := &Table{
		ID:      "A5",
		Title:   "Ablation: engine vs brute-force baseline",
		Claim:   "baseline: path enumeration is exponential in the bound; the paper's product algorithms avoid enumerating paths entirely",
		Headers: []string{"|V|", "bound", "baseline (ms)", "generic (ms)", "agree"},
	}
	// Unsatisfiable instance (requires a b-step on an all-a graph): both
	// evaluators must do their full work, exposing the baseline's blowup.
	qb := query.NewBuilder(a)
	qb.Reach("x", "p1", "y").Reach("x", "p2", "y")
	qb.Rel(synchro.EqualLength(a, 2), "p1", "p2")
	qb.Lang("p1", "a*")
	qb.Lang("p2", "a*b")
	q := qb.MustBuild()
	for _, n := range []int{4, 6, 8} {
		db := graphdb.New(a)
		for i := 0; i < n; i++ {
			db.MustAddVertex("")
		}
		for i := 0; i < n; i++ {
			db.MustAddEdge(i, 0, (i+1)%n)
			db.MustAddEdge(i, 0, (i+2)%n)
		}
		bound := n
		var naive, engine *core.Result
		var err error
		dN := timeIt(func() { naive, err = core.NaiveBounded(db, q, bound) })
		invariant.NoError(err, "experiments: naive baseline evaluation")
		dE := timeIt(func() { engine = mustEval(db, q, core.Options{Strategy: core.Generic}) })
		agree := naive.Sat == engine.Sat
		invariant.Assert(!naive.Sat || engine.Sat, "experiments: baseline found a witness the engine missed")
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n), fmt.Sprint(bound), ms(dN), ms(dE), fmt.Sprint(agree),
		})
	}
	t.Notes = append(t.Notes,
		"The baseline is complete only relative to its path bound; the engine's product search is exact. Agreement holds whenever witnesses fit the bound.")
	return t
}
