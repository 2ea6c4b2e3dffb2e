package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"ecrpq/internal/alphabet"
	"ecrpq/internal/core"
	"ecrpq/internal/graphdb"
	"ecrpq/internal/invariant"
	"ecrpq/internal/planner"
	"ecrpq/internal/query"
	"ecrpq/internal/reductions"
	"ecrpq/internal/stats"
	"ecrpq/internal/workload"
)

// plannerWork collapses the per-strategy work counters into one
// comparable unit count: generic evaluation is dominated by
// node-variable assignments and component product checks, reduction by
// materialized R' tuples. The counters are deterministic for a fixed
// instance, unlike wall time, so the regression bar asserts on them.
func plannerWork(s core.Stats) int {
	return s.NodeAssignments + s.ProductChecks + s.CQTuples
}

// decidedEval runs the server's plan-cache pipeline under a resolved
// decision: prepare with the concrete strategy, materialize the R'
// tables when it is Reduction (the cached-materialization path), and
// evaluate with the decision's ordering/pushdown hints. Both arms of
// the ablation go through this one executor, so the measured difference
// is the decision itself, not the pipeline.
func decidedEval(ctx context.Context, db *graphdb.DB, q *query.Query, dec *planner.Decision, opts core.Options) *core.Result {
	runOpts := opts
	runOpts.Strategy = dec.Strategy
	p, err := core.Prepare(q, runOpts)
	invariant.NoError(err, "experiments: A12 prepare")
	var mat *core.Materialization
	if dec.Strategy == core.Reduction {
		mat, err = p.Materialize(ctx, db)
		invariant.NoError(err, "experiments: A12 materialize")
	}
	var hints *core.PlanHints
	if dec.Strategy == core.Generic && !dec.UsedFallback {
		hints = &core.PlanHints{ComponentOrder: dec.ComponentOrder}
		if dec.Pushdown {
			hints.Candidates = p.PushdownCandidates(db)
		}
	}
	res, err := p.EvaluateContextHinted(ctx, db, mat, hints)
	invariant.NoError(err, "experiments: A12 evaluate")
	if mat != nil {
		// The streamed evaluation over a cached materialization reports
		// only tuples it touched; charge the full build like the server's
		// ledger does.
		res.Stats.CQTuples = mat.Tuples()
	}
	return res
}

// PlannerAblation — A12: the cost-based planner vs the fixed
// track-count auto rule on the E1, E3 and E8 regimes. The fixed rule
// only sees track counts; on the E8 fan regime (t=3 tracks, within
// MaxReductionTracks) it picks Reduction and pays the |V|^t R' sweep,
// while the cost model sees two node variables and |V|^2 assignments
// and picks Generic. On E1 and E3 both rules agree, so the planner must
// not regress there.
func PlannerAblation(seed int64) *Table {
	a := alphabet.Lower(2)
	t := &Table{
		ID:    "A12",
		Title: "Ablation: cost-based planner vs fixed auto rule",
		Claim: "design choice: statistics-backed cost model beats the track-count rule where track counts mislead (E8 fan), with no regression where they don't (E1, E3)",
		Headers: []string{"instance", "fixed / planner strategy", "sat", "fixed (ms)", "planner (ms)",
			"fixed work", "planner work", "work ratio"},
	}
	type instance struct {
		name    string
		build   func() (*graphdb.DB, *query.Query)
		opts    core.Options
		mustWin bool // the ≥1.5× acceptance row
	}
	instances := []instance{
		{"E1 pair-chain k=4, |V|=40", func() (*graphdb.DB, *query.Query) {
			rng := rand.New(rand.NewSource(seed))
			return workload.RandomDB(rng, a, 40, 120), workload.PairChainQuery(a, 4)
		}, core.Options{Strategy: core.Auto}, false},
		{"E3 big-hyperedge n=4", func() (*graphdb.DB, *query.Query) {
			rng := rand.New(rand.NewSource(seed))
			in := workload.PlantedINE(rng, a, 4, 3, true)
			db, q, err := reductions.BigHyperedge(in)
			invariant.NoError(err, "experiments: A12 BigHyperedge reduction")
			return db, q
		}, core.Options{Strategy: core.Auto}, false},
		{"E8 fan t=3, |V|=17", func() (*graphdb.DB, *query.Query) {
			rng := rand.New(rand.NewSource(seed))
			return workload.RandomDB(rng, a, 17, 34), workload.FanQuery(a, 3)
		}, core.Options{Strategy: core.Auto}, true},
	}
	ctx := context.Background()
	won := false
	for _, in := range instances {
		db, q := in.build()
		plan, err := core.Explain(q, in.opts)
		invariant.NoError(err, "experiments: A12 explain")

		// Planner off: Resolve with a nil catalog is exactly the fixed
		// core.AutoStrategy track-count rule, no hints.
		fixedDec := planner.Resolve(nil, plan, in.opts, planner.Config{})
		var fixedRes *core.Result
		fixedTime := timeIt(func() { fixedRes = decidedEval(ctx, db, q, fixedDec, in.opts) })

		// Planner on: statistics catalog + cost model + hints. The stats
		// computation is timed inside the planner column — in the server it
		// is amortized (computed at registration, decision memoized per
		// generation), so this is the worst case for the planner.
		var planRes *core.Result
		var dec *planner.Decision
		planTime := timeIt(func() {
			cat, err := stats.Compute(ctx, db, 1)
			invariant.NoError(err, "experiments: A12 stats compute")
			dec = planner.Resolve(cat, plan, in.opts, planner.Config{})
			planRes = decidedEval(ctx, db, q, dec, in.opts)
		})
		invariant.Assert(!dec.UsedFallback, "experiments: A12 planner fell back despite a catalog")
		invariant.Assert(fixedRes.Sat == planRes.Sat,
			"experiments: A12 planner-on and planner-off disagree on sat")

		fixedWork := plannerWork(fixedRes.Stats)
		planWork := plannerWork(planRes.Stats)
		ratio := float64(fixedWork) / float64(maxIntA12(planWork, 1))
		if in.mustWin {
			invariant.Assert(fixedDec.Strategy == core.Reduction,
				"experiments: A12 fixed rule should pick reduction on the fan regime")
			invariant.Assert(dec.Strategy == core.Generic,
				"experiments: A12 cost model should pick generic on the fan regime")
			invariant.Assert(ratio >= 1.5,
				"experiments: A12 planner win below the 1.5× acceptance bar")
			won = true
		} else {
			// No-regression bar: where the rules agree the hint machinery
			// may only shrink the search (pushdown prunes candidates,
			// ordering permutes components), never grow it.
			invariant.Assert(dec.Strategy == fixedDec.Strategy,
				"experiments: A12 strategies should agree off the fan regime")
			invariant.Assert(planWork <= fixedWork,
				"experiments: A12 planner-on did strictly more work than the fixed rule")
		}

		t.Rows = append(t.Rows, []string{
			in.name,
			fmt.Sprintf("%s / %s", fixedDec.Strategy, dec.Strategy),
			fmt.Sprint(planRes.Sat), ms(fixedTime), ms(planTime),
			fmt.Sprint(fixedWork), fmt.Sprint(planWork), fmt.Sprintf("%.1f×", ratio),
		})
	}
	invariant.Assert(won, "experiments: A12 acceptance row missing")
	t.Notes = append(t.Notes,
		"Both arms run the identical plan-cache pipeline (prepare, materialize R' when reduction, evaluate); only the decision differs, so the gap is the planner's. Work units are deterministic counters (generic: node assignments + product checks; reduction: materialized R' tuples), making the ≥1.5× bar on the E8 row and the no-regression bar on E1/E3 timing-noise free. The planner column also pays stats.Compute + planner.Resolve inline — the server amortizes both (stats at registration, decisions memoized per generation).")
	return t
}

func maxIntA12(a, b int) int {
	if a > b {
		return a
	}
	return b
}
