package planner

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"ecrpq/internal/alphabet"
	"ecrpq/internal/core"
	"ecrpq/internal/stats"
	"ecrpq/internal/workload"
)

func catalogFor(t *testing.T, seed int64, a *alphabet.Alphabet, n, e int) *stats.Catalog {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	db := workload.RandomDB(rng, a, n, e)
	cat, err := stats.Compute(context.Background(), db, 1)
	if err != nil {
		t.Fatalf("stats.Compute: %v", err)
	}
	return cat
}

func TestResolveWithoutCatalogFallsBack(t *testing.T) {
	a := alphabet.Lower(2)
	q := workload.FanQuery(a, 3)
	plan, err := core.Explain(q, core.Options{})
	if err != nil {
		t.Fatalf("Explain: %v", err)
	}
	d := Resolve(nil, plan, core.Options{}, Config{})
	if !d.UsedFallback {
		t.Error("expected fallback without a catalog")
	}
	// Fixed rule: one component with 3 tracks ≤ MaxReductionTracks(3).
	if d.Strategy != core.Reduction {
		t.Errorf("fallback strategy = %v, want Reduction", d.Strategy)
	}
}

func TestResolveFanPrefersGeneric(t *testing.T) {
	// The sweep-heavy regime: FanQuery(t=3) has a single 3-track component
	// over only two node variables. The fixed rule picks Reduction (V³
	// source sweeps); the cost model sees V² node assignments and picks
	// Generic.
	a := alphabet.Lower(2)
	q := workload.FanQuery(a, 3)
	plan, err := core.Explain(q, core.Options{})
	if err != nil {
		t.Fatalf("Explain: %v", err)
	}
	cat := catalogFor(t, 5, a, 17, 34)
	d := Resolve(cat, plan, core.Options{}, Config{})
	if d.UsedFallback {
		t.Fatal("unexpected fallback")
	}
	if d.Strategy != core.Generic {
		t.Errorf("strategy = %v (generic %.3g vs reduction %.3g), want Generic",
			d.Strategy, d.GenericCost, d.ReductionCost)
	}
	if core.AutoStrategy([]int{3}, core.Options{}) != core.Reduction {
		t.Error("fixed rule no longer picks Reduction on t=3; test premise broken")
	}
	if len(d.Stages) == 0 {
		t.Error("no stage estimates")
	}
	for _, s := range d.Stages {
		if s.EstimatedMs < 0 || math.IsNaN(s.EstimatedMs) {
			t.Errorf("stage %s has bad estimate %v", s.Stage, s.EstimatedMs)
		}
	}
}

func TestResolvePairChainKeepsReduction(t *testing.T) {
	// Two-track components sweep V² sources; the Generic search would
	// backtrack over V per chained variable with weak pruning. The model
	// must agree with the fixed rule here (no regression regime).
	a := alphabet.Lower(2)
	q := workload.PairChainQuery(a, 4)
	plan, err := core.Explain(q, core.Options{})
	if err != nil {
		t.Fatalf("Explain: %v", err)
	}
	cat := catalogFor(t, 7, a, 40, 120)
	d := Resolve(cat, plan, core.Options{}, Config{})
	if d.Strategy != core.Reduction {
		t.Errorf("strategy = %v (generic %.3g vs reduction %.3g), want Reduction",
			d.Strategy, d.GenericCost, d.ReductionCost)
	}
}

func TestResolveForcedStrategyKept(t *testing.T) {
	a := alphabet.Lower(2)
	q := workload.FanQuery(a, 3)
	plan, err := core.Explain(q, core.Options{Strategy: core.Reduction})
	if err != nil {
		t.Fatalf("Explain: %v", err)
	}
	cat := catalogFor(t, 5, a, 17, 34)
	d := Resolve(cat, plan, core.Options{Strategy: core.Reduction}, Config{})
	if d.Strategy != core.Reduction {
		t.Errorf("forced reduction resolved to %v", d.Strategy)
	}
	if d.GenericCost == 0 || d.ReductionCost == 0 {
		t.Error("forced strategies must still be costed for EXPLAIN")
	}
	if len(d.Stages) == 0 || d.Stages[0].Stage != "core/sweep" {
		t.Errorf("reduction stages = %+v", d.Stages)
	}
}

func TestResolveDeterministic(t *testing.T) {
	a := alphabet.Lower(3)
	q := workload.CliqueQuery(a, 4)
	plan, err := core.Explain(q, core.Options{})
	if err != nil {
		t.Fatalf("Explain: %v", err)
	}
	cat := catalogFor(t, 9, a, 30, 90)
	d1 := Resolve(cat, plan, core.Options{}, Config{})
	d2 := Resolve(cat, plan, core.Options{}, Config{})
	if !reflect.DeepEqual(d1, d2) {
		t.Errorf("two resolutions differ:\n  %+v\n  %+v", d1, d2)
	}
}

func TestComponentOrderIsPermutation(t *testing.T) {
	a := alphabet.Lower(3)
	q := workload.CliqueQuery(a, 4) // 6 singleton components
	plan, err := core.Explain(q, core.Options{MaxReductionTracks: 0, Strategy: core.Generic})
	if err != nil {
		t.Fatalf("Explain: %v", err)
	}
	cat := catalogFor(t, 9, a, 30, 90)
	for _, cfg := range []Config{{}, {DPMaxComponents: 2}} { // DP and greedy paths
		d := Resolve(cat, plan, core.Options{Strategy: core.Generic}, cfg)
		if d.Strategy != core.Generic {
			t.Fatalf("strategy = %v", d.Strategy)
		}
		if d.ComponentOrder == nil {
			continue
		}
		if !isPermutation(d.ComponentOrder, len(plan.Components)) {
			t.Fatalf("order %v is not a permutation of %d components", d.ComponentOrder, len(plan.Components))
		}
	}
}

func TestPushdownDetected(t *testing.T) {
	// CliqueQuery uses one-letter languages: every track has a singleton
	// first-label set, so pushdown must trigger.
	a := alphabet.Lower(3)
	q := workload.CliqueQuery(a, 3)
	plan, err := core.Explain(q, core.Options{Strategy: core.Generic})
	if err != nil {
		t.Fatalf("Explain: %v", err)
	}
	restricted := 0
	for _, pc := range plan.Components {
		restricted += len(pc.TrackFirstLabels)
	}
	if restricted == 0 {
		t.Fatal("no TrackFirstLabels on a single-label query; pushdown analysis broken")
	}
	cat := catalogFor(t, 9, a, 30, 90)
	d := Resolve(cat, plan, core.Options{Strategy: core.Generic}, Config{})
	if !d.Pushdown {
		t.Error("pushdown not enabled despite restricted tracks")
	}
}

func TestHugeSweepForcesGeneric(t *testing.T) {
	// V^t beyond the sweep source cap must never resolve to Reduction.
	a := alphabet.Lower(2)
	q := workload.FanQuery(a, 3)
	plan, err := core.Explain(q, core.Options{})
	if err != nil {
		t.Fatalf("Explain: %v", err)
	}
	cat := &stats.Catalog{Generation: 1, Vertices: 1 << 12, Edges: 1 << 13, AnyReachSelectivity: 0.5}
	d := Resolve(cat, plan, core.Options{}, Config{})
	if d.Strategy != core.Generic {
		t.Errorf("strategy = %v with V^3 = 2^36 sweep sources, want Generic", d.Strategy)
	}
	if !math.IsInf(d.ReductionCost, 1) {
		t.Errorf("reduction cost = %v, want +Inf", d.ReductionCost)
	}
}

// isPermutation reports whether order names each of 0…n-1 exactly once.
func isPermutation(order []int, n int) bool {
	if len(order) != n {
		return false
	}
	seen := make([]bool, n)
	for _, ci := range order {
		if ci < 0 || ci >= n || seen[ci] {
			return false
		}
		seen[ci] = true
	}
	return true
}

// singletonPlan is n one-track components over disjoint node variables.
func singletonPlan(n int) *core.Plan {
	plan := &core.Plan{Components: make([]core.PlanComponent, n)}
	for i := range plan.Components {
		x, y, p := "x"+strconv.Itoa(i), "y"+strconv.Itoa(i), "p"+strconv.Itoa(i)
		plan.Components[i] = core.PlanComponent{
			PathVars: []string{p}, NodeVars: []string{x, y}, Relations: 1, RelationStates: 2,
			TrackSources: map[string]string{p: x}, TrackTargets: map[string]string{p: y},
		}
	}
	return plan
}

// TestGreedyOrderSurvivesNonFiniteCosts: beyond dpMax components the greedy
// order must stay a permutation when every marginal cost has overflowed to
// +Inf (the survivor estimate passes 1e308 near 300 disjoint components) or
// is NaN — it used to index used[-1] because no candidate beat +Inf.
func TestGreedyOrderSurvivesNonFiniteCosts(t *testing.T) {
	dense := &stats.Catalog{Generation: 1, Vertices: 1000, Edges: 4000, AnyReachSelectivity: 1}
	for _, tc := range []struct {
		name string
		cat  *stats.Catalog
		n    int
	}{
		{"overflow to +Inf", dense, 301},
		{"just past dpMax", dense, 9},
		{"NaN from the first step", &stats.Catalog{Generation: 1, Vertices: 10, AnyReachSelectivity: math.NaN()}, 12},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plan := singletonPlan(tc.n)
			m := newModel(tc.cat, plan, Config{})
			order, _ := m.orderGreedy(tc.n)
			if !isPermutation(order, tc.n) {
				t.Fatalf("greedy order over %d components is not a permutation: %v", tc.n, order)
			}
			d := Resolve(tc.cat, plan, core.Options{Strategy: core.Generic}, Config{})
			if !isPermutation(d.ComponentOrder, tc.n) {
				t.Fatalf("Resolve: component order is not a permutation: %v", d.ComponentOrder)
			}
		})
	}
}
