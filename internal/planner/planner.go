// Package planner is the cost-based query planner. It combines the
// per-database statistics catalog (internal/stats) with the query's
// structural plan (core.Explain: components, automaton sizes, first-label
// sets) to
//
//   - resolve the "auto" strategy by comparing estimated Generic vs
//     Reduction cost instead of the fixed track-count rule,
//   - order the Generic backtracking's component completion sequence
//     (exact bitmask DP up to dpMaxComponents components, greedy beyond),
//     and
//   - decide whether first-label predicate pushdown into the product
//     search is worthwhile.
//
// The planner reads database statistics exclusively through the stats
// catalog API — it never touches internal/graphdb (enforced by the
// planner-reads-catalog rule of the root architecture test). Decisions are
// deterministic functions of (catalog, plan, options), so two nodes holding
// the same generation resolve identically — replica EXPLAIN matches owner
// EXPLAIN.
package planner

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strings"

	"ecrpq/internal/core"
	"ecrpq/internal/stats"
)

const (
	// dpMaxComponents is the component count at or below which join
	// ordering uses exact bitmask DP (2^8 subsets); the greedy order above
	// it keeps planning polynomial in the component count.
	dpMaxComponents = 8
	// nsPerCostUnit converts abstract cost units to nanoseconds for the
	// EstimatedMs fields: roughly one product-state expansion on commodity
	// hardware.
	nsPerCostUnit = 25
)

// Config has no fields: the planner has no settings. The type stays so
// that existing calls passing planner.Config{}, the benchmark harness's
// among them, keep compiling.
type Config struct{}

// StageEstimate is one predicted evaluation stage. Stage carries the
// internal/trace span name the work will be recorded under, so measured
// self-times can be joined back onto the estimate by name (see the
// /v1/explain handler).
type StageEstimate struct {
	Stage       string  `json:"stage"`
	Detail      string  `json:"detail,omitempty"`
	Cost        float64 `json:"cost"`
	EstimatedMs float64 `json:"estimated_ms"`
}

// Decision is the planner's resolution for one (query, database
// generation) pair. It is immutable and safe to cache under the plan
// cache's "auto" pseudo-key until the generation changes.
type Decision struct {
	// Strategy is the concrete strategy to run (never core.Auto).
	Strategy core.Strategy `json:"-"`
	// StrategyName is Strategy rendered for JSON payloads.
	StrategyName string `json:"strategy"`
	// ComponentOrder permutes the plan's components for the Generic
	// backtracking (feeds core.PlanHints.ComponentOrder). nil keeps the
	// natural order.
	ComponentOrder []int `json:"component_order,omitempty"`
	// Pushdown reports whether first-label candidate restriction should
	// be applied (core.Prepared.PushdownCandidates).
	Pushdown bool `json:"pushdown"`
	// GenericCost and ReductionCost are the total estimated work units
	// for each strategy; the smaller one wins when the strategy is Auto.
	GenericCost   float64 `json:"generic_cost"`
	ReductionCost float64 `json:"reduction_cost"`
	// Stages breaks the chosen strategy's estimate down per trace stage.
	Stages []StageEstimate `json:"stages"`
	// StatsGeneration is the catalog generation the decision is based on
	// (0 with UsedFallback when no catalog was available).
	StatsGeneration uint64 `json:"stats_generation"`
	// UsedFallback marks a decision made without statistics, via the
	// fixed core.AutoStrategy track-count rule.
	UsedFallback bool `json:"used_fallback"`
}

// finite clamps an estimate into the range JSON can carry: the formulas
// overflow to +Inf on large instances (and an Inf·0 makes a NaN), which
// encoding/json refuses — the whole EXPLAIN payload would be lost.
func finite(x float64) float64 {
	if math.IsNaN(x) || x > math.MaxFloat64 {
		return math.MaxFloat64
	}
	return x
}

// MarshalJSON renders the decision with its two totals clamped by finite
// (stage estimates are clamped where they are built). In Go the totals
// keep their +Inf, which is how "never plan into it" is expressed.
func (d Decision) MarshalJSON() ([]byte, error) {
	type plain Decision // same fields and tags, no method
	p := plain(d)
	p.GenericCost, p.ReductionCost = finite(p.GenericCost), finite(p.ReductionCost)
	return json.Marshal(p)
}

// Resolve plans the query described by plan against the statistics in cat.
// opts.Strategy == core.Auto lets the cost model choose; a forced Generic
// or Reduction is kept but still costed so EXPLAIN shows estimates for
// forced strategies too. cat may be nil (no statistics yet), in which case
// the fixed AutoStrategy rule resolves and no ordering/pushdown hints are
// produced.
func Resolve(cat *stats.Catalog, plan *core.Plan, opts core.Options, _ Config) *Decision {
	if cat == nil {
		strat := opts.Strategy
		if strat == core.Auto {
			trackCounts := make([]int, len(plan.Components))
			for i, c := range plan.Components {
				trackCounts[i] = len(c.PathVars)
			}
			strat = core.AutoStrategy(trackCounts)
		}
		return &Decision{
			Strategy:     strat,
			StrategyName: strat.String(),
			UsedFallback: true,
		}
	}

	m := newModel(cat, plan)
	order, genericCost := m.orderComponents()
	red := m.reduction()
	reductionCost := red.sweep + red.rows
	if red.capped {
		reductionCost = math.Inf(1)
	}

	strat := opts.Strategy
	if strat == core.Auto {
		// Past the sweep's hard source cap the reduction builder errors
		// out; never plan into it. A NaN Generic estimate loses.
		strat = core.Reduction
		if genericCost <= reductionCost || red.capped {
			strat = core.Generic
		}
	}

	d := &Decision{
		Strategy:        strat,
		StrategyName:    strat.String(),
		GenericCost:     genericCost,
		ReductionCost:   reductionCost,
		StatsGeneration: cat.Generation,
	}
	if strat == core.Generic {
		if len(order) > 1 { // one component has nothing to permute
			d.ComponentOrder = order
		}
		d.Pushdown = m.pushdown
		detail := make([]string, len(order))
		for i, ci := range order {
			detail[i] = fmt.Sprintf("c%d{%s}", ci, strings.Join(plan.Components[ci].PathVars, ","))
		}
		d.Stages = []StageEstimate{stage("core/product_search", "component order "+strings.Join(detail, " → "), genericCost)}
	} else {
		n := len(plan.Components)
		d.Stages = []StageEstimate{
			stage("core/sweep", fmt.Sprintf("%d component R' sweep(s)", n), red.sweep),
			stage("core/cq_join", "tree-decomposition join over materialized rows", red.rows),
			stage("core/witness", "per-component witness recovery", float64(n)*m.v),
		}
	}
	return d
}

// stage is one trace-named estimate, clamped so it always encodes.
func stage(name, detail string, cost float64) StageEstimate {
	cost = finite(cost)
	return StageEstimate{Stage: name, Detail: detail, Cost: cost, EstimatedMs: finite(cost * nsPerCostUnit / 1e6)}
}

// model holds the per-component quantities the cost formulas share. Node
// variables are numbered in the order the plan's components first name
// them; a set of bound variables is a []bool over those numbers.
type model struct {
	plan *core.Plan

	v     float64 // |V|, at least 1 to keep formulas finite
	sigma float64 // any-label reachability selectivity, clamped to (0,1]

	dom      []float64 // per variable: its candidate count, narrowed by pushdown
	pushdown bool      // some track's first labels narrow its source's domain
	vars     [][]int   // per component: its distinct node variables
	check    []float64 // per component: one product-search check's cost
	sel      []float64 // per component: fraction of assignments its check keeps
}

func newModel(cat *stats.Catalog, plan *core.Plan) *model {
	v := float64(cat.Vertices)
	if v < 1 {
		v = 1
	}
	sigma := cat.AnyReachSelectivity
	if sigma <= 0 {
		sigma = 1 / v // nothing reaches anything: one hit per source (itself)
	}
	if sigma > 1 {
		sigma = 1
	}
	m := &model{plan: plan, v: v, sigma: sigma}
	index := map[string]int{}
	number := func(name string) int {
		i, ok := index[name]
		if !ok {
			i = len(m.dom)
			index[name] = i
			m.dom = append(m.dom, v)
		}
		return i
	}
	for _, pc := range plan.Components {
		var vars []int
		for _, nv := range pc.NodeVars {
			if i := number(nv); !slices.Contains(vars, i) {
				vars = append(vars, i)
			}
		}
		m.vars = append(m.vars, vars)

		// A check of the component explores at most its automaton states
		// times the endpoint-bounded product frontier, (σ·V)^t positions;
		// each track independently demands reachability between its
		// endpoints, so σ^t of the assignments survive.
		t := float64(len(pc.PathVars))
		states := float64(pc.RelationStates)
		if states < 1 {
			states = 1
		}
		m.check = append(m.check, states*math.Pow(math.Max(sigma*v, 1), t))
		sel := math.Pow(sigma, t)
		if sel < 1e-12 {
			sel = 1e-12
		}
		m.sel = append(m.sel, sel)

		// Pushdown: a variable sourcing a restricted track only ranges over
		// vertices with an out-edge in the allowed label set; DistinctSrc is
		// exactly that count per label. Several restricted tracks on one
		// source variable take the minimum.
		for pv, labels := range pc.TrackFirstLabels {
			src, ok := pc.TrackSources[pv]
			if !ok {
				continue
			}
			total := 0.0
			for _, l := range labels {
				if ls, ok := cat.LabelByName(l); ok {
					total += float64(ls.DistinctSrc)
				}
			}
			i := number(src)
			m.dom[i] = math.Min(m.dom[i], total)
			m.pushdown = true
		}
	}
	for i, d := range m.dom {
		if d < 1 {
			m.dom[i] = 1 // empty domains still cost the loop setup
		}
	}
	return m
}

// step is the Generic cost model: completing component ci after the
// variables in bound, with survivors partial assignments alive, multiplies
// them by the domains of ci's new variables into candidates, each of which
// pays one check of ci; the check's selectivity thins the candidates into
// the next survivors, never below one. step returns the check work and
// those survivors.
func (m *model) step(bound []bool, survivors float64, ci int) (cost, next float64) {
	newDom := 1.0
	for _, v := range m.vars[ci] {
		if !bound[v] {
			newDom *= m.dom[v]
		}
	}
	candidates := survivors * newDom
	next = candidates * m.sel[ci]
	if next < 1 {
		next = 1
	}
	return candidates * m.check[ci], next
}

// bind marks component ci's node variables bound.
func (m *model) bind(bound []bool, ci int) {
	for _, v := range m.vars[ci] {
		bound[v] = true
	}
}

// orderComponents picks the component completion order minimizing the
// estimated Generic cost: exact subset DP up to dpMaxComponents
// components, greedy beyond. Returns the order and its cost.
func (m *model) orderComponents() ([]int, float64) {
	n := len(m.plan.Components)
	if n <= dpMaxComponents {
		return m.orderDP(n)
	}
	return m.orderGreedy(n)
}

// orderDP is Selinger-style bitmask DP over component subsets. State per
// subset: the cheapest total cost of completing exactly that subset, with
// the surviving-assignment count it implies (cost-optimal substructure is
// approximate because survivors also matter; the DP tracks the pair and
// minimizes cost, tie-breaking on survivors). A subset's bound variables
// are those of its components.
func (m *model) orderDP(n int) ([]int, float64) {
	type state struct {
		cost      float64
		survivors float64
		last      int // component added to reach this subset; -1 before any
		prev      int // previous subset mask
	}
	states := make([]state, 1<<n)
	for i := range states {
		states[i].last = -1
	}
	states[0].survivors = 1
	bound := make([]bool, len(m.dom))
	// Masks ascend, so every subset is final before it is extended.
	for mask, st := range states {
		clear(bound)
		for ci := 0; ci < n; ci++ {
			if mask&(1<<ci) != 0 {
				m.bind(bound, ci)
			}
		}
		for ci := 0; ci < n; ci++ {
			if mask&(1<<ci) != 0 {
				continue
			}
			marginal, survivors := m.step(bound, st.survivors, ci)
			cost := st.cost + marginal
			if cur := &states[mask|1<<ci]; cur.last < 0 || cost < cur.cost ||
				(cost == cur.cost && survivors < cur.survivors) {
				*cur = state{cost: cost, survivors: survivors, last: ci, prev: mask}
			}
		}
	}
	order := make([]int, n)
	for i, mask := n-1, len(states)-1; i >= 0; i, mask = i-1, states[mask].prev {
		order[i] = states[mask].last
	}
	return order, states[len(states)-1].cost
}

// orderGreedy picks, at each step, the component with the cheapest
// marginal cost (candidates × check), tie-breaking toward the more
// selective component (smaller survivor fraction) so later steps see
// fewer surviving assignments. Past a few hundred components the survivor
// estimate overflows and every marginal cost is +Inf (or NaN); the first
// unused component then stands in, so the order is always a permutation.
func (m *model) orderGreedy(n int) ([]int, float64) {
	bound := make([]bool, len(m.dom))
	used := make([]bool, n)
	order := make([]int, 0, n)
	survivors, total := 1.0, 0.0
	for len(order) < n {
		best, bestCost := -1, math.Inf(1)
		for ci := 0; ci < n; ci++ {
			if used[ci] {
				continue
			}
			cost, _ := m.step(bound, survivors, ci)
			if math.IsNaN(cost) {
				cost = math.Inf(1)
			}
			if best < 0 || cost < bestCost || (cost == bestCost && m.sel[ci] < m.sel[best]) {
				best, bestCost = ci, cost
			}
		}
		cost, next := m.step(bound, survivors, best)
		m.bind(bound, best)
		used[best] = true
		order = append(order, best)
		total += cost
		survivors = next
	}
	return order, total
}

// reduction is the Reduction estimate, summed over the components in one
// pass.
type reduction struct {
	sweep  float64 // Lemma 4.3 R' sweeps: one bounded product exploration from each of V^t source tuples
	rows   float64 // materialized R' rows, which the CQ join reads
	capped bool    // some component's V^t source tuples pass the cap at which the sweep refuses to run
}

func (m *model) reduction() reduction {
	var r reduction
	for i, pc := range m.plan.Components {
		t := float64(len(pc.PathVars))
		sources := math.Pow(m.v, t)
		r.sweep += sources * m.check[i]
		r.rows += math.Pow(m.v*m.v*m.sigma, t)
		if sources > core.MaxSweepSources {
			r.capped = true
		}
	}
	return r
}
