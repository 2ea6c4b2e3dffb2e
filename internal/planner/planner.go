// Package planner is the cost-based query planner. It combines the
// per-database statistics catalog (internal/stats) with the query's
// structural plan (core.Explain: components, automaton sizes, first-label
// sets) to
//
//   - resolve the "auto" strategy by comparing estimated Generic vs
//     Reduction cost instead of the fixed track-count rule,
//   - order the Generic backtracking's component completion sequence
//     (greedy, exact bitmask DP below a configurable component count), and
//   - decide whether first-label predicate pushdown into the product
//     search is worthwhile.
//
// The planner reads database statistics exclusively through the stats
// catalog API — it never touches internal/graphdb (enforced by the
// planstats lint). Decisions are deterministic functions of
// (catalog, plan, options), so two nodes holding the same generation
// resolve identically — replica EXPLAIN matches owner EXPLAIN.
package planner

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"

	"ecrpq/internal/core"
	"ecrpq/internal/stats"
)

// Config tunes the planner.
type Config struct {
	// DPMaxComponents is the component count at or below which join
	// ordering uses exact bitmask dynamic programming; above it the
	// greedy order is used. 0 means the default of 8 (2^8 subsets).
	DPMaxComponents int
	// NsPerCostUnit converts abstract cost units to nanoseconds for the
	// EstimatedMs fields. 0 means the default of 25ns, roughly one
	// product-state expansion on commodity hardware.
	NsPerCostUnit float64
}

func (c Config) dpMax() int {
	if c.DPMaxComponents <= 0 {
		return 8
	}
	return c.DPMaxComponents
}

func (c Config) nsPerUnit() float64 {
	if c.NsPerCostUnit <= 0 {
		return 25
	}
	return c.NsPerCostUnit
}

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
func Resolve(cat *stats.Catalog, plan *core.Plan, opts core.Options, cfg Config) *Decision {
	trackCounts := make([]int, len(plan.Components))
	for i, c := range plan.Components {
		trackCounts[i] = len(c.PathVars)
	}
	if cat == nil {
		strat := opts.Strategy
		if strat == core.Auto {
			strat = core.AutoStrategy(trackCounts, opts)
		}
		return &Decision{
			Strategy:     strat,
			StrategyName: strat.String(),
			UsedFallback: true,
		}
	}

	m := newModel(cat, plan, cfg)
	order, genericCost := m.orderComponents()
	reductionCost := m.reductionCost()

	strat := opts.Strategy
	if strat == core.Auto {
		if genericCost <= reductionCost {
			strat = core.Generic
		} else {
			strat = core.Reduction
		}
		// Past the sweep's hard source cap the reduction builder errors
		// out; never plan into it.
		if strat == core.Reduction && m.sweepSourcesExceeded() {
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
		d.ComponentOrder = order
		d.Pushdown = m.hasPushdown()
		d.Stages = m.genericStages(order)
	} else {
		d.Stages = m.reductionStages()
	}
	return d
}

// model holds the derived quantities the cost formulas share.
type model struct {
	cat  *stats.Catalog
	plan *core.Plan
	cfg  Config

	v     float64 // |V|, at least 1 to keep formulas finite
	sigma float64 // any-label reachability selectivity, clamped to (0,1]
	// dom[i] is the estimated candidate-domain size product for component
	// i's NEW node variables ignoring bindings (per-variable domains
	// multiplied on demand in orderCost); varDom maps a node variable to
	// its pushdown-restricted domain size.
	varDom map[string]float64
}

func newModel(cat *stats.Catalog, plan *core.Plan, cfg Config) *model {
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
	m := &model{cat: cat, plan: plan, cfg: cfg, v: v, sigma: sigma, varDom: map[string]float64{}}
	// Pushdown domain estimates: a variable sourcing a restricted track
	// only ranges over vertices with an out-edge in the allowed label set;
	// DistinctSrc is exactly that count per label. Multiple restricted
	// tracks on one source variable take the minimum.
	for _, pc := range plan.Components {
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
			if total > v {
				total = v
			}
			if cur, ok := m.varDom[src]; !ok || total < cur {
				m.varDom[src] = total
			}
		}
	}
	return m
}

func (m *model) hasPushdown() bool { return len(m.varDom) > 0 }

// domain returns the estimated candidate count for one node variable.
func (m *model) domain(v string) float64 {
	if d, ok := m.varDom[v]; ok {
		if d < 1 {
			return 1 // empty domains still cost the loop setup
		}
		return d
	}
	return m.v
}

// checkCost estimates one product-search check of component i: the
// automaton states times the endpoint-bounded product frontier. With all
// endpoints fixed the search explores at most states × (σ·V)^t product
// positions before concluding.
func (m *model) checkCost(i int) float64 {
	pc := m.plan.Components[i]
	t := float64(len(pc.PathVars))
	states := float64(pc.RelationStates)
	if states < 1 {
		states = 1
	}
	frontier := math.Pow(math.Max(m.sigma*m.v, 1), t)
	return states * frontier
}

// compSelectivity estimates the fraction of endpoint assignments of
// component i that survive its check: each track independently demands
// reachability between its endpoints.
func (m *model) compSelectivity(i int) float64 {
	t := len(m.plan.Components[i].PathVars)
	sel := math.Pow(m.sigma, float64(t))
	if sel < 1e-12 {
		sel = 1e-12
	}
	return sel
}

// orderCost walks one component order, accumulating the Generic
// backtracking estimate: candidates enumerated per step times the check
// cost, with survivors thinning by each component's selectivity.
func (m *model) orderCost(order []int) float64 {
	bound := map[string]bool{}
	survivors := 1.0
	total := 0.0
	for _, ci := range order {
		pc := m.plan.Components[ci]
		newDom := 1.0
		for _, nv := range pc.NodeVars {
			if !bound[nv] {
				bound[nv] = true
				newDom *= m.domain(nv)
			}
		}
		candidates := survivors * newDom
		total += candidates * m.checkCost(ci)
		survivors = candidates * m.compSelectivity(ci)
		if survivors < 1 {
			survivors = 1
		}
	}
	return total
}

// orderComponents picks the component completion order minimizing the
// estimated Generic cost: exact subset DP up to cfg.DPMaxComponents
// components, greedy beyond. Returns the order and its cost. A nil order
// (0 or 1 components) keeps the natural sequence.
func (m *model) orderComponents() ([]int, float64) {
	n := len(m.plan.Components)
	switch n {
	case 0:
		return nil, 0
	case 1:
		return nil, m.orderCost([]int{0})
	}
	if n <= m.cfg.dpMax() {
		return m.orderDP(n)
	}
	return m.orderGreedy(n)
}

// orderDP is Selinger-style bitmask DP over component subsets. State per
// subset: the cheapest total cost of completing exactly that subset, with
// the surviving-assignment count it implies (cost-optimal substructure is
// approximate because survivors also matter; the DP tracks the pair and
// minimizes cost, tie-breaking on survivors).
func (m *model) orderDP(n int) ([]int, float64) {
	type state struct {
		cost      float64
		survivors float64
		bound     map[string]bool
		last      int // component added to reach this subset
		prev      int // previous subset mask
	}
	states := make([]*state, 1<<n)
	states[0] = &state{cost: 0, survivors: 1, bound: map[string]bool{}, last: -1}
	for mask := 0; mask < 1<<n; mask++ {
		st := states[mask]
		if st == nil {
			continue
		}
		for ci := 0; ci < n; ci++ {
			if mask&(1<<ci) != 0 {
				continue
			}
			pc := m.plan.Components[ci]
			newDom := 1.0
			for _, nv := range pc.NodeVars {
				if !st.bound[nv] {
					newDom *= m.domain(nv)
				}
			}
			candidates := st.survivors * newDom
			cost := st.cost + candidates*m.checkCost(ci)
			survivors := candidates * m.compSelectivity(ci)
			if survivors < 1 {
				survivors = 1
			}
			next := mask | 1<<ci
			if cur := states[next]; cur == nil || cost < cur.cost ||
				(cost == cur.cost && survivors < cur.survivors) {
				nb := make(map[string]bool, len(st.bound)+len(pc.NodeVars))
				for k := range st.bound {
					nb[k] = true
				}
				for _, nv := range pc.NodeVars {
					nb[nv] = true
				}
				states[next] = &state{cost: cost, survivors: survivors, bound: nb, last: ci, prev: mask}
			}
		}
	}
	final := states[1<<n-1]
	order := make([]int, 0, n)
	for st := final; st != nil && st.last >= 0; st = states[st.prev] {
		order = append(order, st.last)
	}
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	return order, final.cost
}

// orderGreedy picks, at each step, the component with the cheapest
// marginal cost (candidates × check), tie-breaking toward the more
// selective component (smaller survivor fraction) so later steps see
// fewer surviving assignments. Past a few hundred components the survivor
// estimate overflows and every marginal cost is +Inf (or NaN); the first
// unused component then stands in, so the order is always a permutation.
func (m *model) orderGreedy(n int) ([]int, float64) {
	bound := map[string]bool{}
	survivors := 1.0
	used := make([]bool, n)
	order := make([]int, 0, n)
	total := 0.0
	for len(order) < n {
		best, bestCost, bestSel := -1, math.Inf(1), 0.0
		for ci := 0; ci < n; ci++ {
			if used[ci] {
				continue
			}
			newDom := 1.0
			for _, nv := range m.plan.Components[ci].NodeVars {
				if !bound[nv] {
					newDom *= m.domain(nv)
				}
			}
			cost := survivors * newDom * m.checkCost(ci)
			if math.IsNaN(cost) {
				cost = math.Inf(1)
			}
			sel := m.compSelectivity(ci)
			if best < 0 || cost < bestCost || (cost == bestCost && sel < bestSel) {
				best, bestCost, bestSel = ci, cost, sel
			}
		}
		used[best] = true
		order = append(order, best)
		pc := m.plan.Components[best]
		newDom := 1.0
		for _, nv := range pc.NodeVars {
			if !bound[nv] {
				bound[nv] = true
				newDom *= m.domain(nv)
			}
		}
		candidates := survivors * newDom
		total += candidates * m.checkCost(best)
		survivors = candidates * m.compSelectivity(best)
		if survivors < 1 {
			survivors = 1
		}
	}
	return order, total
}

// sweepCost estimates component i's Lemma 4.3 R' sweep: one bounded
// product exploration from each of V^t source tuples.
func (m *model) sweepCost(i int) float64 {
	t := float64(len(m.plan.Components[i].PathVars))
	return math.Pow(m.v, t) * m.checkCost(i)
}

// rows estimates component i's materialized R' row count.
func (m *model) rows(i int) float64 {
	t := len(m.plan.Components[i].PathVars)
	return math.Pow(m.v*m.v*m.sigma, float64(t))
}

// sweepSourcesExceeded reports a component whose V^t source tuples pass
// the cap at which the sweep refuses to run.
func (m *model) sweepSourcesExceeded() bool {
	for i := range m.plan.Components {
		t := float64(len(m.plan.Components[i].PathVars))
		if math.Pow(m.v, t) > core.MaxSweepSources {
			return true
		}
	}
	return false
}

// reductionCost totals the Reduction strategy estimate: the per-component
// sweeps plus the CQ join over the materialized rows.
func (m *model) reductionCost() float64 {
	total := 0.0
	joinRows := 0.0
	for i := range m.plan.Components {
		total += m.sweepCost(i)
		joinRows += m.rows(i)
	}
	if m.sweepSourcesExceeded() {
		return math.Inf(1)
	}
	return total + joinRows
}

// stage is one trace-named estimate, clamped so it always encodes.
func (m *model) stage(name, detail string, cost float64) StageEstimate {
	cost = finite(cost)
	return StageEstimate{Stage: name, Detail: detail, Cost: cost, EstimatedMs: finite(cost * m.cfg.nsPerUnit() / 1e6)}
}

// genericStages breaks the Generic estimate into trace-named stages.
func (m *model) genericStages(order []int) []StageEstimate {
	seq := order
	if seq == nil {
		seq = make([]int, len(m.plan.Components))
		for i := range seq {
			seq[i] = i
		}
	}
	cost := m.orderCost(seq)
	detail := make([]string, len(seq))
	for i, ci := range seq {
		detail[i] = fmt.Sprintf("c%d{%s}", ci, strings.Join(m.plan.Components[ci].PathVars, ","))
	}
	return []StageEstimate{m.stage("core/product_search", "component order "+strings.Join(detail, " → "), cost)}
}

// reductionStages breaks the Reduction estimate into trace-named stages.
func (m *model) reductionStages() []StageEstimate {
	sweep := 0.0
	for i := range m.plan.Components {
		sweep += m.sweepCost(i)
	}
	joinRows := 0.0
	for i := range m.plan.Components {
		joinRows += m.rows(i)
	}
	return []StageEstimate{
		m.stage("core/sweep", fmt.Sprintf("%d component R' sweep(s)", len(m.plan.Components)), sweep),
		m.stage("core/cq_join", "tree-decomposition join over materialized rows", joinRows),
		m.stage("core/witness", "per-component witness recovery", float64(len(m.plan.Components))*m.v),
	}
}

// SortedStageNames lists the distinct stage names of a decision, sorted —
// a convenience for tests pinning payload shapes.
func (d *Decision) SortedStageNames() []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range d.Stages {
		if !seen[s.Stage] {
			seen[s.Stage] = true
			out = append(out, s.Stage)
		}
	}
	sort.Strings(out)
	return out
}
