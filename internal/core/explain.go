package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"ecrpq/internal/query"
	"ecrpq/internal/twolevel"
)

// Plan describes how a query would be evaluated: its semantic components,
// their sizes, the structural measures, and the strategy Auto would pick.
type Plan struct {
	Strategy Strategy
	Measures twolevel.Measures
	// Components are the semantic components, then one single-track Σ*
	// component per path variable in no non-universal atom; FreeTracks names
	// those variables (plain reachability).
	Components     []PlanComponent
	FreeTracks     []string
	NodeVariables  []string
	PredictedEval  twolevel.EvalClass
	PredictedParam twolevel.ParamClass
}

// PlanComponent summarizes one semantic component.
type PlanComponent struct {
	PathVars       []string
	NodeVars       []string
	Relations      int
	RelationStates int // sum of member NFA states (pre-merge)
	// TrackSources maps each path variable to the node variable at its
	// source endpoint; TrackTargets likewise for the destination.
	TrackSources map[string]string `json:",omitempty"`
	TrackTargets map[string]string `json:",omitempty"`
	// TrackFirstLabels maps a path variable to the sorted label names its
	// witness path may start with, derived from the component's relation
	// automata (see trackFirstLabels). A variable absent from the map is
	// unrestricted. Planners turn this into source-vertex pushdown: the
	// track's source variable only needs vertices with an out-edge carrying
	// one of these labels.
	TrackFirstLabels map[string][]string `json:",omitempty"`
}

// Explain computes the evaluation plan for a query without touching a
// database (costs depending on |V| are reported symbolically in String).
//
//ecrpq:charged the plan summary is query-sized and never touches database-sized state
func Explain(q *query.Query, opts Options) (*Plan, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	comps, err := decompose(q)
	if err != nil {
		return nil, err
	}
	strat, err := resolveStrategy(comps, opts)
	if err != nil {
		return nil, err
	}
	p := &Plan{
		Strategy:      strat,
		Measures:      twolevel.QueryMeasures(q),
		NodeVariables: q.NodeVars(),
	}
	a := q.Alphabet()
	for ci := range comps {
		c := &comps[ci]
		pc := PlanComponent{
			NodeVars:     c.nodeVars,
			Relations:    len(c.rels),
			TrackSources: make(map[string]string, len(c.tracks)),
			TrackTargets: make(map[string]string, len(c.tracks)),
		}
		for _, tr := range c.tracks {
			pc.PathVars = append(pc.PathVars, tr.pathVar)
			pc.TrackSources[tr.pathVar] = tr.srcVar
			pc.TrackTargets[tr.pathVar] = tr.dstVar
		}
		for _, r := range c.rels {
			st, _ := r.Size()
			pc.RelationStates += st
		}
		firsts := trackFirstLabels(c)
		for k, tr := range c.tracks {
			if firsts[k] == nil {
				continue
			}
			var names []string
			for sym := range firsts[k] {
				names = append(names, a.Name(sym))
			}
			sort.Strings(names)
			if pc.TrackFirstLabels == nil {
				pc.TrackFirstLabels = make(map[string][]string)
			}
			pc.TrackFirstLabels[tr.pathVar] = names
		}
		p.Components = append(p.Components, pc)
		if c.plain {
			p.FreeTracks = append(p.FreeTracks, c.tracks[0].pathVar)
		}
	}
	// Classification for the family bounded by this query's own measures.
	p.PredictedEval, p.PredictedParam = twolevel.Classify(true, true, true)
	return p, nil
}

// String renders the plan for human consumption.
func (p *Plan) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "strategy: %s\n", p.Strategy)
	fmt.Fprintf(&sb, "measures: cc_vertex=%d cc_hedge=%d tw=[%d,%d]",
		p.Measures.CCVertex, p.Measures.CCHedge,
		p.Measures.TreewidthLower, p.Measures.TreewidthUpper)
	if p.Measures.TreewidthExact {
		sb.WriteString(" (exact)")
	}
	sb.WriteString("\n")
	for i, c := range p.Components {
		if len(c.PathVars) == 1 && slices.Contains(p.FreeTracks, c.PathVars[0]) {
			continue // a relation the user never wrote; listed below
		}
		fmt.Fprintf(&sb, "component %d: paths {%s} over nodes {%s}, %d relation(s), %d NFA state(s)\n",
			i, strings.Join(c.PathVars, ", "), strings.Join(c.NodeVars, ", "),
			c.Relations, c.RelationStates)
		if p.Strategy == Reduction {
			sources := 0 // distinct source variables
			for i, pv := range c.PathVars {
				if !slices.ContainsFunc(c.PathVars[:i], func(q string) bool { return c.TrackSources[q] == c.TrackSources[pv] }) {
					sources++
				}
			}
			fmt.Fprintf(&sb, "  cost: R' sweep over |V|^%d source tuples (Lemma 4.3)\n", sources)
		} else {
			fmt.Fprintf(&sb, "  cost: product over relation states × |V|^%d pointers (Lemma 4.2)\n", len(c.PathVars))
		}
	}
	if len(p.FreeTracks) > 0 {
		fmt.Fprintf(&sb, "free tracks (plain reachability): %s\n", strings.Join(p.FreeTracks, ", "))
	}
	fmt.Fprintf(&sb, "family regimes for these bounds: eval %s; p-eval %s\n",
		p.PredictedEval, p.PredictedParam)
	return sb.String()
}
