package core

import (
	"fmt"

	"ecrpq/internal/alphabet"
	"ecrpq/internal/graphdb"
	"ecrpq/internal/query"
)

// NaiveBounded is the brute-force baseline evaluator: enumerate node
// assignments, then all path combinations up to maxPathLen edges per path
// variable, checking relation membership on the label tuples. It is sound,
// and complete relative to the bound; with
//
//	maxPathLen ≥ (∏ relation-NFA states) · |V|^t · 2^t
//
// per component it is fully complete (a pumping argument on the component
// product), but that bound is astronomically large — which is precisely why
// the paper's algorithms matter. Intended as the comparison baseline for the
// ablation suite and as a differential-testing oracle.
//
//ecrpq:charged deliberately ungoverned baseline oracle; never runs on the served path
func NaiveBounded(db *graphdb.DB, q *query.Query, maxPathLen int) (*Result, error) {
	return naiveBounded(db, q, nil, maxPathLen)
}

// naiveBounded is NaiveBounded with the node variables in pinned fixed to
// the given vertices, so the oracle can be asked about one candidate row
// of a component's endpoint relation.
//
//ecrpq:charged deliberately ungoverned baseline oracle; never runs on the served path
func naiveBounded(db *graphdb.DB, q *query.Query, pinned map[string]int, maxPathLen int) (*Result, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if maxPathLen < 0 {
		return nil, fmt.Errorf("core: negative path bound %d", maxPathLen)
	}
	nodeVars := q.NodeVars()
	n := db.NumVertices()
	res := &Result{}
	if n == 0 {
		res.Sat = len(nodeVars) == 0
		if res.Sat {
			res.Nodes = map[string]int{}
			res.Paths = map[string]graphdb.Path{}
		}
		return res, nil
	}
	assign := make(map[string]int, len(nodeVars))
	chosen := make(map[string]graphdb.Path, len(q.Reach))

	pathsBetween := func(u, v int) []graphdb.Path {
		var out []graphdb.Path
		var rec func(cur int, edges []graphdb.Edge)
		rec = func(cur int, edges []graphdb.Edge) {
			if cur == v {
				out = append(out, graphdb.Path{Start: u, Edges: append([]graphdb.Edge(nil), edges...)})
			}
			if len(edges) >= maxPathLen {
				return
			}
			for _, e := range db.Out(cur) {
				rec(e.To, append(edges, e))
			}
		}
		rec(u, nil)
		return out
	}
	checkRels := func() bool {
		for _, ra := range q.Rels {
			words := make([]alphabet.Word, len(ra.Paths))
			for i, p := range ra.Paths {
				words[i] = chosen[p].Label()
			}
			in, err := ra.Rel.Contains(words...)
			if err != nil || !in {
				return false
			}
		}
		return true
	}
	var pickPaths func(i int) bool
	pickPaths = func(i int) bool {
		if i == len(q.Reach) {
			return checkRels()
		}
		ra := q.Reach[i]
		for _, p := range pathsBetween(assign[ra.Src], assign[ra.Dst]) {
			chosen[ra.Path] = p
			if pickPaths(i + 1) {
				return true
			}
		}
		delete(chosen, ra.Path)
		return false
	}
	var pickNodes func(i int) bool
	pickNodes = func(i int) bool {
		if i == len(nodeVars) {
			return pickPaths(0)
		}
		if d, ok := pinned[nodeVars[i]]; ok {
			assign[nodeVars[i]] = d
			return pickNodes(i + 1)
		}
		for d := 0; d < n; d++ {
			assign[nodeVars[i]] = d
			if pickNodes(i + 1) {
				return true
			}
		}
		delete(assign, nodeVars[i])
		return false
	}
	if pickNodes(0) {
		res.Sat = true
		res.Nodes = make(map[string]int, len(assign))
		for k, v := range assign {
			res.Nodes[k] = v
		}
		res.Paths = make(map[string]graphdb.Path, len(chosen))
		for k, v := range chosen {
			res.Paths[k] = v
		}
	}
	return res, nil
}
