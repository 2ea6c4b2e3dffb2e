package core

import (
	"context"
	"fmt"

	"ecrpq/internal/alphabet"
	"ecrpq/internal/graphdb"
	"ecrpq/internal/query"
)

// Satisfiable decides whether the query holds on *some* graph database
// (the satisfiability problem for ECRPQ, PSPACE-complete per Barceló et
// al.). When satisfiable it returns a canonical witness database together
// with the satisfying Result on it.
//
// The decision reduces to relation non-emptiness: a Boolean ECRPQ is
// satisfiable iff every semantic component's merged relation (Lemma 4.1) is
// non-empty — given witness words, a database realizing them always exists:
// one fresh path per track glued at the endpoint vertices, with endpoint
// variables identified when a track carries the empty word.
//
//ecrpq:charged the canonical database and witness are sized by the query's witness words, not by any input database
func Satisfiable(q *query.Query) (*graphdb.DB, *Result, bool, error) {
	if err := q.Validate(); err != nil {
		return nil, nil, false, err
	}
	comps, err := decompose(q)
	if err != nil {
		return nil, nil, false, err
	}
	// Witness words per path variable.
	words := make(map[string]alphabet.Word)
	for ci := range comps {
		c := &comps[ci]
		tab, err := mergeComponent(context.Background(), q.Alphabet(), c, nil)
		if err != nil {
			return nil, nil, false, err
		}
		ws, empty := tab.IsEmpty()
		if empty {
			return nil, nil, false, nil
		}
		for k, tr := range c.tracks {
			words[tr.pathVar] = ws[k]
		}
	}

	// Identify endpoint variables forced equal by empty-word tracks.
	nodeVars := q.NodeVars()
	idx := make(map[string]int, len(nodeVars))
	for i, v := range nodeVars {
		idx[v] = i
	}
	uf := newUnionFind(len(nodeVars))
	for _, ra := range q.Reach {
		if len(words[ra.Path]) == 0 {
			uf.union(idx[ra.Src], idx[ra.Dst])
		}
	}

	// Build the canonical database: one vertex per endpoint class, one fresh
	// internal chain per non-empty track.
	db := graphdb.New(q.Alphabet())
	classVertex := make(map[int]int)
	vertexOf := func(v string) int {
		r := uf.find(idx[v])
		if vv, ok := classVertex[r]; ok {
			return vv
		}
		vv := db.MustAddVertex("")
		classVertex[r] = vv
		return vv
	}
	res := &Result{Sat: true, Nodes: make(map[string]int), Paths: make(map[string]graphdb.Path)}
	for _, v := range nodeVars {
		res.Nodes[v] = vertexOf(v)
	}
	for _, ra := range q.Reach {
		w := words[ra.Path]
		src := vertexOf(ra.Src)
		dst := vertexOf(ra.Dst)
		p := graphdb.Path{Start: src}
		cur := src
		for i, sym := range w {
			var next int
			if i == len(w)-1 {
				next = dst
			} else {
				next = db.MustAddVertex("")
			}
			db.MustAddEdge(cur, sym, next)
			p.Edges = append(p.Edges, graphdb.Edge{Label: sym, To: next})
			cur = next
		}
		res.Paths[ra.Path] = p
	}
	// Defensive verification: the canonical database must satisfy q via the
	// constructed witness.
	if err := VerifyWitness(db, q, res); err != nil {
		return nil, nil, false, fmt.Errorf("core: internal error: canonical witness invalid: %v", err)
	}
	return db, res, true, nil
}
