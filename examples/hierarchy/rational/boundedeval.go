package rational

import (
	"fmt"

	"ecrpq/internal/graphdb"
)

// RationalAtom constrains the labels of two path variables by a transducer
// relation.
type RationalAtom struct {
	Rel   *Transducer
	Path1 string
	Path2 string
}

// RationalQuery is a Boolean CRPQ+Rational query: reachability atoms plus
// binary rational relation atoms. Its evaluation problem is undecidable in
// general (the paper cites Barceló et al.); BoundedEval is the natural
// semi-decision procedure.
type RationalQuery struct {
	Reach []ReachAtom
	Atoms []RationalAtom
}

// ReachAtom mirrors query.ReachAtom locally to avoid import cycles in
// callers combining both query kinds.
type ReachAtom struct {
	Src, Dst string
	Path     string
}

// Validate checks well-formedness (each path variable in exactly one
// reachability atom; relation atoms over declared, distinct variables).
func (q *RationalQuery) Validate() error {
	owner := make(map[string]bool)
	for i, r := range q.Reach {
		if r.Src == "" || r.Dst == "" || r.Path == "" {
			return fmt.Errorf("rational: reach atom %d has empty variable", i)
		}
		if owner[r.Path] {
			return fmt.Errorf("rational: path variable %q reused", r.Path)
		}
		owner[r.Path] = true
	}
	for i, at := range q.Atoms {
		if at.Rel == nil {
			return fmt.Errorf("rational: atom %d has nil transducer", i)
		}
		if !owner[at.Path1] || !owner[at.Path2] {
			return fmt.Errorf("rational: atom %d uses undeclared path variable", i)
		}
		if at.Path1 == at.Path2 {
			return fmt.Errorf("rational: atom %d repeats a path variable", i)
		}
	}
	return nil
}

// BoundedEval searches for a satisfying assignment whose paths all have
// length at most maxLen. It is sound (a reported witness is genuine) but
// incomplete: CRPQ+Rational evaluation is undecidable, so no bound suffices
// in general — this is exactly the trade-off the paper's move to synchronous
// relations avoids. Returns the witness paths when found.
func BoundedEval(db *graphdb.DB, q *RationalQuery, maxLen int) (map[string]graphdb.Path, bool, error) {
	if err := q.Validate(); err != nil {
		return nil, false, err
	}
	// Node variables.
	var nodeVars []string
	seen := make(map[string]bool)
	for _, r := range q.Reach {
		for _, v := range []string{r.Src, r.Dst} {
			if !seen[v] {
				seen[v] = true
				nodeVars = append(nodeVars, v)
			}
		}
	}
	n := db.NumVertices()
	if n == 0 {
		return nil, false, nil
	}
	assign := make(map[string]int)
	paths := make(map[string]graphdb.Path)

	// Enumerate bounded paths between fixed endpoints.
	var pathsBetween func(u, v int) []graphdb.Path
	pathsBetween = func(u, v int) []graphdb.Path {
		var out []graphdb.Path
		var rec func(cur int, edges []graphdb.Edge)
		rec = func(cur int, edges []graphdb.Edge) {
			if cur == v {
				out = append(out, graphdb.Path{Start: u, Edges: append([]graphdb.Edge(nil), edges...)})
			}
			if len(edges) >= maxLen {
				return
			}
			for _, e := range db.Out(cur) {
				rec(e.To, append(edges, e))
			}
		}
		rec(u, nil)
		return out
	}

	var pickPaths func(i int) bool
	pickPaths = func(i int) bool {
		if i == len(q.Reach) {
			for _, at := range q.Atoms {
				u := paths[at.Path1].Label()
				v := paths[at.Path2].Label()
				if !at.Rel.Contains(u, v) {
					return false
				}
			}
			return true
		}
		r := q.Reach[i]
		for _, p := range pathsBetween(assign[r.Src], assign[r.Dst]) {
			paths[r.Path] = p
			if pickPaths(i + 1) {
				return true
			}
		}
		delete(paths, r.Path)
		return false
	}
	var pickNodes func(i int) bool
	pickNodes = func(i int) bool {
		if i == len(nodeVars) {
			return pickPaths(0)
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
		out := make(map[string]graphdb.Path, len(paths))
		for k, v := range paths {
			out[k] = v
		}
		return out, true, nil
	}
	return nil, false, nil
}
